"""Synthetic data generator, partitioning, and the on-disk text format."""

from dataclasses import replace

import numpy as np
import pytest

from motionblend import dataset
from motionblend.dataset import (
    LabeledSample,
    PRESETS,
    SynthConfig,
    _reach_profile,
    dataset_fingerprint,
    generate_synthetic,
    load,
    partition,
    save,
    serialize,
    validate_prefix_uniqueness,
)
from motionblend.errors import ConfigError, DatasetParseError, TrivialPartitionError
from motionblend.signals import MotionSignal, SignalConfig, terminal_instant

QUIET = replace(
    PRESETS["small"], n_encoded=3, n_not_encoded=3, jitter_std=0.0
)


def make_sample(sid, level, rows, cfg=None, p0=(0.0, 0.0, 0.0)):
    cfg = cfg or SignalConfig(t_max=30)
    return LabeledSample(
        id=sid,
        velocity=MotionSignal.from_samples(rows, cfg),
        initial_position=np.asarray(p0),
        encoding_level=level,
    )


def test_reach_profile_hand_value():
    # Minimum-jerk speed peaks at 1.875 * amplitude / duration.
    assert _reach_profile(np.array([0.5]), 200.0, 1.0)[0] == 375.0
    assert _reach_profile(np.array([0.0]), 200.0, 1.0)[0] == 0.0
    assert _reach_profile(np.array([1.0]), 200.0, 1.0)[0] == 0.0


def test_generate_counts_ids_labels(small_samples, small_cfg):
    assert len(small_samples) == small_cfg.n_encoded + small_cfg.n_not_encoded
    levels = [s.encoding_level for s in small_samples]
    assert levels.count(1) == small_cfg.n_encoded
    assert levels.count(0) == small_cfg.n_not_encoded
    ids = [s.id for s in small_samples]
    assert len(set(ids)) == len(ids)


def test_generate_deterministic(small_cfg, small_samples):
    again = generate_synthetic(small_cfg)
    assert serialize(again) == serialize(small_samples)


def test_recordings_fill_the_window(small_samples, small_cfg):
    # Fixed-length takes keep padded distances and resampling windows
    # comparable across the whole pool.
    for s in small_samples:
        assert s.effective_length == small_cfg.t_max
        assert np.all(s.velocity.values[0] == 0.0)  # capture zero reference


def test_quiet_generator_structure():
    samples = generate_synthetic(QUIET)
    lead = int(round(QUIET.lead_in / QUIET.dt))
    for s in samples:
        speeds = s.velocity.speeds()
        assert np.all(speeds[:lead] == 0.0)
        moving = np.nonzero(speeds > 0)[0]
        assert moving.size > 0
        assert moving[0] >= lead
        assert terminal_instant(s.velocity).terminates


def test_encoded_class_is_slower_and_longer():
    samples = generate_synthetic(QUIET)
    peak = {0: [], 1: []}
    stop = {0: [], 1: []}
    for s in samples:
        peak[s.encoding_level].append(s.velocity.speeds().max())
        stop[s.encoding_level].append(terminal_instant(s.velocity).t)
    assert np.mean(peak[1]) < np.mean(peak[0])
    assert np.mean(stop[1]) > np.mean(stop[0])


def test_generate_config_errors():
    with pytest.raises(ConfigError):
        generate_synthetic(replace(QUIET, rho=1))
    with pytest.raises(ConfigError):
        generate_synthetic(replace(QUIET, n_encoded=0))
    with pytest.raises(ConfigError):
        generate_synthetic(replace(QUIET, duration_range=(1.2, 0.8)))
    # 3 s * 1.3 stretch + lead-in does not fit into 400 samples.
    with pytest.raises(ConfigError):
        generate_synthetic(replace(QUIET, duration_range=(2.9, 3.0)))


def test_save_load_roundtrip(tmp_path, small_samples):
    path = tmp_path / "data.csv"
    save(path, small_samples)
    back = load(path)
    assert serialize(back) == serialize(small_samples)
    assert dataset_fingerprint(back) == dataset_fingerprint(small_samples)
    for a, b in zip(back, small_samples):
        assert a.id == b.id
        assert a.encoding_level == b.encoding_level
        assert np.array_equal(a.initial_position, b.initial_position)
        assert np.array_equal(a.velocity.values, b.velocity.values)
        assert a.velocity.config == b.velocity.config


def test_serialize_refuses_separator_in_id():
    s = make_sample("a,b", 0, [[1, 1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1]])
    with pytest.raises(ConfigError):
        serialize([s])


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n")
    assert load(path) == []


def header():
    return "# motionblend-data v1 rho=3 t_max=30 delta_vel=10.0"


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("s,1,0.01,1.0", "expected at least"),
        ("s,x,0.01,1.0,2.0,3.0,4.0,5.0,6.0", "bad label"),
        ("s,1,zzz,1.0,2.0,3.0,4.0,5.0,6.0", "bad dt"),
        ("s,1,0.01,1.0,2.0,3.0,4.0,oops,6.0", "bad numeric"),
        ("s,1,0.01,1.0,2.0,3.0", "whole number"),
        ("s,1,0.01,1.0,2.0,3.0,4.0,5.0,6.0,7.0", "whole number"),
        ("s,2,0.01,1.0,2.0,3.0,4.0,5.0,6.0", "bad label"),
        ("s,-1,0.01,1.0,2.0,3.0,4.0,5.0,6.0", "bad label"),
        ("s,1,nan,1.0,2.0,3.0,4.0,5.0,6.0", "non-finite"),
        ("s,1,inf,1.0,2.0,3.0,4.0,5.0,6.0", "non-finite"),
        ("s,1,0.01,inf,2.0,3.0,4.0,5.0,6.0", "non-finite"),
        ("s,1,0.01,1.0,2.0,3.0,4.0,nan,6.0", "non-finite"),
        ("s,0,0.01,1.0,2.0,3.0,4.0,5.0,-inf", "non-finite"),
    ],
)
def test_load_malformed_lines(tmp_path, line, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(header() + "\n" + line + "\n")
    with pytest.raises(DatasetParseError, match=fragment) as info:
        load(path)
    assert str(info.value).startswith("line 2:")


def test_load_requires_header(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("s,1,0.01,1.0,2.0,3.0,4.0,5.0,6.0\n")
    with pytest.raises(DatasetParseError, match="header"):
        load(path)


def test_sample_validation():
    rows = [[1, 1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1]]
    with pytest.raises(ConfigError):
        make_sample("s", 2, rows)
    with pytest.raises(ConfigError):
        make_sample("s", 1, rows, p0=(0.0, 0.0))


def test_partition_splits_by_level(small_samples):
    part = partition(small_samples, 1)
    assert all(small_samples[i].encoding_level == 1 for i in part.encoded)
    assert all(small_samples[i].encoding_level == 0 for i in part.not_encoded)
    assert len(part.encoded) + len(part.not_encoded) == len(part.all)
    flipped = partition(small_samples, 0)
    assert set(flipped.encoded) == set(part.not_encoded)


def test_partition_errors():
    rows = [[9, 0, 0], [9, 0, 0], [9, 0, 0], [9, 0, 0]]
    a = make_sample("a", 1, rows)
    b = make_sample("b", 0, rows)
    with pytest.raises(ConfigError):
        partition([a, b], 2)
    with pytest.raises(TrivialPartitionError):
        partition([], 1)
    with pytest.raises(TrivialPartitionError):
        partition([a], 1)  # complement side empty
    with pytest.raises(ConfigError):
        partition([a, b, make_sample("a", 0, rows)], 1)
    other = make_sample("c", 0, rows, cfg=SignalConfig(t_max=31))
    with pytest.raises(ConfigError):
        partition([a, other], 1)


def test_prefix_uniqueness_clean_on_generated_data(small_part):
    assert validate_prefix_uniqueness(small_part, 20) == []


def test_prefix_uniqueness_detects_collision():
    shared = np.tile([5.0, 0.0, 0.0], (20, 1))
    a = make_sample("a", 0, np.vstack([shared, [[1, 0, 0]]]))
    b = make_sample("b", 0, np.vstack([shared, [[2, 0, 0]]]))
    ref = make_sample("r", 1, [[9, 0, 0], [9, 0, 0], [9, 0, 0], [9, 0, 0]])
    part = partition([a, b, ref], 1)
    assert validate_prefix_uniqueness(part, 20) == [("a", "b")]
    with pytest.raises(ConfigError):
        validate_prefix_uniqueness(part, 0)


def test_dataset_fingerprint_tracks_content(small_samples):
    fp = dataset_fingerprint(small_samples)
    assert fp == dataset_fingerprint(list(small_samples))
    assert fp != dataset_fingerprint(small_samples[:-1])
