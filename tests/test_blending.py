"""Blend operation, pairwise coefficient table, and the offline solver.

The table builder's vectorized scan is checked entry for entry against a
brute-force oracle that blends and classifies through the public API only,
and against a copy of the per-pair forward() scan it replaced.
"""

import numpy as np
import pytest

from motionblend import blending
from motionblend.blending import (
    BlendGrid,
    BlendTable,
    blend,
    check_table_matches,
    compute_table,
    load_table,
    save_table,
    solve_offline,
    table_fingerprint,
    table_to_csv,
)
from motionblend.classifier import (
    EncoderModel,
    Verdict,
    _featurize_values,
    classify,
    forward,
    model_fingerprint,
)
from motionblend.dataset import LabeledSample, partition
from motionblend.errors import (
    ConfigError,
    DatasetParseError,
    DomainError,
    ShapeMismatchError,
    StaleArtifactError,
)
from motionblend.nn import Mlp
from motionblend.signals import MotionSignal, SignalConfig, dist

CFG = SignalConfig(t_max=8)


def sig(rows, eff=None):
    full = np.zeros((CFG.t_max, 3))
    rows = np.asarray(rows, dtype=float)
    full[: len(rows)] = rows
    return MotionSignal(full, CFG, len(rows) if eff is None else eff)


def test_grid_uniform():
    grid = BlendGrid.uniform(51)
    assert grid.count == 51
    assert grid.values[0] == 0.0
    assert grid.values[-1] == 1.0
    assert grid.values[25] == 0.5
    assert grid.step == pytest.approx(0.02)


def test_grid_validation():
    with pytest.raises(ConfigError):
        BlendGrid.uniform(1)
    with pytest.raises(ConfigError):
        BlendGrid(np.array([0.0, 0.5, 0.9]))
    with pytest.raises(ConfigError):
        BlendGrid(np.array([0.0, 0.1, 1.0]))
    with pytest.raises(ConfigError):
        BlendGrid(np.array([1.0, 0.5, 0.0]))


def test_blend_hand_value():
    v_h = sig([[4.0, 0.0, 0.0]])
    v_r = sig([[0.0, 8.0, 0.0]])
    out = blend(v_h, v_r, 0.25)
    assert np.array_equal(out.values[0], [1.0, 6.0, 0.0])


def test_blend_endpoints_reproduce_inputs():
    rng = np.random.default_rng(0)
    v_h = sig(rng.normal(0, 10, (8, 3)), eff=8)
    v_r = sig(rng.normal(0, 10, (8, 3)), eff=8)
    assert np.array_equal(blend(v_h, v_r, 1.0).values, v_h.values)
    assert np.array_equal(blend(v_h, v_r, 0.0).values, v_r.values)


def test_blend_support_follows_the_values():
    v_h = sig([[2, 0, 0], [4, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]])
    v_r = sig([[8, 0, 0]])
    assert blend(v_h, v_r, 1.0).effective_length == 2
    assert blend(v_h, v_r, 0.0).effective_length == 1
    assert blend(v_h, v_r, 0.5).effective_length == 2


def test_blend_domain_checks():
    v = sig([[1, 1, 1]])
    with pytest.raises(DomainError):
        blend(v, v, 1.5)
    other = MotionSignal(np.zeros((9, 3)), SignalConfig(t_max=9))
    with pytest.raises(ShapeMismatchError):
        blend(v, other, 0.5)


def test_blend_distance_identity():
    # Deviation from the input shrinks by exactly (1 - c).
    rng = np.random.default_rng(1)
    for _ in range(200):
        v_h = sig(rng.normal(0, 100, (8, 3)), eff=8)
        v_r = sig(rng.normal(0, 100, (8, 3)), eff=8)
        c = float(rng.uniform(0, 1))
        base = dist(v_h, v_r)
        got = dist(v_h, blend(v_h, v_r, c))
        assert abs(got - (1.0 - c) * base) < 1e-9 * base


def test_blend_deviation_monotone_in_c(small_part):
    v_h = small_part.not_encoded_signals[0]
    v_r = small_part.encoded_signals[0]
    devs = [dist(v_h, blend(v_h, v_r, c)) for c in np.linspace(0, 1, 9)]
    assert all(a >= b for a, b in zip(devs, devs[1:]))


def oracle_entry(model, grid, v_h, v_r):
    """Largest accepted grid index by direct blend-and-classify."""
    best = 0
    for k in range(grid.count):
        decision = classify(model, blend(v_h, v_r, float(grid.values[k])))
        if decision.verdict is Verdict.ENCODED:
            best = k
    return best


def test_table_matches_bruteforce_oracle(small_part, small_grid, small_model, small_table):
    ne = small_part.not_encoded_signals
    enc = small_part.encoded_signals
    for i in range(len(ne)):
        for j in range(len(enc)):
            expected = oracle_entry(small_model, small_grid, ne[i], enc[j])
            assert small_table.entries[i, j] == expected, (i, j)


def _support(values, eff):
    nonzero = np.nonzero(np.any(values[:eff] != 0.0, axis=1))[0]
    return int(nonzero[-1]) + 1 if nonzero.size else eff


def reference_scores(part, grid, model):
    """Scores of the per-pair scan the table builder used to run.

    One featurize of each side over the pair's window max(sup_h, sup_j),
    the feature-space blend for every grid point through forward(), and
    the query's own-window score at c = 1. Shape (not encoded, encoded,
    grid points).
    """
    points = model.points_per_axis
    c = grid.values
    encoded = [
        (s.velocity.values, _support(s.velocity.values, s.effective_length))
        for s in part.encoded_samples
    ]
    out = []
    for s in part.not_encoded_samples:
        values = s.velocity.values
        sup_h = _support(values, s.effective_length)
        own = float(forward(model, _featurize_values(values[:sup_h], points)))
        row = []
        for enc_values, sup_j in encoded:
            length = max(sup_h, sup_j)
            fh = _featurize_values(values[:length], points)
            fr = _featurize_values(enc_values[:length], points)
            scores = forward(model, np.outer(c, fh) + np.outer(1.0 - c, fr))
            scores[-1] = own
            row.append(scores)
        out.append(row)
    return np.array(out)


def reference_entries(scores, upper):
    entries = np.zeros(scores.shape[:2], dtype=np.int64)
    for i, j in np.ndindex(*entries.shape):
        accepted = np.nonzero(scores[i, j] > upper)[0]
        if accepted.size:
            entries[i, j] = accepted[-1]
    return entries


def split_threshold(scores):
    """Halfway between the two neighbouring distinct scores at the median,
    so about half the blends pass and no score lies on the threshold."""
    distinct = np.unique(scores)
    k = distinct.size // 2
    return float(distinct[k - 1] + distinct[k]) / 2


@pytest.fixture(scope="module")
def ragged_part(small_part):
    """Signals whose trailing zeros give every sample its own support, so
    the pair window max(sup_h, sup_j) takes either side's length."""

    def cut(sample, support):
        values = sample.velocity.values.copy()
        values[support:] = 0.0
        velocity = MotionSignal(values, sample.velocity.config, sample.effective_length)
        return LabeledSample(
            sample.id, velocity, sample.initial_position, sample.encoding_level
        )

    not_encoded = [
        cut(s, 118 + 37 * i) for i, s in enumerate(small_part.not_encoded_samples[:6])
    ]
    encoded = [cut(s, 100 + 41 * j) for j, s in enumerate(small_part.encoded_samples[:7])]
    return partition(not_encoded + encoded, 1)


@pytest.mark.parametrize(
    "case", ["fixture", "ragged-supports", "deep-net", "single-layer", "workers-2"]
)
def test_table_matches_reference_scan(case, request, small_part, small_grid, small_model):
    if case == "fixture":
        part, model = small_part, small_model
        scores = reference_scores(part, small_grid, model)
    else:
        part = request.getfixturevalue("ragged_part")
        supports = {_support(s.velocity.values, s.effective_length) for s in part.all}
        assert len(supports) == len(part.all)
        if case == "ragged-supports":
            net = small_model.net
        elif case == "single-layer":
            net = Mlp([60, 1], rng=np.random.default_rng(8))
        else:
            net = Mlp([60, 16, 8, 1], rng=np.random.default_rng(7))
        scores = reference_scores(part, small_grid, EncoderModel(net=net))
        # Thresholds only clip scores, so pick one that splits them.
        model = EncoderModel(
            net=net, lower_threshold=0.0, upper_threshold=split_threshold(scores)
        )
    expected = reference_entries(scores, model.upper_threshold)
    assert len(np.unique(expected)) > 2
    workers = 2 if case == "workers-2" else 1
    table = compute_table(part, small_grid, model, workers=workers)
    assert np.array_equal(table.entries, expected)


def test_table_refuses_feature_width_mismatch(small_part, small_grid):
    narrow = EncoderModel(net=Mlp([12, 4, 1], rng=np.random.default_rng(9)))
    with pytest.raises(ConfigError, match="feature width"):
        compute_table(small_part, small_grid, narrow)


def test_table_has_informative_entries(small_table):
    # The trained classifier accepts some genuine mixing; an all-zero or
    # all-one table would make every downstream test vacuous.
    assert small_table.entries.max() > 0
    assert small_table.entries.min() < small_table.grid.count - 1


def test_parallel_build_matches_serial(small_part, small_grid, small_model, small_table):
    parallel = compute_table(small_part, small_grid, small_model, workers=2)
    assert np.array_equal(parallel.entries, small_table.entries)
    assert table_fingerprint(parallel) == table_fingerprint(small_table)


def test_table_validation(small_grid, small_table):
    with pytest.raises(ConfigError):
        BlendTable(
            entries=small_table.entries[:, :-1],
            grid=small_grid,
            e_des=1,
            classifier_fingerprint="x",
            not_encoded_ids=small_table.not_encoded_ids,
            encoded_ids=small_table.encoded_ids,
        )
    bad = small_table.entries.copy()
    bad[0, 0] = small_grid.count
    with pytest.raises(ConfigError):
        BlendTable(
            entries=bad,
            grid=small_grid,
            e_des=1,
            classifier_fingerprint="x",
            not_encoded_ids=small_table.not_encoded_ids,
            encoded_ids=small_table.encoded_ids,
        )


def test_table_save_load_roundtrip(tmp_path, small_table):
    path = tmp_path / "table.txt"
    save_table(path, small_table)
    back = load_table(path)
    assert np.array_equal(back.entries, small_table.entries)
    assert back.not_encoded_ids == small_table.not_encoded_ids
    assert back.encoded_ids == small_table.encoded_ids
    assert back.grid.count == small_table.grid.count
    assert table_fingerprint(back) == table_fingerprint(small_table)


def test_load_table_errors(tmp_path, small_table):
    path = tmp_path / "table.txt"
    path.write_text("wrong header\n")
    with pytest.raises(DatasetParseError):
        load_table(path)
    text = blending.serialize_table(small_table).splitlines()
    path.write_text("\n".join(text[:-1]) + "\n")  # one row missing
    with pytest.raises(DatasetParseError):
        load_table(path)


@pytest.mark.parametrize(
    "row, entry, fragment",
    [
        (0, "99", "table entry outside the 11-point grid"),
        (2, "11", "table entry outside the 11-point grid"),
        (1, "-1", "table entry outside the 11-point grid"),
        (3, "x", "bad table row"),
        (0, "", "expected 16 entries, found 15"),
    ],
)
def test_load_table_names_the_bad_row(tmp_path, small_table, row, entry, fragment):
    lines = blending.serialize_table(small_table).splitlines()
    cells = lines[6 + row].split()
    cells[4] = entry
    lines[6 + row] = " ".join(c for c in cells if c)
    path = tmp_path / "table.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetParseError, match=f"^line {7 + row}: {fragment}"):
        load_table(path)


@pytest.mark.parametrize(
    "old, new, where",
    [
        ("e_des ", "edes ", "line 2"),
        ("grid 11", "grid 1", "line 3"),
        ("grid 11", "grid eleven", "line 3"),
        ("grid ", "grids ", "line 3"),
        ("classifier ", "model ", "line 4"),
        ("not_encoded_ids ", "ids ", "line 5"),
        ("\nencoded_ids ", "\nenc_ids ", "line 6"),
    ],
)
def test_load_table_checks_header_lines(tmp_path, small_table, old, new, where):
    text = blending.serialize_table(small_table)
    assert old in text
    path = tmp_path / "table.txt"
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(DatasetParseError, match=f"^{where}:"):
        load_table(path)


def test_table_csv_layout(small_table):
    lines = table_to_csv(small_table).splitlines()
    assert lines[0].startswith("not_encoded_id,")
    assert len(lines) == 1 + len(small_table.not_encoded_ids)
    first = lines[1].split(",")
    assert first[0] == small_table.not_encoded_ids[0]
    assert float(first[1]) == small_table.coefficient(0, 0)


def test_check_table_matches_refuses_stale(small_part, small_table, small_model):
    check_table_matches(small_table, small_part, small_model)
    tampered = EncoderModel(
        net=small_model.net.copy(),
        dataset_fingerprint=small_model.dataset_fingerprint,
    )
    tampered.net.biases[-1][0] += 0.5
    with pytest.raises(StaleArtifactError):
        check_table_matches(small_table, small_part, tampered)
    smaller = partition(list(small_part.all[:-1]), 1)
    with pytest.raises(StaleArtifactError):
        check_table_matches(small_table, smaller, small_model)


def test_solve_offline_member_resolves_to_own_row(small_part, small_table, small_model):
    for i in (0, len(small_part.not_encoded) - 1):
        sample = small_part.not_encoded_samples[i]
        sol = solve_offline(sample.velocity, small_part, small_table, small_model)
        assert sol.eta_index == i
        assert sol.c_hat == small_table.coefficient(i, sol.reference_index)
        assert sol.c_index == small_table.entries[i, sol.reference_index]


def test_solve_offline_fields_are_consistent(small_part, small_table, small_model):
    sample = small_part.not_encoded_samples[3]
    sol = solve_offline(sample.velocity, small_part, small_table, small_model)
    assert sol.v_r is small_part.encoded_signals[sol.reference_index]
    rebuilt = blend(sample.velocity, sol.v_r, sol.c_hat)
    assert np.array_equal(sol.v_a.values, rebuilt.values)
    assert sol.decision == classify(small_model, sol.v_a)


def test_solve_offline_checks_fingerprints(small_part, small_table):
    fake = EncoderModel(net=Mlp([60, 2, 1], rng=np.random.default_rng(0)))
    with pytest.raises(StaleArtifactError):
        solve_offline(
            small_part.not_encoded_signals[0], small_part, small_table, fake
        )
