"""Streaming controller: causal emission, scheduled lookups, replay."""

import numpy as np
import pytest

from motionblend import blending, online
from motionblend.blending import compute_table, solve_offline
from motionblend.classifier import EncoderModel
from motionblend.dataset import LabeledSample, partition
from motionblend.errors import (
    ConfigError,
    DomainError,
    InvalidSignalError,
    PrefixUniquenessError,
    ProtocolError,
    ShapeMismatchError,
    StaleArtifactError,
)
from motionblend.online import OnlineSchedule, replay, start_session
from motionblend.signals import MotionSignal, SignalConfig


def test_schedule_instants():
    s = OnlineSchedule(t0=20, delta_t=10)
    assert [t for t in range(1, 45) if s.is_instant(t)] == [20, 30, 40]
    with pytest.raises(ConfigError):
        OnlineSchedule(t0=0)
    with pytest.raises(ConfigError):
        OnlineSchedule(delta_t=1)


@pytest.fixture(scope="module")
def hand_setup(small_model):
    """Two constant not-encoded signals with distinct prefixes, one
    reference; gives full control over identification dynamics."""
    cfg = SignalConfig(t_max=50)

    def member(sid, level, rows):
        return LabeledSample(
            id=sid,
            velocity=MotionSignal(np.asarray(rows, dtype=float), cfg),
            initial_position=np.zeros(3),
            encoding_level=level,
        )

    a_rows = np.tile([100.0, 0.0, 0.0], (50, 1))
    b_rows = np.tile([0.0, 120.0, 0.0], (50, 1))
    b_rows[:20] = [100.001, 0.0, 0.0]  # near-twin prefix, distinct suffix
    e_rows = np.tile([50.0, 50.0, 0.0], (50, 1))
    samples = [member("a", 0, a_rows), member("b", 0, b_rows), member("e", 1, e_rows)]
    part = partition(samples, 1)
    grid = blending.BlendGrid.uniform(11)
    table = compute_table(part, grid, small_model)
    return part, table


def test_warmup_passes_input_through(small_part, small_table, small_model, schedule):
    sample = small_part.not_encoded_samples[0]
    session = start_session(
        small_part, small_table, small_model, schedule, sample.initial_position
    )
    for t in range(schedule.t0):
        out = session.push(sample.velocity.values[t])
        assert np.array_equal(out, sample.velocity.values[t])


def test_update_applies_after_emission(small_part, small_table, small_model, schedule):
    # The sample that triggers a lookup is emitted raw; the coefficient
    # holds from the next sample on.
    i = 2
    sample = small_part.not_encoded_samples[i]
    session = start_session(
        small_part, small_table, small_model, schedule, sample.initial_position
    )
    for t in range(schedule.t0):
        out = session.push(sample.velocity.values[t])
    assert np.array_equal(out, sample.velocity.values[schedule.t0 - 1])
    c = session.c_history[1]
    assert c == small_table.coefficient(i, session.reference_index)
    v_r = small_part.encoded_signals[session.reference_index]
    nxt = session.push(sample.velocity.values[schedule.t0])
    expected = c * sample.velocity.values[schedule.t0] + (1 - c) * v_r.values[schedule.t0]
    assert np.array_equal(nxt, expected)


def test_members_replay_to_their_offline_solution(
    small_part, small_table, small_model, schedule
):
    """Streaming a stored member reproduces the offline lookup exactly."""
    mismatches = 0
    for i, sample in enumerate(small_part.not_encoded_samples):
        res = replay(small_part, small_table, small_model, schedule, sample)
        sol = solve_offline(sample.velocity, small_part, small_table, small_model)
        if res.c_history[-1] != sol.c_hat:
            mismatches += 1
        assert res.approximate is False
        assert set(res.eta_indices) == {i}
        assert len(set(res.c_history[1:])) == 1  # lookup never wavers
        assert res.reference_index == sol.reference_index
    assert mismatches == 0


def test_emission_is_causal(small_part, small_table, small_model, schedule):
    sample = small_part.not_encoded_samples[1]
    fork = 34  # diverge between two update instants
    noisy = sample.velocity.values.copy()
    noisy[fork:] += np.random.default_rng(0).normal(0, 50, noisy[fork:].shape)
    s1 = start_session(small_part, small_table, small_model, schedule)
    s2 = start_session(small_part, small_table, small_model, schedule)
    out1 = np.stack([s1.push(row) for row in sample.velocity.values])
    out2 = np.stack([s2.push(row) for row in noisy])
    assert np.array_equal(out1[:fork], out2[:fork])
    assert not np.array_equal(out1[fork:], out2[fork:])
    # Lookups up to the fork saw identical data.
    assert s1.c_history[:3] == s2.c_history[:3]


def test_history_and_cost_accounting(small_part, small_table, small_model, schedule):
    sample = small_part.not_encoded_samples[0]
    session = start_session(small_part, small_table, small_model, schedule)
    for t in range(47):
        session.push(sample.velocity.values[t])
    assert session.stats["updates"] == 3  # instants 20, 30, 40
    assert len(session.c_history) == 4
    assert session.c_history[0] == 0.0
    # Every acquired sample is folded into the distances exactly once.
    n_members = len(small_part.not_encoded)
    assert session.stats["distance_ops"] == 40 * n_members * 3


def test_forced_coefficient_one_is_identity(small_part, small_table, small_model, schedule):
    sample = small_part.not_encoded_samples[4]
    res = replay(
        small_part, small_table, small_model, schedule, sample, force_coefficient=1.0
    )
    assert np.array_equal(res.v_a.values, res.v_h.values)
    assert res.terminal_gap == 0.0
    assert all(c == 1.0 for c in res.c_history[1:])


def test_emitted_signal_matches_profile_reconstruction(
    small_part, small_table, small_model, schedule
):
    sample = small_part.not_encoded_samples[7]
    res = replay(small_part, small_table, small_model, schedule, sample)
    v_r = small_part.encoded_signals[res.reference_index]
    prof = res.c_profile[:, None]
    expected = prof * res.v_h.values + (1.0 - prof) * v_r.values
    assert np.array_equal(res.v_a.values, expected)
    assert np.all(res.c_profile[: schedule.t0] == 1.0)


def test_forced_mixing_profile(small_part, small_table, small_model, schedule):
    sample = small_part.not_encoded_samples[2]
    res = replay(
        small_part, small_table, small_model, schedule, sample, force_coefficient=0.4
    )
    assert np.all(res.c_profile[schedule.t0 :] == 0.4)


def test_identification_can_switch_but_reference_stays(hand_setup, small_model):
    part, table = hand_setup
    schedule = OnlineSchedule()
    a = part.not_encoded_samples[0]
    b = part.not_encoded_samples[1]
    stream = np.vstack([a.velocity.values[:20], b.velocity.values[20:]])
    session = start_session(part, table, small_model, schedule)
    for row in stream:
        session.push(row)
    res = session.finish()
    assert res.eta_indices[0] == 0  # warm-up prefix says a
    assert res.eta_indices[-1] == 1  # suffix evidence says b
    assert res.reference_index == 0  # frozen at the first lookup
    assert res.approximate is True
    assert res.c_history[1] == table.coefficient(0, 0)
    assert res.c_history[-1] == table.coefficient(1, 0)


def test_finish_trims_altered_support(hand_setup, small_model):
    part, table = hand_setup
    stream = np.zeros((50, 3))
    stream[:11] = [90.0, 0.0, 0.0]
    session = start_session(part, table, small_model, OnlineSchedule(),
                            force_coefficient=1.0)
    for row in stream:
        session.push(row)
    res = session.finish(effective_length=50)
    assert res.v_h.effective_length == 50
    # Altered output keeps its own support, not the reference's window.
    assert res.v_a.effective_length == 11


def test_session_protocol_errors(small_part, small_table, small_model, schedule):
    session = start_session(small_part, small_table, small_model, schedule)
    with pytest.raises(ProtocolError):
        session.finish()  # nothing pushed yet
    session.push([1.0, 0.0, 0.0])
    with pytest.raises(ShapeMismatchError):
        session.push([1.0, 0.0])
    with pytest.raises(InvalidSignalError):
        session.push([np.nan, 0.0, 0.0])
    with pytest.raises(DomainError):
        session.finish(effective_length=0)
    session = start_session(small_part, small_table, small_model, schedule)
    for _ in range(4):  # classify needs enough rows for cubic resampling
        session.push([1.0, 0.0, 0.0])
    session.finish()
    with pytest.raises(ProtocolError):
        session.push([1.0, 0.0, 0.0])
    with pytest.raises(ProtocolError):
        session.finish()


def test_stream_longer_than_window_refused(
    small_part, small_table, small_model, schedule
):
    session = start_session(small_part, small_table, small_model, schedule)
    t_max = small_part.signal_config.t_max
    row = np.array([1.0, 0.0, 0.0])
    for _ in range(t_max):
        session.push(row)
    with pytest.raises(ProtocolError):
        session.push(row)


def test_start_session_guards(small_part, small_table, small_model, hand_setup):
    with pytest.raises(ConfigError):
        start_session(small_part, small_table, small_model, OnlineSchedule(t0=395))
    with pytest.raises(DomainError):
        start_session(
            small_part, small_table, small_model, force_coefficient=1.5
        )
    tampered = EncoderModel(net=small_model.net.copy())
    tampered.net.biases[-1][0] += 1.0
    with pytest.raises(StaleArtifactError):
        start_session(small_part, small_table, tampered)


def test_start_session_refuses_prefix_collision(small_table, small_model):
    cfg = SignalConfig(t_max=50)
    rows = np.tile([7.0, 0.0, 0.0], (50, 1))
    twin_rows = rows.copy()
    twin_rows[30] = [1.0, 2.0, 3.0]  # differs only after the warm-up
    ref_rows = np.tile([0.0, 9.0, 0.0], (50, 1))

    def member(sid, level, values):
        return LabeledSample(
            id=sid,
            velocity=MotionSignal(values, cfg),
            initial_position=np.zeros(3),
            encoding_level=level,
        )

    part = partition(
        [member("x", 0, rows), member("y", 0, twin_rows), member("r", 1, ref_rows)], 1
    )
    with pytest.raises(PrefixUniquenessError):
        start_session(part, small_table, small_model)
