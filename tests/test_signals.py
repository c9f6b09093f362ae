"""Signal algebra: construction, calculus, distances, prefixes.

Derived operations are checked against independent oracles (brute-force
search, hand-computed values) rather than against their own formulas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionblend.errors import DomainError, InvalidSignalError, ShapeMismatchError
from motionblend.signals import (
    MotionSignal,
    SignalConfig,
    SignalPrefix,
    differentiate,
    dist,
    integrate,
    project,
    terminal_instant,
)

CFG = SignalConfig(t_max=8, rho=3, dt=0.01, delta_vel=10.0)


def sig(rows, eff=None, cfg=CFG):
    full = np.zeros((cfg.t_max, cfg.rho))
    rows = np.asarray(rows, dtype=float)
    full[: len(rows)] = rows
    return MotionSignal(full, cfg, len(rows) if eff is None else eff)


def test_config_validation():
    with pytest.raises(DomainError):
        SignalConfig(t_max=1)
    with pytest.raises(DomainError):
        SignalConfig(t_max=10, rho=0)
    with pytest.raises(DomainError):
        SignalConfig(t_max=10, dt=0.0)
    with pytest.raises(DomainError):
        SignalConfig(t_max=10, delta_vel=-1.0)


def test_signal_shape_and_finiteness():
    with pytest.raises(InvalidSignalError):
        MotionSignal(np.zeros((8, 2)), CFG)
    with pytest.raises(InvalidSignalError):
        MotionSignal(np.zeros((5, 3)), CFG)  # length must equal t_max
    bad = np.zeros((8, 3))
    bad[3, 1] = np.nan
    with pytest.raises(InvalidSignalError):
        MotionSignal(bad, CFG)
    with pytest.raises(InvalidSignalError):
        MotionSignal(np.zeros((8, 3)), CFG, effective_length=0)
    with pytest.raises(InvalidSignalError):
        MotionSignal(np.zeros((8, 3)), CFG, effective_length=9)


def test_values_are_read_only():
    s = sig([[1, 2, 3]])
    with pytest.raises(ValueError):
        s.values[0, 0] = 5.0


def test_from_samples_pads_and_records_length():
    s = MotionSignal.from_samples([[1, 2, 3], [4, 5, 6]], CFG)
    assert s.effective_length == 2
    assert np.array_equal(s.values[:2], [[1, 2, 3], [4, 5, 6]])
    assert np.all(s.values[2:] == 0.0)
    with pytest.raises(InvalidSignalError):
        MotionSignal.from_samples(np.zeros((9, 3)), CFG)


def test_speeds_hand_value():
    s = sig([[3, 4, 0], [0, 0, 2]])
    assert s.speeds()[0] == 5.0
    assert s.speeds()[1] == 2.0


def test_differentiate_hand_value():
    # p = t * [1, 2, 3] mm at dt = 10 ms gives v = [100, 200, 300] mm/s.
    p = sig([[0, 0, 0], [1, 2, 3], [2, 4, 6]], eff=8)
    v = differentiate(p)
    assert np.allclose(v.values[0], [100, 200, 300])
    assert np.allclose(v.values[1], [100, 200, 300])
    # Last sample is held from its predecessor, never extrapolated.
    assert np.array_equal(v.values[-1], v.values[-2])
    assert v.effective_length == p.effective_length


def test_integrate_hand_value():
    v = sig([[100, 0, 0], [100, 0, 0], [0, 0, 0]], eff=8)
    p = integrate(v, [5.0, 5.0, 5.0])
    assert np.array_equal(p.values[0], [5, 5, 5])
    assert np.allclose(p.values[1], [6, 5, 5])
    assert np.allclose(p.values[2], [7, 5, 5])
    # Last velocity sample never contributes.
    assert np.allclose(p.values[3], p.values[2])


def test_integrate_input_checks():
    v = sig([[1, 1, 1]])
    with pytest.raises(ShapeMismatchError):
        integrate(v, [0.0, 0.0])
    with pytest.raises(InvalidSignalError):
        integrate(v, [np.inf, 0.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_roundtrip_reproduces_positions(seed):
    # Tolerance 1e-9 mm: six orders below sensor noise, three above the
    # float error the divide-then-multiply pair actually leaves behind.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, CFG.t_max + 1))
    p = sig(rng.normal(0.0, 300.0, (n, 3)), eff=n)
    back = integrate(differentiate(p), p.values[0])
    assert back.effective_length == n
    assert np.max(np.abs(back.values - p.values)) < 1e-9


def test_dist_hand_value():
    a = sig([[3, 4, 0]])
    b = sig([[0, 0, 0]])
    assert dist(a, b) == 5.0


def test_dist_covers_full_padded_length():
    # Two signals equal over min(eff) but one keeps moving: the padded
    # comparison must see the difference.
    a = sig([[1, 0, 0], [1, 0, 0]], eff=2)
    b = sig([[1, 0, 0], [1, 0, 0], [2, 0, 0]], eff=3)
    assert dist(a, b) == 2.0


def test_dist_shape_mismatch():
    other = SignalConfig(t_max=9, rho=3)
    with pytest.raises(ShapeMismatchError):
        dist(sig([[1, 2, 3]]), MotionSignal(np.zeros((9, 3)), other))
    p1 = SignalPrefix(np.zeros((3, 3)), CFG)
    p2 = SignalPrefix(np.zeros((4, 3)), CFG)
    with pytest.raises(ShapeMismatchError):
        dist(p1, p2)


def test_project_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(100):
        pool = [sig(rng.normal(0, 100, (CFG.t_max, 3)), eff=CFG.t_max) for _ in range(7)]
        query = sig(rng.normal(0, 100, (CFG.t_max, 3)), eff=CFG.t_max)
        idx, member = project(query, pool)
        oracle = min(range(len(pool)), key=lambda i: dist(query, pool[i]))
        assert idx == oracle
        assert member is pool[idx]


def test_project_breaks_ties_low():
    a = sig([[1, 1, 1]])
    twin = sig([[1, 1, 1]])
    far = sig([[9, 9, 9]])
    idx, member = project(sig([[1, 1, 1]]), [far, a, twin])
    assert idx == 1
    assert member is a


def test_project_empty_collection():
    with pytest.raises(DomainError):
        project(sig([[1, 1, 1]]), [])


def test_terminal_instant_cases():
    fast = [20.0, 0.0, 0.0]
    slow = [1.0, 0.0, 0.0]
    # Movement over samples 1..2, at rest from t = 3 on.
    t, ok = terminal_instant(sig([fast, fast, slow, slow], eff=8))
    assert (t, ok) == (3, True)
    # Never above threshold: at rest from the very first instant.
    assert terminal_instant(sig([slow, slow], eff=8)) == (1, True)
    # Still moving at the end: does not terminate.
    rows = [fast] * CFG.t_max
    assert terminal_instant(sig(rows)) == (CFG.t_max, False)


def test_terminal_instant_threshold_is_strict():
    # Speed exactly delta_vel counts as rest.
    at = [10.0, 0.0, 0.0]
    assert terminal_instant(sig([at, at], eff=8)) == (1, True)
