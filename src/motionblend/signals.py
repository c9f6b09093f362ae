"""Algebra of fixed-rate motion signals.

A signal is a (t_max, rho) float array sampled every dt seconds: positions
in mm or velocities in mm/s. Signals acquired with fewer than t_max samples
are zero padded at the tail and remember their true length, so every signal
in an experiment stays comparable sample by sample.

Time indices in this module are 1-based ({1, ..., t_max}), matching the
convention used for schedules and terminal instants; array storage is the
usual 0-based numpy layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import DomainError, InvalidSignalError, ShapeMismatchError


@dataclass(frozen=True)
class SignalConfig:
    """Sampling metadata shared by every signal of one experiment.

    Parameters
    ----------
    t_max : int
        Common signal length in samples, at least 2.
    rho : int
        Number of coordinates per sample (3 for a wrist trajectory).
    dt : float
        Sampling interval in seconds.
    delta_vel : float
        Speed threshold in mm/s below which the movement counts as stopped.
    """

    t_max: int
    rho: int = 3
    dt: float = 0.01
    delta_vel: float = 10.0

    def __post_init__(self):
        if int(self.t_max) != self.t_max or self.t_max < 2:
            raise DomainError(f"t_max must be an integer >= 2, got {self.t_max}")
        if int(self.rho) != self.rho or self.rho < 1:
            raise DomainError(f"rho must be a positive integer, got {self.rho}")
        if not (self.dt > 0):
            raise DomainError(f"dt must be positive, got {self.dt}")
        if not (self.delta_vel > 0):
            raise DomainError(f"delta_vel must be positive, got {self.delta_vel}")


def _coerce_values(values, rho: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1 and rho == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[1] != rho:
        raise InvalidSignalError(
            f"expected shape (n, {rho}), got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidSignalError("signal contains non-finite values")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MotionSignal:
    """A full-length signal: (t_max, rho) values plus its true length.

    ``effective_length`` counts the samples that were actually acquired;
    entries past it are zero padding. Values are read-only after
    construction.
    """

    values: np.ndarray
    config: SignalConfig
    effective_length: int = -1  # -1 means "full length"

    def __post_init__(self):
        arr = _coerce_values(self.values, self.config.rho)
        if arr.shape[0] != self.config.t_max:
            raise InvalidSignalError(
                f"signal has {arr.shape[0]} samples, config says {self.config.t_max}"
            )
        eff = self.effective_length
        if eff == -1:
            eff = self.config.t_max
        if int(eff) != eff or not (1 <= eff <= self.config.t_max):
            raise InvalidSignalError(
                f"effective_length {self.effective_length} outside [1, {self.config.t_max}]"
            )
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "effective_length", int(eff))

    @classmethod
    def from_samples(cls, samples, config: SignalConfig) -> "MotionSignal":
        """Zero pad acquired samples up to t_max and record their count."""
        arr = _coerce_values(samples, config.rho)
        n = arr.shape[0]
        if n < 1 or n > config.t_max:
            raise InvalidSignalError(
                f"got {n} samples for t_max={config.t_max}"
            )
        full = np.zeros((config.t_max, config.rho))
        full[:n] = arr
        return cls(full, config, n)

    def speeds(self) -> np.ndarray:
        """Euclidean norm of each sample, shape (t_max,)."""
        return np.linalg.norm(self.values, axis=1)


@dataclass(frozen=True, eq=False)
class SignalPrefix:
    """The first tau samples of a signal, tau implied by the array length."""

    values: np.ndarray
    config: SignalConfig

    def __post_init__(self):
        arr = _coerce_values(self.values, self.config.rho)
        if not (1 <= arr.shape[0] <= self.config.t_max):
            raise InvalidSignalError(
                f"prefix length {arr.shape[0]} outside [1, {self.config.t_max}]"
            )
        object.__setattr__(self, "values", arr)

    @property
    def tau(self) -> int:
        return self.values.shape[0]


Signal = Union[MotionSignal, SignalPrefix]


class TerminalInstant(NamedTuple):
    """Result of terminal_instant: the instant plus whether the signal
    actually comes to rest."""

    t: int
    terminates: bool


def _check_same_frame(x1: Signal, x2: Signal) -> None:
    if x1.values.shape != x2.values.shape:
        raise ShapeMismatchError(
            f"length/width mismatch: {x1.values.shape} vs {x2.values.shape}"
        )
    if isinstance(x1, MotionSignal) and isinstance(x2, MotionSignal):
        if x1.config != x2.config:
            raise ShapeMismatchError("signals come from different configs")
    elif x1.config.rho != x2.config.rho:
        raise ShapeMismatchError("prefix widths differ")


def differentiate(positions: MotionSignal) -> MotionSignal:
    """Forward-difference velocity of a position signal.

    v(t) = (p(t+1) - p(t)) / dt for t < t_max; the last sample is held so
    the velocity has the same length as the input.
    """
    p = positions.values
    dt = positions.config.dt
    v = np.empty_like(p)
    v[:-1] = (p[1:] - p[:-1]) / dt
    v[-1] = v[-2]
    return MotionSignal(v, positions.config, positions.effective_length)


def integrate(velocity: MotionSignal, initial_position) -> MotionSignal:
    """Cumulative Euler integration: p(1) = p0, p(t+1) = p(t) + dt * v(t).

    Inverse of :func:`differentiate` up to the held last sample, so
    integrate(differentiate(p), p.values[0]) reproduces p exactly.
    """
    p0 = np.asarray(initial_position, dtype=float).reshape(-1)
    if p0.shape != (velocity.config.rho,):
        raise ShapeMismatchError(
            f"initial position has shape {p0.shape}, expected ({velocity.config.rho},)"
        )
    if not np.all(np.isfinite(p0)):
        raise InvalidSignalError("initial position contains non-finite values")
    v = velocity.values
    dt = velocity.config.dt
    p = np.empty_like(v)
    p[0] = p0
    # p[t] = p0 + dt * sum of v[:t]; the last velocity sample is unused.
    np.cumsum(v[:-1] * dt, axis=0, out=p[1:])
    p[1:] += p0
    return MotionSignal(p, velocity.config, velocity.effective_length)


def gap_at(p_h: MotionSignal, p_a: MotionSignal, t: int) -> float:
    """Euclidean distance between two position signals at 1-based instant t."""
    return float(np.linalg.norm(p_h.values[t - 1] - p_a.values[t - 1]))


def support_length(values: np.ndarray, effective_length: int) -> int:
    """Samples up to the last nonzero one among the first effective_length.

    Trailing exact zeros do not count; an all-zero window keeps its length.
    """
    nonzero = np.nonzero(np.any(values[:effective_length] != 0.0, axis=1))[0]
    return int(nonzero[-1]) + 1 if nonzero.size else effective_length


def dist(x1: Signal, x2: Signal) -> float:
    """L2 distance between two signals of identical length.

    sqrt of the sum over samples of the squared Euclidean sample distance,
    computed over the full padded length so every pair is comparable.
    """
    _check_same_frame(x1, x2)
    return float(np.linalg.norm(x1.values - x2.values))


def project(x: Signal, collection: Sequence[Signal]):
    """Nearest member of a finite signal collection.

    Returns ``(index, member)`` minimizing :func:`dist`; ties resolve to the
    lowest index. The collection must be non-empty and of matching shape.
    """
    if len(collection) == 0:
        raise DomainError("cannot project onto an empty collection")
    for member in collection:
        _check_same_frame(x, member)
    stacked = np.stack([m.values for m in collection])
    sq = np.sum((stacked - x.values) ** 2, axis=(1, 2))
    idx = int(np.argmin(sq))  # argmin takes the first minimum
    return idx, collection[idx]


def nearest(x: Signal, stacked: np.ndarray, member: Signal) -> int:
    """:func:`project`'s index for a collection stacked into one array.

    ``stacked`` holds the members' values, shape (n, t_max, rho), and every
    member shares ``member``'s shape and config, so checking the query
    against ``member`` checks it against all of them. Same distance
    arithmetic and tie-break as :func:`project`.
    """
    _check_same_frame(x, member)
    sq = np.sum((stacked - x.values) ** 2, axis=(1, 2))
    return int(np.argmin(sq))


def terminal_instant(velocity: MotionSignal) -> TerminalInstant:
    """Earliest instant from which the movement stays at rest.

    Returns the smallest 1-based t such that every sample from t onward has
    speed <= delta_vel. A signal whose last sample is still above the
    threshold never comes to rest: the result is (t_max, False).
    """
    above = velocity.speeds() > velocity.config.delta_vel
    if above[-1]:
        return TerminalInstant(velocity.config.t_max, False)
    idx = np.nonzero(above)[0]
    if idx.size == 0:
        return TerminalInstant(1, True)
    return TerminalInstant(int(idx[-1]) + 2, True)
