"""Streaming alteration of a movement while it is being measured.

The controller passes the first t0 samples through untouched (nothing is
known about the movement yet), then identifies the nearest not-encoded
dataset signal from the growing prefix, freezes an encoded reference at t0,
and re-reads the blend coefficient from the table at every schedule
instant. A coefficient computed at instant T_i drives the emitted samples
on (T_i, T_i+1], so the output is strictly causal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blending import BlendTable, check_table_matches
from .classifier import Decision, EncoderModel, classify
from .dataset import PartitionedDataset, validate_prefix_uniqueness
from .errors import (
    ConfigError,
    DomainError,
    InvalidSignalError,
    PrefixUniquenessError,
    ProtocolError,
    ShapeMismatchError,
)
from .signals import MotionSignal, gap_at, integrate, support_length, terminal_instant


@dataclass(frozen=True)
class OnlineSchedule:
    """Warm-up length and update period, in samples."""

    t0: int = 20
    delta_t: int = 10

    def __post_init__(self):
        if int(self.t0) != self.t0 or self.t0 < 1:
            raise ConfigError(f"t0 must be a positive integer, got {self.t0}")
        if int(self.delta_t) != self.delta_t or self.delta_t < 2:
            raise ConfigError(f"delta_t must be an integer >= 2, got {self.delta_t}")

    def is_instant(self, t: int) -> bool:
        return t >= self.t0 and (t - self.t0) % self.delta_t == 0


@dataclass(frozen=True, eq=False)
class SessionResult:
    """Everything a finished session knows about what it emitted."""

    v_h: MotionSignal
    v_a: MotionSignal
    p_h: MotionSignal
    p_a: MotionSignal
    c_history: tuple
    c_profile: np.ndarray
    decision: Decision
    terminal_gap: float
    t_term: int
    terminates: bool
    reference_index: Optional[int]
    eta_indices: tuple
    approximate: bool


class OnlineSession:
    """One live alteration pass; create with :func:`start_session`."""

    def __init__(self, part, table, model, schedule, initial_position, force_coefficient):
        cfg = part.signal_config
        if schedule.t0 + schedule.delta_t > cfg.t_max:
            raise ConfigError(
                f"first update after warm-up lands at {schedule.t0 + schedule.delta_t}, "
                f"past t_max={cfg.t_max}"
            )
        collisions = validate_prefix_uniqueness(part, schedule.t0)
        if collisions:
            raise PrefixUniquenessError(
                f"{len(collisions)} not-encoded signal pairs share their first "
                f"{schedule.t0} samples: {collisions[:5]}",
                pairs=collisions,
            )
        check_table_matches(table, part, model)
        if force_coefficient is not None and not (0.0 <= force_coefficient <= 1.0):
            raise DomainError(f"forced coefficient {force_coefficient} outside [0, 1]")
        p0 = np.asarray(initial_position, dtype=float).reshape(-1)
        if p0.shape != (cfg.rho,):
            raise ShapeMismatchError(
                f"initial position has shape {p0.shape}, expected ({cfg.rho},)"
            )
        self.part = part
        self.table = table
        self.model = model
        self.schedule = schedule
        self.config = cfg
        self.initial_position = p0
        self.force_coefficient = force_coefficient
        self._ne_values = part.not_encoded_values
        self._v_h = np.zeros((cfg.t_max, cfg.rho))
        self._v_a = np.zeros((cfg.t_max, cfg.rho))
        self._c_profile = np.ones(cfg.t_max)
        self._t = 0
        self._sq_dists = np.zeros(self._ne_values.shape[0])
        self._scanned = 0  # samples already folded into _sq_dists
        self._c = None  # active coefficient; None means warm-up pass-through
        self.c_history = [0.0]
        self.eta_indices = []
        self.reference_index = None
        self._v_r = None
        self.approximate = False
        self.stats = {"distance_ops": 0, "updates": 0}
        self._finished = False

    @property
    def t(self) -> int:
        """Number of samples pushed so far."""
        return self._t

    def _update(self, t: int) -> None:
        # Fold the samples since the previous instant into the running
        # squared prefix distances; one pass over |D_ne| chunk slices.
        chunk = self._v_h[self._scanned : t]
        ne_chunk = self._ne_values[:, self._scanned : t, :]
        self._sq_dists += np.sum((ne_chunk - chunk) ** 2, axis=(1, 2))
        self.stats["distance_ops"] += int(ne_chunk.size)
        self._scanned = t
        eta_index = int(np.argmin(self._sq_dists))
        if self._sq_dists[eta_index] > 0.0:
            self.approximate = True
        self.eta_indices.append(eta_index)
        if self.reference_index is None:
            # First instant: freeze the encoded reference for the session.
            part = self.part
            eta = part.all[part.not_encoded[eta_index]].velocity
            self.reference_index = part.nearest_encoded(eta)
            self._v_r = part.all[part.encoded[self.reference_index]].velocity
        if self.force_coefficient is not None:
            c = float(self.force_coefficient)
        else:
            c = self.table.coefficient(eta_index, self.reference_index)
        self._c = c
        self.c_history.append(c)
        self.stats["updates"] += 1

    def push(self, sample) -> np.ndarray:
        """Feed one measured velocity sample, get the altered sample back."""
        if self._finished:
            raise ProtocolError("session already finished")
        if self._t >= self.config.t_max:
            raise ProtocolError(f"stream longer than t_max={self.config.t_max}")
        v_t = np.asarray(sample, dtype=float).reshape(-1)
        if v_t.shape != (self.config.rho,):
            raise ShapeMismatchError(
                f"sample has shape {v_t.shape}, expected ({self.config.rho},)"
            )
        if not np.all(np.isfinite(v_t)):
            raise InvalidSignalError("sample contains non-finite values")
        t = self._t + 1
        self._v_h[t - 1] = v_t
        if self._c is None:
            out = v_t.copy()
            self._c_profile[t - 1] = 1.0
        else:
            out = self._c * v_t + (1.0 - self._c) * self._v_r.values[t - 1]
            self._c_profile[t - 1] = self._c
        self._v_a[t - 1] = out
        self._t = t
        if self.schedule.is_instant(t):
            self._update(t)
        return out

    def finish(self, effective_length: Optional[int] = None) -> SessionResult:
        """Close the stream and summarize the session.

        ``effective_length`` overrides the acquired-sample count when the
        caller knows the movement's true extent (replays of stored signals).
        """
        if self._finished:
            raise ProtocolError("session already finished")
        if self._t < 1:
            raise ProtocolError("cannot finish before any sample was pushed")
        self._finished = True
        cfg = self.config
        eff_h = self._t if effective_length is None else int(effective_length)
        if not (1 <= eff_h <= cfg.t_max):
            raise DomainError(f"effective length {eff_h} outside [1, {cfg.t_max}]")
        v_h = MotionSignal(self._v_h, cfg, eff_h)
        eff_a = eff_h if self._v_r is None else max(eff_h, self._v_r.effective_length)
        # Same support semantics as blend(): trailing exact zeros do not count.
        v_a = MotionSignal(self._v_a, cfg, support_length(self._v_a, eff_a))
        p_h = integrate(v_h, self.initial_position)
        p_a = integrate(v_a, self.initial_position)
        term = terminal_instant(v_h)
        return SessionResult(
            v_h=v_h,
            v_a=v_a,
            p_h=p_h,
            p_a=p_a,
            c_history=tuple(self.c_history),
            c_profile=self._c_profile[: self._t].copy(),
            decision=classify(self.model, v_a),
            terminal_gap=gap_at(p_h, p_a, term.t),
            t_term=term.t,
            terminates=term.terminates,
            reference_index=self.reference_index,
            eta_indices=tuple(self.eta_indices),
            approximate=self.approximate,
        )


def start_session(
    part: PartitionedDataset,
    table: BlendTable,
    model: EncoderModel,
    schedule: OnlineSchedule = OnlineSchedule(),
    initial_position=None,
    force_coefficient: Optional[float] = None,
) -> OnlineSession:
    """Open a streaming session.

    Refuses to start when the warm-up prefix cannot identify every
    not-encoded signal (lists the colliding ids), when the schedule does
    not fit inside t_max, or when table and classifier do not match.
    """
    if initial_position is None:
        initial_position = np.zeros(part.signal_config.rho)
    return OnlineSession(part, table, model, schedule, initial_position, force_coefficient)


def replay(
    part: PartitionedDataset,
    table: BlendTable,
    model: EncoderModel,
    schedule: OnlineSchedule,
    sample,
    force_coefficient: Optional[float] = None,
) -> SessionResult:
    """Stream a stored sample through a fresh session, padding included."""
    session = start_session(
        part, table, model, schedule, sample.initial_position, force_coefficient
    )
    for row in sample.velocity.values:
        session.push(row)
    return session.finish(effective_length=sample.effective_length)
