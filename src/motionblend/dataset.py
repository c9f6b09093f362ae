"""Labeled velocity datasets: synthesis, partitioning, and file I/O.

The synthetic generator replaces a motion-capture session. It draws
minimum-jerk point-to-point reaches at 100 Hz; the class that carries the
target encoding ("fearful" movements) is slower, stretched in time, and
interrupted by hesitation submovements, which is enough structure for a
small network to separate the classes without making them trivially
disjoint.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DatasetParseError,
    DomainError,
    TrivialPartitionError,
)
from .signals import MotionSignal, Signal, SignalConfig, nearest

_HEADER_PREFIX = "# motionblend-data v1"


@dataclass(frozen=True, eq=False)
class LabeledSample:
    """One recorded movement: velocity signal, start point, class label."""

    id: str
    velocity: MotionSignal
    initial_position: np.ndarray
    encoding_level: int

    def __post_init__(self):
        pos = np.asarray(self.initial_position, dtype=float).reshape(-1)
        if pos.shape != (self.velocity.config.rho,):
            raise ConfigError(
                f"sample {self.id}: initial position has {pos.shape[0]} coords, "
                f"signal has {self.velocity.config.rho}"
            )
        if not np.all(np.isfinite(pos)):
            raise ConfigError(f"sample {self.id}: non-finite initial position")
        if self.encoding_level not in (0, 1):
            raise ConfigError(
                f"sample {self.id}: encoding level must be 0 or 1, "
                f"got {self.encoding_level}"
            )
        pos = pos.copy()
        pos.setflags(write=False)
        object.__setattr__(self, "initial_position", pos)

    @property
    def effective_length(self) -> int:
        return self.velocity.effective_length


@dataclass(frozen=True, eq=False)
class PartitionedDataset:
    """A dataset split against a desired encoding level.

    ``encoded`` indexes the samples whose level already equals ``e_des``
    (the reference pool); ``not_encoded`` indexes the rest (the signals a
    session would alter). Both sides are non-empty by construction.

    Samples and their signals are immutable, so the per-side id tuples,
    stacked velocity arrays and prefix collisions are computed on first use
    and kept.
    """

    all: tuple
    encoded: tuple
    not_encoded: tuple
    e_des: int
    # validate_prefix_uniqueness results by t0.
    _prefix_collisions: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def signal_config(self) -> SignalConfig:
        return self.all[0].velocity.config

    @property
    def encoded_samples(self) -> list:
        return [self.all[i] for i in self.encoded]

    @property
    def not_encoded_samples(self) -> list:
        return [self.all[i] for i in self.not_encoded]

    @property
    def encoded_signals(self) -> list:
        return [self.all[i].velocity for i in self.encoded]

    @property
    def not_encoded_signals(self) -> list:
        return [self.all[i].velocity for i in self.not_encoded]

    @functools.cached_property
    def encoded_ids(self) -> tuple:
        return tuple(self.all[i].id for i in self.encoded)

    @functools.cached_property
    def not_encoded_ids(self) -> tuple:
        return tuple(self.all[i].id for i in self.not_encoded)

    @functools.cached_property
    def encoded_values(self) -> np.ndarray:
        """Read-only (len(encoded), t_max, rho) stack of encoded velocities."""
        return _stack_read_only(self.encoded_signals)

    @functools.cached_property
    def not_encoded_values(self) -> np.ndarray:
        """Read-only (len(not_encoded), t_max, rho) stack of not-encoded
        velocities."""
        return _stack_read_only(self.not_encoded_signals)

    def nearest_encoded(self, x: Signal) -> int:
        """Index of the encoded signal :func:`signals.project` would pick."""
        return nearest(x, self.encoded_values, self.all[self.encoded[0]].velocity)

    def nearest_not_encoded(self, x: Signal) -> int:
        """Index of the not-encoded signal :func:`signals.project` would pick."""
        return nearest(
            x, self.not_encoded_values, self.all[self.not_encoded[0]].velocity
        )


def _stack_read_only(signals: list) -> np.ndarray:
    stacked = np.stack([v.values for v in signals])
    stacked.setflags(write=False)
    return stacked


def partition(samples: Sequence[LabeledSample], e_des: int) -> PartitionedDataset:
    """Split samples into the side carrying e_des and its complement.

    Raises TrivialPartitionError when either side would be empty, and
    ConfigError for duplicate ids or mixed signal configs.
    """
    if e_des not in (0, 1):
        raise ConfigError(f"e_des must be 0 or 1, got {e_des}")
    if not samples:
        raise TrivialPartitionError("cannot partition an empty dataset")
    seen = set()
    cfg = samples[0].velocity.config
    for s in samples:
        if s.id in seen:
            raise ConfigError(f"duplicate sample id {s.id!r}")
        seen.add(s.id)
        if s.velocity.config != cfg:
            raise ConfigError(f"sample {s.id} uses a different signal config")
    enc = tuple(i for i, s in enumerate(samples) if s.encoding_level == e_des)
    not_enc = tuple(i for i, s in enumerate(samples) if s.encoding_level != e_des)
    if not enc or not not_enc:
        raise TrivialPartitionError(
            f"partition against e_des={e_des} leaves one side empty "
            f"({len(enc)} encoded, {len(not_enc)} not encoded)"
        )
    return PartitionedDataset(tuple(samples), enc, not_enc, e_des)


def validate_prefix_uniqueness(part: PartitionedDataset, t0: int) -> list:
    """Check that not-encoded signals are identifiable from their warm-up.

    Returns the list of (id, id) pairs whose first t0 velocity samples
    coincide after quantization to 1e-6 mm/s; an empty list means the
    streaming controller can tell every signal apart by instant t0. The
    scan runs once per partition and t0; every call gets a fresh list.
    """
    cfg = part.signal_config
    if int(t0) != t0 or not (1 <= t0 <= cfg.t_max):
        raise ConfigError(f"t0 {t0} outside [1, {cfg.t_max}]")
    cached = part._prefix_collisions.get(int(t0))
    if cached is None:
        buckets: dict = {}
        collisions = []
        for s in part.not_encoded_samples:
            prefix = s.velocity.values[: int(t0)]
            key = np.round(prefix / 1e-6).astype(np.int64).tobytes()
            if key in buckets:
                collisions.append((buckets[key], s.id))
            else:
                buckets[key] = s.id
        cached = part._prefix_collisions[int(t0)] = tuple(collisions)
    return list(cached)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic reach generator.

    Durations are seconds, amplitudes and positions mm, speeds mm/s.
    ``duration_scale`` and ``peak_scale`` stretch and slow the encoded
    class; hesitations multiply transient dips into its speed profile.
    """

    n_encoded: int = 197
    n_not_encoded: int = 261
    duration_range: tuple = (0.95, 1.05)
    amplitude_range: tuple = (170.0, 280.0)
    peak_scale: float = 0.7
    duration_scale: float = 1.3
    hesitation_count: tuple = (1, 2)
    hesitation_depth: float = 0.3
    # Disjoint center windows near the speed peak so a dip carves a visible
    # valley instead of a shoulder on the rising flank, and two dips never
    # merge; widths stay resolvable after resampling to 20 points per axis.
    hesitation_centers: tuple = ((0.44, 0.50), (0.58, 0.64))
    hesitation_width: tuple = (0.06, 0.09)
    # Both classes carry submovement ripples; the encoding cue is dip depth,
    # not dip presence, so class mixtures degrade gradually rather than at a
    # cliff once the deep dip is diluted.
    ripple_depth: tuple = (0.03, 0.10)
    jitter_std: float = 2.0
    # Recordings start before the movement cue; the quiet lead-in covers an
    # online controller's warm-up window, so pass-through emission during
    # warm-up coincides with rest rather than with movement onset.
    lead_in: float = 0.2
    start_span: float = 30.0
    seed: int = 0
    t_max: int = 400
    rho: int = 3
    dt: float = 0.01
    delta_vel: float = 10.0

    def signal_config(self) -> SignalConfig:
        return SignalConfig(
            t_max=self.t_max, rho=self.rho, dt=self.dt, delta_vel=self.delta_vel
        )


PRESETS = {
    "paper-scale": SynthConfig(),
    "small": SynthConfig(n_encoded=16, n_not_encoded=24),
}


def _reach_profile(tau: np.ndarray, amplitude: float, duration: float) -> np.ndarray:
    # Minimum-jerk speed: peak 1.875 * A / D at tau = 0.5.
    return (30.0 * amplitude / duration) * tau**2 * (1.0 - tau) ** 2


def _draw_direction(rng: np.random.Generator) -> np.ndarray:
    # Forward-ish reach cone; wider cones add per-axis nuisance variance
    # that the fixed-size training split cannot cover.
    azimuth = rng.uniform(-0.35, 0.35)
    elevation = rng.uniform(-0.15, 0.35)
    return np.array(
        [
            np.cos(elevation) * np.cos(azimuth),
            np.cos(elevation) * np.sin(azimuth),
            np.sin(elevation),
        ]
    )


def generate_synthetic(cfg: SynthConfig) -> list:
    """Draw a labeled dataset of synthetic reaches, deterministic in seed."""
    if cfg.rho != 3:
        raise ConfigError("the reach generator produces 3-coordinate signals")
    if cfg.n_encoded < 1 or cfg.n_not_encoded < 1:
        raise ConfigError("both classes need at least one sample")
    lo, hi = cfg.duration_range
    if not (0 < lo <= hi):
        raise ConfigError(f"bad duration range {cfg.duration_range}")
    sig_cfg = cfg.signal_config()
    lead = int(round(cfg.lead_in / cfg.dt))
    worst_move = int(round(hi * cfg.duration_scale / cfg.dt)) + 1
    if lead + worst_move > cfg.t_max:
        raise ConfigError(
            f"longest possible movement ({lead + worst_move} samples) exceeds "
            f"t_max={cfg.t_max}"
        )
    rng = np.random.default_rng(cfg.seed)
    samples = []
    for label, count, tag in (
        (0, cfg.n_not_encoded, "n"),
        (1, cfg.n_encoded, "f"),
    ):
        for k in range(count):
            start = rng.uniform(-cfg.start_span, cfg.start_span, 3)
            direction = _draw_direction(rng)
            amplitude = rng.uniform(*cfg.amplitude_range)
            duration = rng.uniform(lo, hi)
            if label == 1:
                duration *= cfg.duration_scale
            n_move = int(round(duration / cfg.dt))
            tau = np.arange(n_move + 1) / n_move
            speed = _reach_profile(tau, amplitude, duration)
            if label == 1:
                speed = speed * cfg.peak_scale
            n_dips = rng.integers(cfg.hesitation_count[0], cfg.hesitation_count[1] + 1)
            windows = list(cfg.hesitation_centers)
            if n_dips < len(windows):
                windows = [windows[rng.integers(len(windows))]]
            for window in windows[:n_dips]:
                center = rng.uniform(*window)
                width = rng.uniform(*cfg.hesitation_width)
                if label == 1:
                    depth = cfg.hesitation_depth
                else:
                    depth = rng.uniform(*cfg.ripple_depth)
                speed = speed * (
                    1.0 - depth * np.exp(-((tau - center) ** 2) / (2 * width**2))
                )
            # Every take is recorded for the full window. Equal-length
            # recordings keep the resampling window and the padded L2
            # distance length-neutral, so nearest-reference search picks by
            # shape instead of favoring short members. The first frame is
            # the zero reference of the capture and carries no noise.
            v = np.zeros((cfg.t_max, 3))
            v[lead : lead + n_move + 1] = np.outer(speed, direction)
            v[1:] += rng.normal(0.0, cfg.jitter_std, (cfg.t_max - 1, 3))
            samples.append(
                LabeledSample(
                    id=f"{tag}{k:04d}",
                    velocity=MotionSignal.from_samples(v, sig_cfg),
                    initial_position=start,
                    encoding_level=label,
                )
            )
    return samples


def _format_float(x: float) -> str:
    # repr round-trips float64 exactly through decimal text.
    return repr(float(x))


def serialize(samples: Sequence[LabeledSample]) -> str:
    """Render samples in the line-per-record text format used on disk."""
    if not samples:
        return ""
    cfg = samples[0].velocity.config
    lines = [
        f"{_HEADER_PREFIX} rho={cfg.rho} t_max={cfg.t_max} "
        f"delta_vel={_format_float(cfg.delta_vel)}"
    ]
    for s in samples:
        if s.velocity.config != cfg:
            raise ConfigError(f"sample {s.id} uses a different signal config")
        if "," in s.id or "\n" in s.id:
            raise ConfigError(f"sample id {s.id!r} contains a separator")
        eff = s.velocity.effective_length
        fields = [s.id, str(s.encoding_level), _format_float(s.velocity.config.dt)]
        # tolist() yields Python floats, whose repr is _format_float's text.
        fields += map(repr, s.initial_position.tolist())
        fields += map(repr, s.velocity.values[:eff].ravel().tolist())
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def save(path, samples: Sequence[LabeledSample]) -> None:
    with open(path, "w") as fh:
        fh.write(serialize(samples))


def _parse_header(line: str):
    try:
        body = line[len(_HEADER_PREFIX):].split()
        kv = dict(item.split("=", 1) for item in body)
        rho, t_max, delta_vel = int(kv["rho"]), int(kv["t_max"]), float(kv["delta_vel"])
        SignalConfig(t_max=t_max, rho=rho, delta_vel=delta_vel)
        return rho, t_max, delta_vel
    except (KeyError, ValueError, DomainError) as exc:
        raise DatasetParseError(f"line 1: bad header: {exc}") from exc


def load(path) -> list:
    """Read a dataset file back into labeled samples.

    An empty file is an empty dataset. Malformed lines raise
    DatasetParseError naming the line and field.
    """
    with open(path) as fh:
        raw = fh.read()
    if not raw.strip():
        return []
    lines = raw.splitlines()
    if not lines[0].startswith(_HEADER_PREFIX):
        raise DatasetParseError("line 1: missing dataset header")
    rho, t_max, delta_vel = _parse_header(lines[0])
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) < 3 + rho:
            raise DatasetParseError(
                f"line {lineno}: expected at least {3 + rho} fields, got {len(fields)}"
            )
        sid = fields[0]
        try:
            level = int(fields[1])
        except ValueError:
            level = None
        if level not in (0, 1):
            raise DatasetParseError(f"line {lineno}: field 2: bad label {fields[1]!r}")
        try:
            dt = float(fields[2])
        except ValueError:
            raise DatasetParseError(f"line {lineno}: field 3: bad dt {fields[2]!r}")
        try:
            numbers = np.array(list(map(float, fields[3:])))
        except ValueError as exc:
            raise DatasetParseError(f"line {lineno}: bad numeric field: {exc}")
        if not (np.isfinite(dt) and np.all(np.isfinite(numbers))):
            raise DatasetParseError(f"line {lineno}: non-finite numeric field")
        if not dt > 0:
            raise DatasetParseError(f"line {lineno}: field 3: dt must be positive, got {dt!r}")
        if (numbers.size - rho) % rho != 0 or numbers.size <= rho:
            raise DatasetParseError(
                f"line {lineno}: {numbers.size - rho} velocity values is not a "
                f"whole number of {rho}-coordinate samples"
            )
        if numbers.size - rho > rho * t_max:
            raise DatasetParseError(
                f"line {lineno}: {(numbers.size - rho) // rho} velocity samples, "
                f"more than t_max={t_max}"
            )
        cfg = SignalConfig(t_max=t_max, rho=rho, dt=dt, delta_vel=delta_vel)
        velocity = MotionSignal.from_samples(numbers[rho:].reshape(-1, rho), cfg)
        samples.append(
            LabeledSample(
                id=sid,
                velocity=velocity,
                initial_position=numbers[:rho],
                encoding_level=level,
            )
        )
    return samples


def dataset_fingerprint(samples: Sequence[LabeledSample]) -> str:
    """sha256 of the canonical serialization; identifies a dataset exactly."""
    return hashlib.sha256(serialize(samples).encode()).hexdigest()
