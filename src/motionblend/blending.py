"""Blending an input movement with an already-encoded reference.

The altered velocity is a convex combination c * v_h + (1 - c) * v_r. For
every (not-encoded, encoded) pair the table records the largest grid
coefficient the classifier still accepts as encoded, found by scanning c
downward from 1; the offline solver then answers single queries by nearest-
neighbour lookup. Deviation from the input shrinks linearly as c grows, so
the recorded coefficient is the least-intrusive accepted blend per pair.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .classifier import (
    Decision,
    EncoderModel,
    _featurize_values,
    classify,
    forward,
    model_fingerprint,
)
from .dataset import PartitionedDataset
from .errors import (
    ConfigError,
    DatasetParseError,
    DomainError,
    ShapeMismatchError,
    StaleArtifactError,
)
from .nn import header_text, header_values
from .signals import MotionSignal, support_length

_TABLE_HEADER = "motionblend-table v1"
DEFAULT_GRID_COUNT = 51
# Encoded columns scored per broadcast in the table scan: a chunk's
# first-layer buffer (columns x grid points x hidden units) stays in cache.
_SCAN_CHUNK = 8


@dataclass(frozen=True, eq=False)
class BlendGrid:
    """Uniform coefficient grid over [0, 1], endpoints included."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ConfigError("grid needs at least the two endpoints")
        steps = np.diff(vals)
        if vals[0] != 0.0 or vals[-1] != 1.0 or np.any(steps <= 0):
            raise ConfigError("grid must ascend from 0 to 1")
        if not np.allclose(steps, steps[0], rtol=0.0, atol=1e-12):
            raise ConfigError("grid must be uniformly spaced")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def uniform(cls, count: int = DEFAULT_GRID_COUNT) -> "BlendGrid":
        if int(count) != count or count < 2:
            raise ConfigError(f"grid count must be an integer >= 2, got {count}")
        return cls(np.linspace(0.0, 1.0, int(count)))

    @property
    def count(self) -> int:
        return self.values.size

    @property
    def step(self) -> float:
        return float(self.values[1] - self.values[0])


def blend(v_h: MotionSignal, v_r: MotionSignal, c: float) -> MotionSignal:
    """c * v_h + (1 - c) * v_r with c in [0, 1].

    The result is effective over its actual support, so an endpoint blend
    keeps the surviving input's own length instead of inheriting the longer
    window of the pair.
    """
    if not (0.0 <= c <= 1.0):
        raise DomainError(f"blend coefficient {c} outside [0, 1]")
    if v_h.config != v_r.config:
        raise ShapeMismatchError("blend inputs come from different configs")
    values = c * v_h.values + (1.0 - c) * v_r.values
    eff = support_length(values, max(v_h.effective_length, v_r.effective_length))
    return MotionSignal(values, v_h.config, eff)


@dataclass(eq=False)
class BlendTable:
    """Dense pairwise solution table.

    ``entries[i, j]`` is the grid index of the recorded coefficient for
    not-encoded sample i against encoded sample j. The table remembers the
    classifier fingerprint and sample ids it was built from so stale
    combinations are refused instead of silently reused.
    """

    entries: np.ndarray
    grid: BlendGrid
    e_des: int
    classifier_fingerprint: str
    not_encoded_ids: tuple
    encoded_ids: tuple

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=np.int64)
        expected = (len(self.not_encoded_ids), len(self.encoded_ids))
        if ent.shape != expected:
            raise ConfigError(f"entries shape {ent.shape}, ids say {expected}")
        if ent.size and (ent.min() < 0 or ent.max() >= self.grid.count):
            raise ConfigError("table entry outside the grid")
        self.entries = ent
        self.not_encoded_ids = tuple(self.not_encoded_ids)
        self.encoded_ids = tuple(self.encoded_ids)

    def coefficient(self, i: int, j: int) -> float:
        return float(self.grid.values[self.entries[i, j]])


class _TableContext:
    """Per-process state for table building: model, encoded side, caches.

    The classifier's first layer is linear in the blend coefficient:
    features(c) = c * f_h + (1 - c) * f_r, so its pre-activations are
    z1(c) = (f_r W1 + b1) + c * (f_h W1 - f_r W1). Every featurized window
    is projected through W1 once, and a grid blend costs only the layers
    after the first.
    """

    def __init__(self, model, enc_values, enc_supports, grid_values, points):
        self.model = model
        self.enc_values = enc_values
        self.enc_supports = np.asarray(enc_supports, dtype=np.int64)
        self.grid_values = grid_values
        self.points = points
        self.enc_projection_cache = {}
        # c = 1 is scored on the query's own window, so the broadcast covers
        # the other grid points only.
        self._z1 = np.empty((_SCAN_CHUNK, grid_values.size - 1, model.net.dims[1]))

    def encoded_projection(self, j: int, length: int) -> np.ndarray:
        key = (j, length)
        proj = self.enc_projection_cache.get(key)
        if proj is None:
            feats = _featurize_values(self.enc_values[j][:length], self.points)
            proj = feats @ self.model.net.weights[0]
            self.enc_projection_cache[key] = proj
        return proj

    def scan_row(self, ne_values: np.ndarray, ne_eff: int) -> np.ndarray:
        """Largest accepted coefficient against every encoded sample.

        A pair's features come from the window max(sup_h, sup_j), so both
        sides are featurized over it and the blend is taken in feature
        space. The c = 1 endpoint keeps the query's own window, so its score
        is evaluated separately; the other grid points are scored a few
        columns at a time into one preallocated buffer. The recorded entry
        is the largest grid index whose score clears the upper threshold, 0
        if none.
        """
        net = self.model.net
        sup_h = support_length(ne_values, ne_eff)
        f_own = _featurize_values(ne_values[:sup_h], self.points)
        own_score = float(forward(self.model, f_own))
        lengths = np.maximum(sup_h, self.enc_supports)
        windows, which = np.unique(lengths, return_inverse=True)
        p_h = np.stack([
            (f_own if n == sup_h else _featurize_values(ne_values[:n], self.points))
            @ net.weights[0]
            for n in windows
        ])[which]
        p_r = np.stack(
            [self.encoded_projection(j, int(n)) for j, n in enumerate(lengths)]
        )
        base = p_r + net.biases[0]
        slope = p_h - p_r
        c = self.grid_values[:-1, None]
        n_enc = lengths.size
        scores = np.empty((n_enc, self.grid_values.size))
        scores[:, -1] = own_score
        for start in range(0, n_enc, _SCAN_CHUNK):
            stop = min(start + _SCAN_CHUNK, n_enc)
            z1 = self._z1[: stop - start]
            np.multiply(c, slope[start:stop, None, :], out=z1)
            z1 += base[start:stop, None, :]
            scores[start:stop, :-1] = net.forward_from_first_layer(z1)[..., 0]
        accepted = scores > self.model.upper_threshold
        last = accepted.shape[1] - 1 - np.argmax(accepted[:, ::-1], axis=1)
        return np.where(accepted.any(axis=1), last, 0).astype(np.int64)


_WORKER_CTX = None


def _init_worker(model, enc_values, enc_effs, grid_values, points):
    global _WORKER_CTX
    _WORKER_CTX = _TableContext(model, enc_values, enc_effs, grid_values, points)


def _worker_row(args):
    ne_values, ne_eff = args
    return _WORKER_CTX.scan_row(ne_values, ne_eff)


def compute_table(
    part: PartitionedDataset,
    grid: BlendGrid,
    model: EncoderModel,
    workers: int = 1,
) -> BlendTable:
    """Build the full pairwise table for a partition.

    Rows are independent, so ``workers > 1`` distributes them over
    processes; the result is identical either way.
    """
    enc_values = [s.velocity.values for s in part.encoded_samples]
    enc_supports = [
        support_length(s.velocity.values, s.effective_length)
        for s in part.encoded_samples
    ]
    ne = [(s.velocity.values, s.effective_length) for s in part.not_encoded_samples]
    init_args = (model, enc_values, enc_supports, grid.values, model.points_per_axis)
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=init_args
        ) as pool:
            rows = list(pool.map(_worker_row, ne, chunksize=8))
    else:
        ctx = _TableContext(*init_args)
        rows = [ctx.scan_row(values, eff) for values, eff in ne]
    return BlendTable(
        entries=np.stack(rows),
        grid=grid,
        e_des=part.e_des,
        classifier_fingerprint=model_fingerprint(model),
        not_encoded_ids=part.not_encoded_ids,
        encoded_ids=part.encoded_ids,
    )


def check_table_matches(table: BlendTable, part: PartitionedDataset, model: EncoderModel):
    """Refuse stale artifacts: table must bind this exact model and partition."""
    if table.classifier_fingerprint != model_fingerprint(model):
        raise StaleArtifactError(
            "table was built against a different classifier "
            f"({table.classifier_fingerprint[:12]}... in table)"
        )
    if (
        table.e_des != part.e_des
        or table.not_encoded_ids != part.not_encoded_ids
        or table.encoded_ids != part.encoded_ids
    ):
        raise StaleArtifactError("table was built against a different partition")


@dataclass(frozen=True, eq=False)
class OfflineSolution:
    """Result of one offline query."""

    c_hat: float
    c_index: int
    eta_index: int
    reference_index: int
    v_r: MotionSignal
    v_a: MotionSignal
    decision: Decision


def solve_offline(
    v_h: MotionSignal,
    part: PartitionedDataset,
    table: BlendTable,
    model: EncoderModel,
) -> OfflineSolution:
    """Alter one full signal by table lookup.

    The query is resolved through its nearest not-encoded neighbour (row)
    and nearest encoded reference (column); the blend at the stored
    coefficient is returned together with the classifier's verdict on it.
    """
    check_table_matches(table, part, model)
    eta_index = part.nearest_not_encoded(v_h)
    reference_index = part.nearest_encoded(v_h)
    v_r = part.all[part.encoded[reference_index]].velocity
    c_index = int(table.entries[eta_index, reference_index])
    c_hat = float(table.grid.values[c_index])
    v_a = blend(v_h, v_r, c_hat)
    return OfflineSolution(
        c_hat=c_hat,
        c_index=c_index,
        eta_index=eta_index,
        reference_index=reference_index,
        v_r=v_r,
        v_a=v_a,
        decision=classify(model, v_a),
    )


def serialize_table(table: BlendTable) -> str:
    lines = [
        _TABLE_HEADER,
        f"e_des {table.e_des}",
        f"grid {table.grid.count}",
        f"classifier {table.classifier_fingerprint}",
        "not_encoded_ids " + ",".join(table.not_encoded_ids),
        "encoded_ids " + ",".join(table.encoded_ids),
    ]
    for row in table.entries:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def save_table(path, table: BlendTable) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_table(table))


def load_table(path) -> BlendTable:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _TABLE_HEADER:
        raise DatasetParseError(f"line 1: expected {_TABLE_HEADER!r}")
    (e_des,) = header_values(lines, 2, "e_des", int, count=1)
    (count,) = header_values(lines, 3, "grid", int, count=1)
    if count < 2:
        raise DatasetParseError(f"line 3: grid count must be >= 2, got {count}")
    (fingerprint,) = header_values(lines, 4, "classifier", str, count=1)
    ne_ids = tuple(header_text(lines, 5, "not_encoded_ids").split(","))
    e_ids = tuple(header_text(lines, 6, "encoded_ids").split(","))
    body = lines[6:]
    if len(body) != len(ne_ids):
        raise DatasetParseError(
            f"expected {len(ne_ids)} table rows, found {len(body)}"
        )
    rows = []
    for lineno, line in enumerate(body, start=7):
        try:
            row = [int(x) for x in line.split()]
        except ValueError as exc:
            raise DatasetParseError(f"line {lineno}: bad table row: {exc}") from exc
        if len(row) != len(e_ids):
            raise DatasetParseError(
                f"line {lineno}: expected {len(e_ids)} entries, found {len(row)}"
            )
        if not (0 <= min(row) and max(row) < count):
            raise DatasetParseError(
                f"line {lineno}: table entry outside the {count}-point grid"
            )
        rows.append(row)
    return BlendTable(
        entries=np.array(rows),
        grid=BlendGrid.uniform(count),
        e_des=e_des,
        classifier_fingerprint=fingerprint,
        not_encoded_ids=ne_ids,
        encoded_ids=e_ids,
    )


def table_to_csv(table: BlendTable) -> str:
    """Coefficient matrix as CSV, one row per not-encoded sample."""
    header = "not_encoded_id," + ",".join(table.encoded_ids)
    lines = [header]
    for i, ne_id in enumerate(table.not_encoded_ids):
        coeffs = (repr(table.coefficient(i, j)) for j in range(len(table.encoded_ids)))
        lines.append(ne_id + "," + ",".join(coeffs))
    return "\n".join(lines) + "\n"


def table_fingerprint(table: BlendTable) -> str:
    return hashlib.sha256(serialize_table(table).encode()).hexdigest()
