"""Movement-encoding classifier.

A velocity signal is resampled to a fixed number of points per axis (cubic
interpolation over its effective length) and pushed through a small
sigmoid-headed network. The raw score is clipped three ways: confident
scores become Encoded / NotEncoded, everything in between stays
Unclassified so downstream search treats it as a failure rather than a
weak success.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from .dataset import PartitionedDataset, partition
from .errors import ConfigError, DatasetParseError, FeatureError, TrainingError
from .nn import (
    Adam,
    Mlp,
    bce_gradients,
    bce_loss,
    header_values,
    params_from_lines,
    params_to_lines,
)
from .signals import MotionSignal, Signal, SignalPrefix

POINTS_PER_AXIS = 20
LOWER_THRESHOLD = 0.1
UPPER_THRESHOLD = 0.9
HIDDEN_UNITS = 200

_MODEL_HEADER = "motionblend-encoder v1"


class Verdict(enum.Enum):
    ENCODED = "encoded"
    NOT_ENCODED = "not_encoded"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class Decision:
    """Clipped classifier output: the verdict plus the raw sigmoid score."""

    verdict: Verdict
    raw_score: float


def _featurize_values(values: np.ndarray, points: int) -> np.ndarray:
    n = values.shape[0]
    if n < 4:
        raise FeatureError(
            f"need at least 4 samples for cubic resampling, got {n}"
        )
    knots = np.arange(n, dtype=float)
    grid = np.linspace(0.0, float(n - 1), points)
    # One spline over all axes solves the banded system with one right-hand
    # side per axis; every column equals its per-axis spline bit for bit.
    return CubicSpline(knots, values, axis=0)(grid).T.ravel()


def featurize(v: Signal, points: int = POINTS_PER_AXIS) -> np.ndarray:
    """Resample a signal onto a fixed grid, one block of points per axis.

    Full signals are cut to their effective length first so padding never
    leaks into the features; prefixes use every sample they carry.
    """
    if isinstance(v, MotionSignal):
        values = v.values[: v.effective_length]
    else:
        values = v.values
    return _featurize_values(values, points)


def decide(raw_score: float, lower: float, upper: float) -> Verdict:
    if raw_score > upper:
        return Verdict.ENCODED
    if raw_score < lower:
        return Verdict.NOT_ENCODED
    return Verdict.UNCLASSIFIED


@dataclass(eq=False)
class EncoderModel:
    """Trained classifier: network weights plus the clipping thresholds."""

    net: Mlp
    lower_threshold: float = LOWER_THRESHOLD
    upper_threshold: float = UPPER_THRESHOLD
    points_per_axis: int = POINTS_PER_AXIS
    dataset_fingerprint: str = "-"

    def __post_init__(self):
        if not (0.0 <= self.lower_threshold < self.upper_threshold <= 1.0):
            raise ConfigError(
                f"thresholds must satisfy 0 <= lower < upper <= 1, got "
                f"{self.lower_threshold} and {self.upper_threshold}"
            )
        if self.net.output != "sigmoid":
            raise ConfigError("encoder network needs a sigmoid head")


def forward(model: EncoderModel, features: np.ndarray):
    """Raw score(s) for one feature vector or a (n, d) batch."""
    feats = np.asarray(features, dtype=float)
    d = model.net.dims[0]
    if feats.shape[-1] != d:
        raise ConfigError(
            f"feature width {feats.shape[-1]} does not match model input {d}"
        )
    out = model.net.forward(feats)
    if feats.ndim == 1:
        return float(out[0])
    return out[:, 0]


def classify(model: EncoderModel, v: Signal) -> Decision:
    """Featurize, score, clip."""
    score = forward(model, featurize(v, model.points_per_axis))
    return Decision(decide(score, model.lower_threshold, model.upper_threshold), score)


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; defaults are the production settings."""

    learning_rate: float = 0.001
    dropout_rate: float = 0.5
    epochs: int = 300
    batch_size: int = 32
    seed: int = 0
    splits: int = 5
    train_fraction: float = 0.7
    patience: int = 30

    def __post_init__(self):
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout rate {self.dropout_rate} outside [0, 1)")
        if self.epochs < 0 or self.batch_size < 1 or self.splits < 1:
            raise ConfigError("epochs, batch_size, and splits must be positive")
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError(f"train fraction {self.train_fraction} outside (0, 1)")


@dataclass
class TrainingCurves:
    """Per-epoch traces; val columns are NaN when no validation set is given."""

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    train_acc: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)

    def __len__(self):
        return len(self.train_loss)


def curves_to_csv(curves: TrainingCurves) -> str:
    lines = ["epoch,train_loss,val_loss,train_acc,val_acc"]
    for i in range(len(curves)):
        lines.append(
            f"{i + 1},{curves.train_loss[i]!r},{curves.val_loss[i]!r},"
            f"{curves.train_acc[i]!r},{curves.val_acc[i]!r}"
        )
    return "\n".join(lines) + "\n"


def _features_and_labels(part: PartitionedDataset, points: int):
    feats = np.stack([featurize(s.velocity, points) for s in part.all])
    labels = np.array([s.encoding_level for s in part.all], dtype=float)
    return feats, labels


def _fold_standardization(net: Mlp, mu: np.ndarray, sd: np.ndarray) -> None:
    # x @ (W/sd) + (b - (mu/sd) @ W) equals ((x - mu)/sd) @ W + b, so the
    # returned model works on raw features.
    w0 = net.weights[0]
    net.biases[0] = net.biases[0] - (mu / sd) @ w0
    net.weights[0] = w0 / sd[:, None]


def train(
    part: PartitionedDataset,
    cfg: TrainConfig,
    val_part: Optional[PartitionedDataset] = None,
):
    """Train the encoder on one dataset split.

    Features are standardized with training-set statistics during the
    optimization and the affine map is folded back into the first layer, so
    the returned model consumes raw features. With a validation split the
    epoch loop stops once val loss has not improved for ``patience`` epochs;
    the network keeps the weights it stopped with, which carry more of the
    confidence the clipped decision layer needs than the argmin epoch does.
    """
    x, y = _features_and_labels(part, POINTS_PER_AXIS)
    val = None if val_part is None else _features_and_labels(val_part, POINTS_PER_AXIS)
    return _train_on_features(x, y, cfg, val)


def _train_on_features(x: np.ndarray, y: np.ndarray, cfg: TrainConfig, val=None):
    """train() on featurized rows; ``val`` is an optional (xv, yv) pair."""
    mu = x.mean(axis=0)
    sd = np.maximum(x.std(axis=0), 1e-6)
    xs = (x - mu) / sd
    if val is not None:
        xv, yv = val
        xvs = (xv - mu) / sd
    rng = np.random.default_rng(cfg.seed)
    net = Mlp([x.shape[1], HIDDEN_UNITS, 1], output="sigmoid", rng=rng)
    optimizer = Adam(net, lr=cfg.learning_rate)
    curves = TrainingCurves()
    best_loss = math.inf
    since_best = 0
    n = xs.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, gw, gb = bce_gradients(
                net, xs[idx], y[idx], dropout_rate=cfg.dropout_rate, rng=rng
            )
            if not math.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch + 1}", epoch + 1)
            optimizer.step(net, gw, gb)
        scores = net.forward(xs)[:, 0]
        curves.train_loss.append(bce_loss(scores, y))
        curves.train_acc.append(float(np.mean((scores > 0.5) == (y > 0.5))))
        if val is not None:
            val_scores = net.forward(xvs)[:, 0]
            vl = bce_loss(val_scores, yv)
            curves.val_loss.append(vl)
            curves.val_acc.append(float(np.mean((val_scores > 0.5) == (yv > 0.5))))
            if vl < best_loss:
                best_loss = vl
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break
        else:
            curves.val_loss.append(math.nan)
            curves.val_acc.append(math.nan)
    _fold_standardization(net, mu, sd)
    model = EncoderModel(net=net)
    return model, curves


@dataclass(frozen=True)
class SplitMetrics:
    """Clipped-decision quality on one validation split.

    Accuracies count only confident-and-correct verdicts, misclassification
    counts confident-and-wrong ones; unclassified samples sit in neither.
    """

    acc_encoded: float
    acc_not_encoded: float
    misclassified_encoded: float
    misclassified_not_encoded: float
    unclassified_rate: float
    overall_acc: float
    epochs_ran: int


def evaluate_split(
    model: EncoderModel,
    val_part: PartitionedDataset,
    epochs_ran=0,
    features: Optional[np.ndarray] = None,
):
    """Compute SplitMetrics for a model on held-out samples.

    ``features`` optionally holds the samples' featurized rows in
    ``val_part.all`` order; each row is still scored on its own, so the
    verdicts equal classify()'s.
    """
    counts = {1: [0, 0, 0], 0: [0, 0, 0]}  # level -> [correct, wrong, unclassified]
    for k, s in enumerate(val_part.all):
        if features is None:
            verdict = classify(model, s.velocity).verdict
        else:
            score = forward(model, features[k])
            verdict = decide(score, model.lower_threshold, model.upper_threshold)
        if verdict is Verdict.UNCLASSIFIED:
            counts[s.encoding_level][2] += 1
        elif (verdict is Verdict.ENCODED) == (s.encoding_level == 1):
            counts[s.encoding_level][0] += 1
        else:
            counts[s.encoding_level][1] += 1
    n1 = max(sum(counts[1]), 1)
    n0 = max(sum(counts[0]), 1)
    total = sum(counts[1]) + sum(counts[0])
    return SplitMetrics(
        acc_encoded=counts[1][0] / n1,
        acc_not_encoded=counts[0][0] / n0,
        misclassified_encoded=counts[1][1] / n1,
        misclassified_not_encoded=counts[0][1] / n0,
        unclassified_rate=(counts[1][2] + counts[0][2]) / total,
        overall_acc=(counts[1][0] + counts[0][0]) / total,
        epochs_ran=epochs_ran,
    )


@dataclass(eq=False)
class CrossValReport:
    """Everything cross_validate learned: per-split metrics, their means,
    and the best model with the split it was validated on."""

    splits: list
    curves: list
    best_index: int
    best_model: EncoderModel
    best_val_part: PartitionedDataset

    def mean(self, name: str) -> float:
        return float(np.mean([getattr(m, name) for m in self.splits]))


def _stratified_split(part: PartitionedDataset, fraction: float, rng):
    train_idx, val_idx = [], []
    for side in (part.encoded, part.not_encoded):
        side = np.array(side)
        order = rng.permutation(len(side))
        n_train = int(round(fraction * len(side)))
        n_train = min(max(n_train, 1), len(side) - 1)
        train_idx.extend(side[order[:n_train]])
        val_idx.extend(side[order[n_train:]])
    train_idx, val_idx = sorted(train_idx), sorted(val_idx)
    train_part = partition([part.all[i] for i in train_idx], part.e_des)
    val_part = partition([part.all[i] for i in val_idx], part.e_des)
    return train_part, val_part, train_idx, val_idx


def cross_validate(part: PartitionedDataset, cfg: TrainConfig) -> CrossValReport:
    """Repeated stratified random-split evaluation.

    Runs ``cfg.splits`` independent 70/30 (by default) splits, each with its
    own derived seed, and keeps the model with the best overall validation
    accuracy together with its held-out subset. Every sample is featurized
    once; each split indexes those rows.
    """
    if len(part.encoded) < 2 or len(part.not_encoded) < 2:
        raise ConfigError("need at least 2 samples per class to split")
    x, y = _features_and_labels(part, POINTS_PER_AXIS)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.splits)
    metrics, all_curves = [], []
    best = None
    for i, child in enumerate(children):
        split_seed = int(child.generate_state(1)[0])
        rng = np.random.default_rng(split_seed)
        train_part, val_part, train_idx, val_idx = _stratified_split(
            part, cfg.train_fraction, rng
        )
        model, curves = _train_on_features(
            x[train_idx], y[train_idx], replace(cfg, seed=split_seed),
            (x[val_idx], y[val_idx]),
        )
        m = evaluate_split(model, val_part, len(curves), x[val_idx])
        metrics.append(m)
        all_curves.append(curves)
        if best is None or m.overall_acc > best[0]:
            best = (m.overall_acc, i, model, val_part)
    return CrossValReport(
        splits=metrics,
        curves=all_curves,
        best_index=best[1],
        best_model=best[2],
        best_val_part=best[3],
    )


def serialize_model(model: EncoderModel) -> str:
    lines = [
        _MODEL_HEADER,
        "dims " + " ".join(str(d) for d in model.net.dims),
        f"thresholds {model.lower_threshold!r} {model.upper_threshold!r}",
        f"points_per_axis {model.points_per_axis}",
        f"dataset {model.dataset_fingerprint}",
    ]
    lines += params_to_lines(model.net)
    return "\n".join(lines) + "\n"


def save_model(path, model: EncoderModel) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_model(model))


def load_model(path) -> EncoderModel:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _MODEL_HEADER:
        raise DatasetParseError(f"line 1: expected {_MODEL_HEADER!r}")
    dims = header_values(lines, 2, "dims", int)
    lower, upper = header_values(lines, 3, "thresholds", float, count=2)
    if not (0.0 <= lower < upper <= 1.0):
        raise DatasetParseError(
            f"line 3: thresholds must satisfy 0 <= lower < upper <= 1, "
            f"got {lower!r} and {upper!r}"
        )
    (points,) = header_values(lines, 4, "points_per_axis", int, count=1)
    (ds_fp,) = header_values(lines, 5, "dataset", str, count=1)
    net = params_from_lines(lines[5:], dims, output="sigmoid", first_line=6)
    return EncoderModel(
        net=net,
        lower_threshold=lower,
        upper_threshold=upper,
        points_per_axis=points,
        dataset_fingerprint=ds_fp,
    )


def model_fingerprint(model: EncoderModel) -> str:
    """sha256 of the canonical model text; binds tables to a classifier."""
    return hashlib.sha256(serialize_model(model).encode()).hexdigest()
