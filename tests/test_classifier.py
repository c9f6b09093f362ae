"""Encoder classifier: resampling features, clipped decisions, training."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from motionblend import classifier
from motionblend.classifier import (
    EncoderModel,
    TrainConfig,
    Verdict,
    classify,
    cross_validate,
    decide,
    evaluate_split,
    featurize,
    forward,
    load_model,
    model_fingerprint,
    save_model,
    serialize_model,
    train,
)
from motionblend.errors import ConfigError, DatasetParseError, FeatureError
from motionblend.nn import Mlp
from motionblend.signals import MotionSignal, SignalConfig, SignalPrefix


def constant_model(score_bias):
    """A real EncoderModel whose raw score is sigmoid(score_bias) always."""
    net = Mlp([60, 1, 1], output="sigmoid", rng=np.random.default_rng(0))
    net.weights[0][:] = 0.0
    net.biases[0][:] = 0.0
    net.weights[1][:] = 0.0
    net.biases[1][:] = score_bias
    return EncoderModel(net=net)


def test_featurize_reads_knots_when_grid_aligns():
    # 39 effective samples put the 20 resampling points on integer knots
    # (stride 2), where the interpolant must reproduce the data exactly.
    cfg = SignalConfig(t_max=50)
    rng = np.random.default_rng(0)
    values = np.zeros((50, 3))
    values[:39] = rng.normal(0, 100, (39, 3))
    s = MotionSignal(values, cfg, effective_length=39)
    feats = featurize(s)
    rows = np.arange(0, 39, 2)
    expected = np.concatenate([values[rows, axis] for axis in range(3)])
    assert np.allclose(feats, expected, rtol=0, atol=1e-9)


def test_featurize_is_linear_in_values():
    # The table builder evaluates blends through feature-space mixing;
    # resampling has to commute with convex combination.
    cfg = SignalConfig(t_max=40)
    rng = np.random.default_rng(1)
    x = SignalPrefix(rng.normal(0, 50, (33, 3)), cfg)
    y = SignalPrefix(rng.normal(0, 50, (33, 3)), cfg)
    mix = SignalPrefix(0.3 * x.values + 0.7 * y.values, cfg)
    direct = featurize(mix)
    combined = 0.3 * featurize(x) + 0.7 * featurize(y)
    assert np.allclose(direct, combined, rtol=0, atol=1e-9)


def test_featurize_matches_per_axis_splines(small_samples):
    # Reference: one not-a-knot spline per axis, blocks concatenated. The
    # featurizer fits all axes at once and must agree bit for bit, because
    # every stored model and table was built from these features.
    def per_axis(values, points):
        knots = np.arange(values.shape[0], dtype=float)
        grid = np.linspace(0.0, float(values.shape[0] - 1), points)
        return np.concatenate(
            [CubicSpline(knots, values[:, a])(grid) for a in range(values.shape[1])]
        )

    rng = np.random.default_rng(3)
    cases = [s.velocity.values[: s.effective_length] for s in small_samples[:8]]
    cases += [rng.normal(0, 100, (n, rho)) for n in (4, 5, 7, 39, 250) for rho in (1, 3)]
    for values in cases:
        for points in (20, 7):
            expected = per_axis(values, points)
            assert np.array_equal(classifier._featurize_values(values, points), expected)


def test_featurize_cuts_padding(small_samples):
    s = small_samples[0].velocity
    prefix = SignalPrefix(s.values[: s.effective_length], s.config)
    assert np.array_equal(featurize(s), featurize(prefix))


def test_featurize_needs_four_samples():
    cfg = SignalConfig(t_max=10)
    s = MotionSignal.from_samples([[1, 1, 1]] * 3, cfg)
    with pytest.raises(FeatureError):
        featurize(s)


def test_decide_thresholds_are_strict():
    assert decide(0.95, 0.1, 0.9) is Verdict.ENCODED
    assert decide(0.9, 0.1, 0.9) is Verdict.UNCLASSIFIED
    assert decide(0.5, 0.1, 0.9) is Verdict.UNCLASSIFIED
    assert decide(0.1, 0.1, 0.9) is Verdict.UNCLASSIFIED
    assert decide(0.05, 0.1, 0.9) is Verdict.NOT_ENCODED


def test_model_validation():
    net = Mlp([60, 4, 1], output="sigmoid", rng=np.random.default_rng(2))
    with pytest.raises(ConfigError):
        EncoderModel(net=net, lower_threshold=0.9, upper_threshold=0.1)
    with pytest.raises(ConfigError):
        EncoderModel(net=Mlp([60, 4, 1], output="linear"))


def test_forward_checks_feature_width():
    model = constant_model(0.0)
    with pytest.raises(ConfigError):
        forward(model, np.zeros(59))


def test_classify_wires_featurize_and_thresholds(small_samples):
    model = constant_model(5.0)
    decision = classify(model, small_samples[0].velocity)
    assert decision.verdict is Verdict.ENCODED
    assert decision.raw_score == forward(
        model, featurize(small_samples[0].velocity)
    )


def test_evaluate_split_counting(small_part):
    n1 = len(small_part.encoded)
    n0 = len(small_part.not_encoded)
    always_unsure = evaluate_split(constant_model(0.0), small_part)
    assert always_unsure.unclassified_rate == 1.0
    assert always_unsure.overall_acc == 0.0
    assert always_unsure.acc_encoded == 0.0
    assert always_unsure.misclassified_not_encoded == 0.0
    always_yes = evaluate_split(constant_model(9.0), small_part)
    assert always_yes.acc_encoded == 1.0
    assert always_yes.misclassified_not_encoded == 1.0
    assert always_yes.acc_not_encoded == 0.0
    assert always_yes.unclassified_rate == 0.0
    assert always_yes.overall_acc == n1 / (n1 + n0)


def test_train_fits_the_small_pool(small_part, small_model):
    m = evaluate_split(small_model, small_part)
    assert m.acc_encoded == 1.0
    assert m.acc_not_encoded == 1.0
    assert m.misclassified_encoded == 0.0
    assert m.misclassified_not_encoded == 0.0


def test_train_is_deterministic(small_part):
    cfg = TrainConfig(epochs=12, seed=5)
    a, _ = train(small_part, cfg)
    b, _ = train(small_part, cfg)
    assert model_fingerprint(a) == model_fingerprint(b)


def test_standardization_fold_matches_explicit_scaling():
    rng = np.random.default_rng(3)
    net = Mlp([6, 4, 1], rng=rng)
    raw = net.copy()
    mu = rng.normal(0, 5, 6)
    sd = rng.uniform(0.5, 2.0, 6)
    classifier._fold_standardization(net, mu, sd)
    x = rng.normal(0, 5, (7, 6))
    assert np.allclose(net.forward(x), raw.forward((x - mu) / sd), atol=1e-12)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(dropout_rate=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(train_fraction=1.0)


def test_training_curves_lengths(small_part):
    cfg = TrainConfig(epochs=9, seed=1)
    _, curves = train(small_part, cfg)
    assert len(curves) == 9
    assert np.all(np.isnan(curves.val_loss))  # no validation split given
    csv = classifier.curves_to_csv(curves)
    assert csv.splitlines()[0] == "epoch,train_loss,val_loss,train_acc,val_acc"
    assert len(csv.splitlines()) == 10


def test_cross_validate_report_shape(small_part):
    cfg = TrainConfig(epochs=25, seed=2, patience=10)
    report = cross_validate(small_part, cfg)
    assert len(report.splits) == cfg.splits
    assert len(report.curves) == cfg.splits
    accs = [m.overall_acc for m in report.splits]
    assert accs[report.best_index] == max(accs)
    assert report.mean("overall_acc") == pytest.approx(np.mean(accs))
    # Stratified split keeps both classes in the held-out part.
    assert report.best_val_part.encoded and report.best_val_part.not_encoded


def test_cross_validate_featurizes_each_sample_once(small_part, monkeypatch):
    cfg = TrainConfig(epochs=8, seed=3, splits=3)
    calls = []
    real = classifier._featurize_values

    def counting(values, points):
        calls.append(values.shape[0])
        return real(values, points)

    monkeypatch.setattr(classifier, "_featurize_values", counting)
    report = cross_validate(small_part, cfg)
    assert len(calls) == len(small_part.all)
    monkeypatch.undo()
    # Same models, curves and verdicts as training and scoring each split
    # through the public per-split calls, which featurize on their own.
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.splits)
    for i, child in enumerate(children):
        split_seed = int(child.generate_state(1)[0])
        rng = np.random.default_rng(split_seed)
        train_part, val_part, _, _ = classifier._stratified_split(
            small_part, cfg.train_fraction, rng
        )
        model, curves = train(train_part, replace(cfg, seed=split_seed), val_part)
        assert classifier.curves_to_csv(curves) == classifier.curves_to_csv(
            report.curves[i]
        )
        assert evaluate_split(model, val_part, len(curves)) == report.splits[i]
        if i == report.best_index:
            assert model_fingerprint(model) == model_fingerprint(report.best_model)


def test_cross_validate_needs_enough_samples(small_part):
    lonely = [small_part.all[small_part.encoded[0]],
              small_part.all[small_part.not_encoded[0]],
              small_part.all[small_part.not_encoded[1]]]
    from motionblend.dataset import partition

    with pytest.raises(ConfigError):
        cross_validate(partition(lonely, 1), TrainConfig(epochs=1))


def test_model_save_load_roundtrip(tmp_path, small_model):
    path = tmp_path / "model.txt"
    save_model(path, small_model)
    back = load_model(path)
    assert model_fingerprint(back) == model_fingerprint(small_model)
    assert back.lower_threshold == small_model.lower_threshold
    assert back.dataset_fingerprint == small_model.dataset_fingerprint


def test_load_model_rejects_bad_header(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("not a model\n")
    with pytest.raises(DatasetParseError):
        load_model(path)


@pytest.mark.parametrize(
    "old, new, where",
    [
        ("thresholds 0.1 0.9", "thresholds nan nan", "line 3"),
        ("thresholds 0.1 0.9", "thresholds 0.9 0.1", "line 3"),
        ("thresholds 0.1 0.9", "thresholds 0.1 1.5", "line 3"),
        ("thresholds 0.1 0.9", "thresholds 0.1", "line 3"),
        ("thresholds 0.1 0.9", "thresholds low high", "line 3"),
        ("dims ", "sizes ", "line 2"),
        ("thresholds ", "limits ", "line 3"),
        ("points_per_axis ", "points ", "line 4"),
        ("dataset ", "data ", "line 5"),
    ],
)
def test_load_model_checks_header_lines(tmp_path, small_model, old, new, where):
    text = serialize_model(small_model)
    assert old in text
    path = tmp_path / "model.txt"
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(DatasetParseError, match=f"^{where}:"):
        load_model(path)


def test_fingerprint_tracks_weights(small_model):
    fp = model_fingerprint(small_model)
    clone = EncoderModel(
        net=small_model.net.copy(),
        lower_threshold=small_model.lower_threshold,
        upper_threshold=small_model.upper_threshold,
        points_per_axis=small_model.points_per_axis,
        dataset_fingerprint=small_model.dataset_fingerprint,
    )
    assert model_fingerprint(clone) == fp
    clone.net.biases[-1][0] += 1e-9
    assert model_fingerprint(clone) != fp
    assert serialize_model(small_model) == serialize_model(small_model)
