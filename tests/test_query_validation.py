"""Per-query artifact checks: computed once per content, never weakened.

solve_offline, start_session and make_episode each check that the table
binds the classifier and partition they are given. The classifier's
fingerprint is memoized by model content and the partition keeps its
stacked signals and prefix collisions, so these tests pin down that the
memo is exact and bounded, the caches cannot be poisoned, and every output
equals the earlier ``signals.project``-based path.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from motionblend import classifier, dataset, online, rl
from motionblend.blending import blend, solve_offline
from motionblend.classifier import EncoderModel, classify, model_fingerprint
from motionblend.dataset import LabeledSample, partition, validate_prefix_uniqueness
from motionblend.errors import ShapeMismatchError, StaleArtifactError
from motionblend.signals import MotionSignal, SignalConfig, project, terminal_instant


def clone(model):
    return EncoderModel(
        net=model.net.copy(),
        lower_threshold=model.lower_threshold,
        upper_threshold=model.upper_threshold,
        points_per_axis=model.points_per_axis,
        dataset_fingerprint=model.dataset_fingerprint,
    )


def text_fingerprint(model):
    return hashlib.sha256(classifier.serialize_model(model).encode()).hexdigest()


@pytest.fixture(scope="module")
def novel_samples(small_cfg):
    """20 not-encoded recordings the small fixtures never saw."""
    cfg = replace(small_cfg, seed=4242, n_encoded=1, n_not_encoded=20)
    return [s for s in dataset.generate_synthetic(cfg) if s.encoding_level == 0]


# -- the fingerprint memo ---------------------------------------------------

@pytest.fixture
def serialize_calls(monkeypatch):
    """Empties the fingerprint memo and counts serialize_model calls."""
    calls = []
    real = classifier.serialize_model

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(classifier, "_fingerprints", [])
    monkeypatch.setattr(classifier, "serialize_model", counting)
    return calls


def test_serialize_model_runs_once_across_queries(
    serialize_calls, small_part, small_table, small_model, schedule
):
    for k, sample in enumerate(small_part.not_encoded_samples[:6]):
        model = clone(small_model) if k % 2 else small_model  # same content
        solve_offline(sample.velocity, small_part, small_table, model)
        online.start_session(small_part, small_table, model, schedule)
        rl.make_episode(small_part, small_table, model, schedule, sample)
        rl.make_episode(small_part, small_table, model, schedule, sample, mode="offline")
    assert len(serialize_calls) == 1


def test_memo_is_bounded_and_keeps_alternating_models(serialize_calls, small_model):
    models = [clone(small_model) for _ in range(6)]
    for k, model in enumerate(models):
        model.net.biases[-1][0] += k
    for _ in range(3):
        for model in models[:2]:
            assert model_fingerprint(model) == text_fingerprint(model)
    assert len(serialize_calls) == 2 + 6  # text_fingerprint serializes too
    for model in models:
        model_fingerprint(model)
    assert len(classifier._fingerprints) == classifier._FINGERPRINTS_KEPT


@pytest.mark.parametrize("edit", ["weight", "bias", "negative_zero", "threshold", "dims"])
def test_in_place_edit_after_a_passing_check_is_refused(
    small_part, small_table, small_model, schedule, edit
):
    model = clone(small_model)
    sample = small_part.not_encoded_samples[0]
    solve_offline(sample.velocity, small_part, small_table, model)
    online.start_session(small_part, small_table, model, schedule)
    rl.make_episode(small_part, small_table, model, schedule, sample)
    if edit == "weight":
        model.net.weights[0][3, 5] += 1e-12
    elif edit == "bias":
        model.net.biases[-1][0] = np.nextafter(model.net.biases[-1][0], np.inf)
    elif edit == "negative_zero":
        # Same value, different text: "-0.0" is not "0.0".
        model.net.biases[0][:] = 0.0
        before = text_fingerprint(model)
        model.net.biases[0][0] = -0.0
        assert text_fingerprint(model) != before
    elif edit == "threshold":
        model.upper_threshold = 0.95
    else:
        model.net.dims.append(1)
    assert model_fingerprint(model) == text_fingerprint(model)
    with pytest.raises(StaleArtifactError):
        solve_offline(sample.velocity, small_part, small_table, model)
    with pytest.raises(StaleArtifactError):
        online.start_session(small_part, small_table, model, schedule)
    with pytest.raises(StaleArtifactError):
        rl.make_episode(small_part, small_table, model, schedule, sample)
    with pytest.raises(StaleArtifactError):
        rl.make_episode(small_part, small_table, model, schedule, sample, mode="offline")


def test_memo_tracks_edits_and_their_undo(small_model):
    model = clone(small_model)
    original = model_fingerprint(model)
    w = model.net.weights[1]
    keep = w[7, 0]
    for value in (keep * 2.0, 0.0, -0.0, 5e-324, keep):
        w[7, 0] = value
        assert model_fingerprint(model) == text_fingerprint(model)
    assert model_fingerprint(model) == original
    model.net.weights[1] = w.copy()  # a new array with the same bytes
    assert model_fingerprint(model) == original


# -- partition caches -------------------------------------------------------

def test_cached_stacks_are_read_only_and_equal_the_signals(small_part):
    for stacked, signals in (
        (small_part.encoded_values, small_part.encoded_signals),
        (small_part.not_encoded_values, small_part.not_encoded_signals),
    ):
        assert not stacked.flags.writeable
        with pytest.raises(ValueError):
            stacked[0, 0, 0] = 1.0
        assert np.array_equal(stacked, np.stack([v.values for v in signals]))
    assert small_part.encoded_values is small_part.encoded_values
    assert small_part.not_encoded_ids == tuple(
        s.id for s in small_part.not_encoded_samples
    )


def test_collision_list_is_a_fresh_copy(small_part):
    rows = [[9.0, 0.0, 0.0]] * 25
    cfg = SignalConfig(t_max=30)
    samples = [
        LabeledSample(sid, MotionSignal.from_samples(rows, cfg), np.zeros(3), level)
        for sid, level in (("a", 0), ("b", 0), ("e", 1))
    ]
    part = partition(samples, 1)
    got = validate_prefix_uniqueness(part, 20)
    assert got == [("a", "b")]
    got.append(("x", "y"))
    got.clear()
    assert validate_prefix_uniqueness(part, 20) == [("a", "b")]

    clean = validate_prefix_uniqueness(small_part, 20)
    clean.append(("x", "y"))
    assert validate_prefix_uniqueness(small_part, 20) == []


@pytest.mark.parametrize(
    "cfg", [SignalConfig(t_max=400, dt=0.02), SignalConfig(t_max=400, delta_vel=5.0),
            SignalConfig(t_max=300)],
)
def test_query_of_another_config_is_refused(small_part, small_table, small_model, cfg):
    stored = small_part.not_encoded_signals[0]
    rows = stored.values[: min(cfg.t_max, stored.effective_length)]
    query = MotionSignal.from_samples(rows, cfg)
    with pytest.raises(ShapeMismatchError):
        project(query, small_part.encoded_signals)
    with pytest.raises(ShapeMismatchError):
        small_part.nearest_encoded(query)
    with pytest.raises(ShapeMismatchError):
        small_part.nearest_not_encoded(query)
    with pytest.raises(ShapeMismatchError):
        solve_offline(query, small_part, small_table, small_model)


# -- same outputs as the project-based path ---------------------------------

def reference_offline(v_h, part, table, model):
    eta_index, _ = project(v_h, part.not_encoded_signals)
    reference_index, v_r = project(v_h, part.encoded_signals)
    c_hat = float(table.grid.values[table.entries[eta_index, reference_index]])
    v_a = blend(v_h, v_r, c_hat)
    return eta_index, reference_index, v_r, c_hat, v_a, classify(model, v_a)


class ProjectSession(online.OnlineSession):
    """The session with a freshly stacked prefix pool and the encoded
    reference chosen by signals.project."""

    def __init__(self, *args):
        super().__init__(*args)
        self._ne_values = np.stack(
            [s.velocity.values for s in self.part.not_encoded_samples]
        )

    def _update(self, t):
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
            eta = self.part.not_encoded_signals[eta_index]
            self.reference_index, self._v_r = project(eta, self.part.encoded_signals)
        c = self.table.coefficient(eta_index, self.reference_index)
        self._c = c
        self.c_history.append(c)
        self.stats["updates"] += 1


def reference_replay(part, table, model, schedule, sample):
    session = ProjectSession(part, table, model, schedule, sample.initial_position, None)
    for row in sample.velocity.values:
        session.push(row)
    return session.finish(effective_length=sample.effective_length)


def reference_episode(part, table, model, schedule, sample, mode):
    cfg = part.signal_config
    if mode == "online":
        res = reference_replay(part, table, model, schedule, sample)
        v_r = part.encoded_signals[res.reference_index]
        c, base_v_a, t_term = res.c_profile, res.v_a, res.t_term
    else:
        _, _, v_r, c_hat, base_v_a, _ = reference_offline(sample.velocity, part, table, model)
        c = np.full(cfg.t_max, c_hat)
        t_term = terminal_instant(sample.velocity).t
    return v_r.values, c, base_v_a, t_term


def assert_same_session(got, want):
    for name in ("v_h", "v_a", "p_h", "p_a"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a.values, b.values), name
        assert a.effective_length == b.effective_length, name
    assert np.array_equal(got.c_profile, want.c_profile)
    for name in ("c_history", "decision", "terminal_gap", "t_term", "terminates",
                 "reference_index", "eta_indices", "approximate"):
        assert getattr(got, name) == getattr(want, name), name


def test_outputs_equal_the_project_based_path(
    small_part, small_table, small_model, schedule, novel_samples
):
    part, table, model = small_part, small_table, small_model
    streams = part.not_encoded_samples + novel_samples
    approximate = 0
    for sample in streams:
        sol = solve_offline(sample.velocity, part, table, model)
        eta, ref, v_r, c_hat, v_a, decision = reference_offline(
            sample.velocity, part, table, model
        )
        assert (sol.eta_index, sol.reference_index, sol.c_hat) == (eta, ref, c_hat)
        assert sol.v_r is v_r
        assert np.array_equal(sol.v_a.values, v_a.values)
        assert sol.v_a.effective_length == v_a.effective_length
        assert sol.decision == decision

        got = online.replay(part, table, model, schedule, sample)
        assert_same_session(got, reference_replay(part, table, model, schedule, sample))
        approximate += got.approximate

        for mode in ("online", "offline"):
            ep = rl.make_episode(part, table, model, schedule, sample, mode=mode)
            v_r_values, c, base_v_a, t_term = reference_episode(
                part, table, model, schedule, sample, mode
            )
            assert np.array_equal(ep.v_r, v_r_values)
            assert np.array_equal(ep.c, c)
            assert np.array_equal(ep.base_v_a, base_v_a.values)
            assert ep.eff_a == base_v_a.effective_length
            assert ep.t_term == min(t_term, ep.horizon)
    # Novel streams exercise the approximate identification path.
    assert approximate >= len(novel_samples) // 2
