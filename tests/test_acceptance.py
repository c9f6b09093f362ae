"""Acceptance gate: one test per promised behavior, at stated tolerance.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -s`` to watch them scroll by). The full-
scale fixtures are built once per module; expect a few minutes, most of it
agent training. The criteria that need them carry the ``slow`` marker, so
``pytest -m "not slow"`` skips the paper-scale build.
"""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from motionblend.blending import BlendGrid, blend, compute_table, solve_offline
from motionblend.classifier import (
    TrainConfig,
    Verdict,
    cross_validate,
    featurize,
    forward,
)
from motionblend.cli import main
from motionblend.dataset import SynthConfig, generate_synthetic, load, partition
from motionblend.nn import bce_gradients, bce_loss
from motionblend.online import OnlineSchedule, replay
from motionblend.rl import (
    AgentTrainConfig,
    AlterationBundle,
    CorrectionConfig,
    EpisodeTrace,
    check_guarantee,
    reward,
    train_agent,
)
from motionblend.signals import (
    MotionSignal,
    SignalConfig,
    differentiate,
    dist,
    integrate,
    project,
)


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def paper():
    """Full-scale dataset, classifier, and coefficient table."""
    ns = SimpleNamespace()
    ns.samples = generate_synthetic(SynthConfig())
    ns.part = partition(ns.samples, 1)
    started = time.time()
    ns.report = cross_validate(ns.part, TrainConfig())
    ns.clf_seconds = time.time() - started
    ns.model = ns.report.best_model
    ns.grid = BlendGrid.uniform(51)
    started = time.time()
    ns.table = compute_table(ns.part, ns.grid, ns.model, workers=4)
    ns.table_seconds = time.time() - started
    ns.schedule = OnlineSchedule()
    ns.correction = CorrectionConfig()
    ns.bundle = AlterationBundle(
        ns.part, ns.table, ns.model, ns.schedule, ns.correction
    )
    ns.targets = [
        s for s in ns.report.best_val_part.all if s.encoding_level != ns.part.e_des
    ]
    return ns


@pytest.fixture(scope="module")
def online_eval(paper):
    rows = []
    for sample in paper.targets:
        out = paper.bundle.alter(sample, "online")
        rows.append(
            {
                "encoded": out.decision.verdict is Verdict.ENCODED,
                "ok": out.terminal_gap <= paper.correction.delta_pos,
            }
        )
    return SimpleNamespace(
        success=float(np.mean([r["encoded"] for r in rows])),
        constraint=float(np.mean([r["ok"] for r in rows])),
        n=len(rows),
    )


@pytest.fixture(scope="module")
def agent(paper):
    started = time.time()
    trained, log = train_agent(
        paper.part, paper.table, paper.model, paper.correction,
        AgentTrainConfig(), paper.schedule,
    )
    return SimpleNamespace(model=trained, log=log, seconds=time.time() - started)


@pytest.fixture(scope="module")
def rl_eval(paper, agent):
    bundle = replace(paper.bundle, agent=agent.model)
    rows = []
    for sample in paper.targets:
        out = bundle.alter(sample, "online+rl")
        rows.append(
            {
                "encoded": out.decision.verdict is Verdict.ENCODED,
                "gap": out.terminal_gap,
                "check": check_guarantee(out.trace, paper.correction),
            }
        )
    return SimpleNamespace(
        rows=rows,
        success=float(np.mean([r["encoded"] for r in rows])),
        constraint=float(
            np.mean([r["gap"] <= paper.correction.delta_pos for r in rows])
        ),
    )


def test_criterion_01_blend_distance_identity():
    cfg = SignalConfig(t_max=80)
    rng = np.random.default_rng(0)
    started = time.time()
    worst = 0.0
    for _ in range(1000):
        v_h = MotionSignal.from_samples(
            rng.normal(0, 180.0, (int(rng.integers(4, 81)), 3)), cfg
        )
        v_r = MotionSignal.from_samples(
            rng.normal(0, 180.0, (int(rng.integers(4, 81)), 3)), cfg
        )
        c = float(rng.uniform())
        base = dist(v_h, v_r)
        err = abs(dist(v_h, blend(v_h, v_r, c)) - (1.0 - c) * base)
        worst = max(worst, err / base)
    elapsed = time.time() - started
    ok = worst < 1e-9 and elapsed < 5.0
    report(
        1, ok,
        f"deviation scales by exactly (1-c): worst relative error "
        f"{worst:.2e} over 1000 triples in {elapsed:.2f}s",
    )


def test_criterion_02_calculus_roundtrip_and_projection():
    cfg = SignalConfig(t_max=120)
    rng = np.random.default_rng(1)
    roundtrip_failures = 0
    for _ in range(100):
        n = int(rng.integers(2, cfg.t_max + 1))
        p = MotionSignal.from_samples(rng.normal(0, 300.0, (n, 3)), cfg)
        back = integrate(differentiate(p), p.values[0])
        if np.max(np.abs(back.values - p.values)) >= 1e-9:
            roundtrip_failures += 1
    projection_failures = 0
    for _ in range(100):
        pool = [
            MotionSignal.from_samples(
                rng.normal(0, 200.0, (int(rng.integers(4, 121)), 3)), cfg
            )
            for _ in range(int(rng.integers(2, 41)))
        ]
        q = MotionSignal.from_samples(
            rng.normal(0, 200.0, (int(rng.integers(4, 121)), 3)), cfg
        )
        brute_idx = int(np.argmin([dist(q, m) for m in pool]))
        idx, member = project(q, pool)
        if idx != brute_idx or member is not pool[brute_idx]:
            projection_failures += 1
    ok = roundtrip_failures == 0 and projection_failures == 0
    report(
        2, ok,
        f"derivative/integral roundtrip failures {roundtrip_failures}/100, "
        f"projection-vs-brute-force failures {projection_failures}/100",
    )


@pytest.mark.slow
def test_criterion_03_classifier_gradient_check(paper):
    val = paper.report.best_val_part.all
    x = np.stack(
        [featurize(s.velocity, paper.model.points_per_axis) for s in val[:60]]
    )
    y = np.array([float(s.encoding_level == paper.part.e_des) for s in val[:60]])
    net = paper.model.net.copy()
    _, gw, _ = bce_gradients(net, x, y)

    per_layer = -(-20 // len(gw))
    probes = []
    for layer, grad in enumerate(gw):
        flat = np.abs(grad).ravel()
        order = np.argsort(flat)[::-1][:per_layer]
        probes += [(layer, *np.unravel_index(i, grad.shape)) for i in order]
    probes = probes[:20]

    worst = 0.0
    for layer, r, c in probes:
        w0 = net.weights[layer][r, c]
        h = 1e-6 * max(1.0, abs(w0))
        net.weights[layer][r, c] = w0 + h
        up = bce_loss(net.forward(x), y)
        net.weights[layer][r, c] = w0 - h
        down = bce_loss(net.forward(x), y)
        net.weights[layer][r, c] = w0
        numeric = (up - down) / (2 * h)
        analytic = gw[layer][r, c]
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric)))
    ok = worst < 1e-4 and len(probes) == 20
    report(
        3, ok,
        f"analytic vs central-difference gradients: max relative error "
        f"{worst:.2e} over {len(probes)} probes",
    )


@pytest.mark.slow
def test_criterion_04_classifier_quality(paper):
    means = {
        name: paper.report.mean(name)
        for name in (
            "acc_encoded", "acc_not_encoded",
            "misclassified_encoded", "misclassified_not_encoded",
        )
    }
    ok = (
        means["acc_encoded"] >= 0.85
        and means["acc_not_encoded"] >= 0.80
        and means["misclassified_encoded"] <= 0.05
        and means["misclassified_not_encoded"] <= 0.05
        and paper.clf_seconds < 300.0
    )
    report(
        4, ok,
        f"5-split means: acc {means['acc_encoded']:.4f}/"
        f"{means['acc_not_encoded']:.4f} (need 0.85/0.80), confident-wrong "
        f"{means['misclassified_encoded']:.4f}/"
        f"{means['misclassified_not_encoded']:.4f} (cap 0.05), trained in "
        f"{paper.clf_seconds:.0f}s (cap 300)",
    )


def oracle_entry(model, grid, v_h, v_r):
    accepted = [
        k
        for k, c in enumerate(grid.values)
        if forward(model, featurize(blend(v_h, v_r, float(c)), model.points_per_axis))
        > model.upper_threshold
    ]
    return accepted[-1] if accepted else 0


@pytest.mark.slow
def test_criterion_05_table_matches_oracle(
    paper, small_part, small_grid, small_model
):
    rng = np.random.default_rng(2)
    mismatches = 0
    for _ in range(50):
        i = int(rng.integers(0, len(paper.part.not_encoded)))
        j = int(rng.integers(0, len(paper.part.encoded)))
        expected = oracle_entry(
            paper.model, paper.grid,
            paper.part.not_encoded_signals[i], paper.part.encoded_signals[j],
        )
        if int(paper.table.entries[i, j]) != expected:
            mismatches += 1
    started = time.time()
    compute_table(small_part, small_grid, small_model)
    small_seconds = time.time() - started
    ok = mismatches == 0 and small_seconds < 60.0 and paper.table_seconds < 1800.0
    report(
        5, ok,
        f"{50 - mismatches}/50 sampled entries equal the blend-and-classify "
        f"oracle; build times {small_seconds:.1f}s small (cap 60), "
        f"{paper.table_seconds:.0f}s full (cap 1800)",
    )


@pytest.mark.slow
def test_criterion_06_streaming_matches_offline(paper):
    mismatches = 0
    members = paper.part.not_encoded_samples
    for sample in members:
        res = replay(paper.part, paper.table, paper.model, paper.schedule, sample)
        sol = solve_offline(sample.velocity, paper.part, paper.table, paper.model)
        if res.c_history[-1] != sol.c_hat:
            mismatches += 1
    ok = mismatches == 0
    report(
        6, ok,
        f"replayed all {len(members)} stored not-encoded signals: "
        f"{mismatches} final coefficients differ from the whole-signal solve",
    )


@pytest.mark.slow
def test_criterion_07_online_success_rate(online_eval):
    ok = online_eval.success >= 0.80
    report(
        7, ok,
        f"streaming alteration: success_rate {online_eval.success:.3f} "
        f"(need 0.80) on {online_eval.n} validation targets; constraint_rate "
        f"{online_eval.constraint:.3f} (reported, no threshold)",
    )


@pytest.mark.slow
def test_criterion_08_certificate_soundness(paper, rl_eval):
    cfg = paper.correction
    violations = 0
    certified = 0
    for row in rl_eval.rows:
        if row["check"].implies_constraint:
            certified += 1
            if row["gap"] > cfg.delta_pos:
                violations += 1

    rng = np.random.default_rng(3)
    for _ in range(10_000):
        horizon = int(rng.integers(1, 61))
        span = cfg.delta_pos if rng.random() < 0.3 else 3 * cfg.delta_pos
        gaps = rng.uniform(0, span, horizon)
        trace = EpisodeTrace(horizon=horizon, t_term=int(rng.integers(1, horizon + 1)))
        g_prev = 1
        for gap in gaps:
            g_t = int(gap <= cfg.delta_pos)
            alpha = rng.integers(0, 2, 3).astype(float)
            trace.gaps.append(float(gap))
            trace.alphas.append(alpha)
            trace.g.append(g_t)
            trace.rewards.append(
                reward(np.zeros(3), [gap, 0, 0], alpha, g_t, g_prev, cfg)
            )
            g_prev = g_t
        trace.done = True
        if check_guarantee(trace, cfg).implies_constraint:
            certified += 1
            if trace.terminal_gap > cfg.delta_pos:
                violations += 1
    ok = violations == 0 and certified > 0
    report(
        8, ok,
        f"certified reward never co-occurred with a terminal violation: "
        f"{violations} violations across {len(rl_eval.rows)} greedy episodes "
        f"and 10000 fuzzed traces ({certified} certified)",
    )


@pytest.mark.slow
def test_criterion_09_correction_tradeoff(agent, online_eval, rl_eval):
    ok = (
        len(agent.log) == 1100
        and agent.seconds < 3600.0
        and rl_eval.constraint >= 0.70
        and rl_eval.constraint > online_eval.constraint
        and rl_eval.success < online_eval.success
    )
    report(
        9, ok,
        f"after {len(agent.log)} episodes ({agent.seconds:.0f}s, cap 3600): "
        f"constraint_rate {rl_eval.constraint:.3f} (need 0.70 and > online's "
        f"{online_eval.constraint:.3f}), success_rate {rl_eval.success:.3f} "
        f"(down from {online_eval.success:.3f})",
    )


def test_criterion_10_stage_determinism(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")

    def cli(args):
        assert main(args) == 0

    def same(name):
        return (root / "a" / name).read_bytes() == (root / "b" / name).read_bytes()

    for run in ("a", "b"):
        (root / run).mkdir()
        cli(["gen-data", "--preset", "small", "--out",
             str(root / run / "data.txt"), "--seed", "5"])
    stages = [("gen-data", same("data.txt"))]

    data = str(root / "a" / "data.txt")
    for run in ("a", "b"):
        cli(["train-classifier", "--data", data,
             "--out-dir", str(root / run / "clf"),
             "--seed", "5", "--epochs", "40", "--splits", "2"])
    stages.append(
        ("train-classifier",
         all(same(f"clf/{n}") for n in ("model.txt", "metrics.csv", "val_ids.csv")))
    )

    model = str(root / "a" / "clf" / "model.txt")
    for run in ("a", "b"):
        cli(["build-table", "--data", data, "--model", model,
             "--out", str(root / run / "table.txt"), "--grid-count", "11"])
    stages.append(("build-table", same("table.txt")))

    table = str(root / "a" / "table.txt")
    ini = root / "agent.ini"
    ini.write_text("[agent]\nlearn_start = 200\nbatch_size = 16\n")
    for run in ("a", "b"):
        cli(["--config", str(ini), "train-agent", "--data", data,
             "--model", model, "--table", table,
             "--out", str(root / run / "agent.txt"),
             "--log", str(root / run / "log.csv"),
             "--seed", "5", "--episodes", "3"])
    stages.append(("train-agent", same("agent.txt") and same("log.csv")))

    sample_id = next(s.id for s in load(data) if s.encoding_level == 0)
    val = str(root / "a" / "clf" / "val_ids.csv")
    agent_path = str(root / "a" / "agent.txt")
    for run in ("a", "b"):
        cli(["alter", "--data", data, "--model", model, "--table", table,
             "--sample-id", sample_id, "--out", str(root / run / "alter.csv")])
        cli(["evaluate", "--data", data, "--model", model, "--table", table,
             "--val-ids", val, "--mode", "online+rl", "--agent", agent_path,
             "--out", str(root / run / "report.csv")])
    stages.append(("alter", same("alter.csv")))
    stages.append(("evaluate", same("report.csv")))

    bad = [name for name, equal in stages if not equal]
    report(
        10, not bad,
        f"re-running every stage with the same seed reproduced artifacts "
        f"byte for byte ({', '.join(name for name, _ in stages)})"
        + (f"; differing: {bad}" if bad else ""),
    )
