"""The three phases the workloads are made of: build, agent and serve.

A workload runs its own phase at paper scale and the other two phases on
the small preset, so every workload reports every end-to-end metric while
most of its time stays on its own layers. Each phase is a generator that
yields between units of work; a workload alternates the units of its phases
(:func:`interleave`), which spreads the short small-preset measurements over
the whole run instead of one window of it. Every call goes into the program
through its public functions, or through ``motionblend.cli.main`` for the
pipeline stages.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from motionblend import blending, classifier, dataset, online, rl
from motionblend.cli import main as cli_main
from motionblend.errors import MotionBlendError

# Input generation is the benchmark's, not the program's work: bind the
# generator before any tracer can wrap it.
_generate_inputs = dataset.generate_synthetic

# Root seed of the artifacts each invocation builds once and reuses.
PIPELINE_SEED = 0


@dataclass(frozen=True)
class Scale:
    """Sizes of one phase. Timings repeated n times report their median."""

    preset: str
    agent_episodes: int
    serve_streams: int  # minimum novel streams per serve phase
    serve_chunk: int  # streams served between yields
    oracle_cells: int
    replay_checks: int
    rl_checks: int
    stage_repeats: int  # train-classifier and train-agent
    table_repeats: int
    data_repeats: int  # gen-data, the build workload's set-up
    load_repeats: int  # load and bind, the agent and serve set-up


# 80 episodes are 15,001 Adam steps. Dead-unit moments decay into
# subnormals after about 7k steps, so most steps pay that cost.
# Seven loads give the small-preset steps seven turns before a workload's
# long stages, so they are not all measured in one window after them.
FULL = Scale("paper-scale", agent_episodes=80, serve_streams=200, serve_chunk=20,
             oracle_cells=8, replay_checks=5, rl_checks=5, stage_repeats=1,
             table_repeats=1, data_repeats=3, load_repeats=7)
# Small-preset stages take 0.2 to 2 s, so they are repeated.
SMALL = Scale("small", agent_episodes=12, serve_streams=48, serve_chunk=2,
              oracle_cells=8, replay_checks=3, rl_checks=3, stage_repeats=2,
              table_repeats=5, data_repeats=3, load_repeats=3)
FAST = Scale("small", agent_episodes=6, serve_streams=8, serve_chunk=4,
             oracle_cells=3, replay_checks=2, rl_checks=2, stage_repeats=1,
             table_repeats=1, data_repeats=2, load_repeats=2)


class StageError(RuntimeError):
    """A pipeline stage exited non-zero; nothing after it can be measured."""


class Run:
    """Counts attempted and failed operations and collects metrics."""

    def __init__(self, work_dir, nproc, tracer=None):
        self.work_dir = work_dir
        self.nproc = nproc
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.certified = 0
        self.rl_episodes = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def put(self, name, value, unit):
        self.metrics[name] = (value, unit)

    def path(self, *parts):
        path = os.path.join(self.work_dir, *parts)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def stage(self, argv):
        """Run one CLI stage in this process; returns its wall time."""
        argv = [str(a) for a in argv]
        out = io.StringIO()
        self.attempted += 1
        started = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        elapsed = time.perf_counter() - started
        if code != 0:
            self.failed += 1
            raise StageError(f"motionblend {' '.join(argv)} exited {code}")
        return elapsed


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@dataclass
class Artifacts:
    """Paths of one pipeline's artifacts."""

    data: str
    model: str
    table: str
    agent: str
    log: str

    @classmethod
    def under(cls, out):
        return cls(
            data=os.path.join(out, "data.txt"),
            model=os.path.join(out, "clf", "model.txt"),
            table=os.path.join(out, "table.txt"),
            agent=os.path.join(out, "agent.txt"),
            log=os.path.join(out, "train_log.csv"),
        )


def produce(run, preset, episodes, out):
    """Run the whole pipeline once with the fixed root seed."""
    arts = Artifacts.under(out)
    run.stage(["gen-data", "--preset", preset, "--out", arts.data, "--seed", PIPELINE_SEED])
    run.stage(["train-classifier", "--data", arts.data, "--out-dir",
               os.path.join(out, "clf"), "--seed", PIPELINE_SEED])
    run.stage(["build-table", "--data", arts.data, "--model", arts.model,
               "--out", arts.table, "--workers", 1])
    run.stage(["train-agent", "--data", arts.data, "--model", arts.model,
               "--table", arts.table, "--out", arts.agent, "--log", arts.log,
               "--seed", PIPELINE_SEED, "--episodes", episodes])
    return arts


@dataclass
class Bundle:
    """Loaded and bound artifacts, as a serving process holds them."""

    part: object
    model: object
    table: object
    agent: object
    schedule: object
    correction: object


def load_bundle(arts):
    samples = dataset.load(arts.data)
    part = dataset.partition(samples, 1)
    model = classifier.load_model(arts.model)
    table = blending.load_table(arts.table)
    blending.check_table_matches(table, part, model)
    agent = rl.load_agent(arts.agent)
    if agent.table_fingerprint != blending.table_fingerprint(table):
        raise MotionBlendError("agent was trained against a different table")
    return Bundle(part, model, table, agent,
                  online.OnlineSchedule(), rl.CorrectionConfig())


def timed_setup(run, repeats, action):
    """Set up ``repeats`` times, one step each; reports the median wall time
    as ``setup_s`` and returns the last result."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        result = action()
        times.append(time.perf_counter() - started)
        yield
    run.put("setup_s", statistics.median(times), "s")
    return result


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% of them at or below."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def tail(values):
    """The highest percentile with at least ten samples beyond it: the
    11th-largest value, which is p95 for 200 samples."""
    return sorted(values)[max(len(values) - 11, 0)]


def _seed_for(seed, purpose):
    keys = {"novel": 101, "cells": 102, "replays": 103, "rl_checks": 104}
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(keys[purpose],))
    return int(ss.generate_state(1)[0])


def oracle_entry(model, grid, v_h, v_r):
    """Criterion 05's rule: largest grid index whose blend scores Encoded."""
    accepted = [
        k
        for k, c in enumerate(grid.values)
        if classifier.forward(
            model,
            classifier.featurize(blending.blend(v_h, v_r, float(c)), model.points_per_axis),
        )
        > model.upper_threshold
    ]
    return accepted[-1] if accepted else 0


# -- build ------------------------------------------------------------------

def build_phase(run, scale, data, seed, out, expected=None):
    """train-classifier, then build-table with 1 and with nproc workers.

    Repeats of a stage must write the same bytes, and so must the parallel
    table build; with ``expected`` (artifacts of the same stages, data and
    seed) model and table must equal those too.
    """
    clf_times, serial, parallel = [], [], []
    for r in range(scale.stage_repeats):
        clf_times.append(run.stage(["train-classifier", "--data", data, "--out-dir",
                                    run.path(out, f"clf{r}", ""), "--seed", seed]))
        yield
    model = run.path(out, "clf0", "model.txt")
    for r in range(scale.table_repeats):
        serial.append(run.stage(["build-table", "--data", data, "--model", model,
                                 "--out", run.path(out, f"table{r}.txt"), "--workers", 1]))
        yield
        parallel.append(run.stage(["build-table", "--data", data, "--model", model,
                                   "--out", run.path(out, f"table_par{r}.txt"),
                                   "--workers", run.nproc]))
        yield
    run.put("train_classifier_s", statistics.median(clf_times), "s")
    run.put("build_table_s", statistics.median(serial), "s")
    run.put("build_table_par_s", statistics.median(parallel), "s")

    table = run.path(out, "table0.txt")
    first_model, first_table = read_bytes(model), read_bytes(table)
    for r in range(1, scale.stage_repeats):
        run.check(read_bytes(run.path(out, f"clf{r}", "model.txt")) == first_model,
                  f"train-classifier repeat {r} wrote a different model")
    for r in range(scale.table_repeats):
        run.check(read_bytes(run.path(out, f"table{r}.txt")) == first_table,
                  f"build-table repeat {r} wrote a different table")
        run.check(read_bytes(run.path(out, f"table_par{r}.txt")) == first_table,
                  f"build-table --workers {run.nproc} differs from --workers 1")
    if expected is not None:
        run.check(first_model == read_bytes(expected.model),
                  "train-classifier differs from the invocation's earlier model")
        run.check(first_table == read_bytes(expected.table),
                  "build-table differs from the invocation's earlier table")

    with run.untraced():
        part = dataset.partition(dataset.load(data), 1)
        enc_model = classifier.load_model(model)
        built = blending.load_table(table)
        rng = np.random.default_rng(_seed_for(seed, "cells"))
        for _ in range(scale.oracle_cells):
            i = int(rng.integers(0, len(part.not_encoded)))
            j = int(rng.integers(0, len(part.encoded)))
            want = oracle_entry(enc_model, built.grid, part.not_encoded_signals[i],
                                part.encoded_signals[j])
            run.check(int(built.entries[i, j]) == want,
                      f"table cell ({i}, {j}) differs from the blend-and-classify oracle")


def build_primary(run, scale, seed):
    """Synthesize and write the dataset (the set-up; every repeat must write
    the same bytes), then the build phase on it."""
    paths = []

    def generate():
        path = run.path("build", f"data{len(paths)}.txt")
        run.stage(["gen-data", "--preset", scale.preset, "--out", path, "--seed", seed])
        paths.append(path)
        return path

    data = yield from timed_setup(run, scale.data_repeats, generate)
    first = read_bytes(paths[0])
    for path in paths[1:]:
        run.check(read_bytes(path) == first, "gen-data repeat wrote a different dataset")
    yield from build_phase(run, scale, data, seed, "build")


# -- agent ------------------------------------------------------------------

def agent_phase(run, scale, arts, bundle, seed, out, expected=None):
    """train-agent at a fixed episode count, then greedy certificate checks.

    Repeats must write the same agent and log; with ``expected`` they must
    equal those too.
    """
    times = []
    for r in range(scale.stage_repeats):
        times.append(run.stage(["train-agent", "--data", arts.data, "--model", arts.model,
                                "--table", arts.table,
                                "--out", run.path(out, f"agent{r}.txt"),
                                "--log", run.path(out, f"train_log{r}.csv"),
                                "--seed", seed, "--episodes", scale.agent_episodes]))
        yield
    run.put("train_agent_s", statistics.median(times), "s")
    agent_path, log_path = run.path(out, "agent0.txt"), run.path(out, "train_log0.csv")
    first = read_bytes(agent_path) + read_bytes(log_path)
    for r in range(1, scale.stage_repeats):
        again = read_bytes(run.path(out, f"agent{r}.txt"))
        again += read_bytes(run.path(out, f"train_log{r}.csv"))
        run.check(again == first, f"train-agent repeat {r} wrote a different agent")
    if expected is not None:
        run.check(first == read_bytes(expected.agent) + read_bytes(expected.log),
                  "train-agent differs from the invocation's earlier agent")

    with run.untraced():
        with open(log_path) as fh:
            rows = fh.read().splitlines()[1:]
        run.check(len(rows) == scale.agent_episodes,
                  f"training log has {len(rows)} rows, expected {scale.agent_episodes}")
        agent = rl.load_agent(agent_path)
        run.check(agent.table_fingerprint == blending.table_fingerprint(bundle.table),
                  "trained agent is not bound to the table it was trained on")
        rng = np.random.default_rng(_seed_for(seed, "rl_checks"))
        picks = rng.choice(len(bundle.part.not_encoded), scale.rl_checks, replace=False)
        for idx in picks:
            sample = bundle.part.not_encoded_samples[int(idx)]
            env = _greedy_episode(bundle, agent, sample)
            _check_certificate(run, bundle, env, sample.id)


def _greedy_episode(bundle, agent, sample):
    episode = rl.make_episode(bundle.part, bundle.table, bundle.model, bundle.schedule, sample)
    env = rl.CorrectionEnv(episode, bundle.correction)
    state = env.reset()
    done = False
    while not done:
        state, _, done, _ = env.step(agent.act_greedy(state))
    return env


def _check_certificate(run, bundle, env, sample_id):
    """Criterion 08: a certified episode met the terminal constraint."""
    verdict = rl.check_guarantee(env.trace, bundle.correction)
    run.rl_episodes += 1
    if verdict.implies_constraint:
        run.certified += 1
        run.check(env.trace.terminal_gap <= bundle.correction.delta_pos,
                  f"certified episode {sample_id} missed the terminal constraint")


# -- serve ------------------------------------------------------------------

def novel_streams(preset, seed):
    """Not-encoded recordings the artifacts never saw, batch after batch."""
    base = dataset.PRESETS[preset]
    batch = 0
    while True:
        ss = np.random.SeedSequence(entropy=_seed_for(seed, "novel"), spawn_key=(batch,))
        cfg = replace(base, seed=int(ss.generate_state(1)[0]), n_encoded=1)
        yield from (s for s in _generate_inputs(cfg) if s.encoding_level == 0)
        batch += 1


def serve_phase(run, scale, bundle, seed, seconds):
    """Alter novel streams one at a time in all three modes.

    A closed loop: a live controller waits for each altered sample before
    the next tick, so streams are served one after another. Serves at least
    ``scale.serve_streams`` streams and for at least ``seconds`` seconds of
    its own time, yielding every ``scale.serve_chunk`` streams.
    """
    b = bundle
    dt = b.part.signal_config.dt
    offline_ms, open_ms, push_us, rl_ms = [], [], [], []
    ticks = misses = streams = online_ok = rl_ok = 0
    busy = 0.0
    source = novel_streams(scale.preset, seed)
    while streams < scale.serve_streams or busy < seconds:
        if streams and streams % scale.serve_chunk == 0:
            yield
        resumed = time.perf_counter()
        with run.untraced():
            sample = next(source)
        streams += 1
        n_ticks = sample.velocity.values.shape[0]

        run.attempted += 1
        try:
            t0 = time.perf_counter()
            blending.solve_offline(sample.velocity, b.part, b.table, b.model)
            offline_ms.append((time.perf_counter() - t0) * 1e3)
        except MotionBlendError as exc:
            run.failed += 1
            print(f"offline {sample.id}: {exc!r}", file=sys.stderr)

        # The session open is charged to the first tick; a tick whose work
        # failed counts as a miss.
        run.attempted += 1
        ticks += n_ticks
        served = 0
        try:
            t0 = time.perf_counter()
            session = online.start_session(b.part, b.table, b.model, b.schedule,
                                           sample.initial_position)
            opened = time.perf_counter() - t0
            open_ms.append(opened * 1e3)
            for row in sample.velocity.values:
                t0 = time.perf_counter()
                session.push(row)
                took = time.perf_counter() - t0
                push_us.append(took * 1e6)
                misses += (took + (opened if served == 0 else 0.0)) > dt
                served += 1
            result = session.finish()
            online_ok += result.decision.verdict is classifier.Verdict.ENCODED
        except MotionBlendError as exc:
            run.failed += 1
            misses += n_ticks - served
            print(f"online {sample.id}: {exc!r}", file=sys.stderr)

        run.attempted += 1
        try:
            t0 = time.perf_counter()
            env = _greedy_episode(b, b.agent, sample)
            classifier.classify(b.model, env.corrected_signal())
            rl_ms.append((time.perf_counter() - t0) * 1e3)
            rl_ok += env.trace.terminal_gap <= b.correction.delta_pos
            with run.untraced():
                _check_certificate(run, b, env, sample.id)
        except MotionBlendError as exc:
            run.failed += 1
            print(f"online+rl {sample.id}: {exc!r}", file=sys.stderr)
        busy += time.perf_counter() - resumed

    run.put("offline_p50_ms", percentile(offline_ms, 50), "ms")
    run.put("offline_tail_ms", tail(offline_ms), "ms")
    run.put("open_p50_ms", percentile(open_ms, 50), "ms")
    run.put("open_tail_ms", tail(open_ms), "ms")
    run.put("push_p50_us", percentile(push_us, 50), "us")
    run.put("push_p999_us", percentile(push_us, 99.9), "us")
    run.put("rl_p50_ms", percentile(rl_ms, 50), "ms")
    run.put("rl_tail_ms", tail(rl_ms), "ms")
    run.put("tick_miss_rate", misses / ticks, "ratio")
    run.put("online_success_rate", online_ok / streams, "ratio")
    run.put("rl_constraint_rate", rl_ok / streams, "ratio")

    with run.untraced():
        # Criterion 06: replaying a stored recording online ends at the
        # whole-signal solution.
        rng = np.random.default_rng(_seed_for(seed, "replays"))
        picks = rng.choice(len(b.part.not_encoded), scale.replay_checks, replace=False)
        for idx in picks:
            sample = b.part.not_encoded_samples[int(idx)]
            res = online.replay(b.part, b.table, b.model, b.schedule, sample)
            sol = blending.solve_offline(sample.velocity, b.part, b.table, b.model)
            run.check(res.c_history[-1] == sol.c_hat,
                      f"online replay of {sample.id} ends at {res.c_history[-1]}, "
                      f"offline solves {sol.c_hat}")


# -- workloads --------------------------------------------------------------

def interleave(*phases):
    """Advance the phases one step each in turn until all are done."""
    active = list(phases)
    while active:
        for phase in list(active):
            try:
                next(phase)
            except StopIteration:
                active.remove(phase)


def run_workload(run, name, primary, secondary, caches, seed, seconds, others=True):
    """One workload: its own phase, with set-up, at ``primary`` scale; unless
    ``others`` is false, also the other two at ``secondary`` scale on that
    preset's reused artifacts, with the fixed pipeline seed so their outputs
    must equal those artifacts."""
    full, small = caches[primary.preset], caches[secondary.preset]

    def own_setup():
        return timed_setup(run, primary.load_repeats, lambda: load_bundle(full))

    def agent_primary():
        bundle = yield from own_setup()
        yield from agent_phase(run, primary, full, bundle, seed, "agent")

    def serve_primary():
        bundle = yield from own_setup()
        yield from serve_phase(run, primary, bundle, seed, seconds)

    def small_build():
        return build_phase(run, secondary, small.data, PIPELINE_SEED, "small-build", small)

    def small_agent():
        return agent_phase(run, secondary, small, load_bundle(small), PIPELINE_SEED,
                           "small-agent", small)

    def small_serve():
        return serve_phase(run, secondary, load_bundle(small), PIPELINE_SEED, 0.0)

    own, other = {
        "build": (lambda: build_primary(run, primary, seed), (small_agent, small_serve)),
        "agent": (agent_primary, (small_build, small_serve)),
        "serve": (serve_primary, (small_build, small_agent)),
    }[name]
    interleave(own(), *(phase() for phase in other if others))
