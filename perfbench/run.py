#!/usr/bin/env python3
"""motionblend benchmark: the build, agent and serve workloads.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` the workload's own phase runs
once without and once with span tracing, and the metrics are the per-layer
ones. The dataset, classifier, table and agent that ``agent`` and ``serve``
consume are built once per checkout by the code under test, keyed by a hash
of its sources and of the recipe, and reused by later runs. ``--fast`` runs
every phase on the small preset, for the benchmark's own tests. See
perfbench/README.md.
"""

import os

# BLAS threads per process, fixed before numpy loads. The parallel table
# build runs nproc worker processes, so one thread each keeps processes x
# threads <= nproc; every stage uses the same setting on every commit.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import fcntl  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "motionblend")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["build", "agent", "serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="minimum length of the serve phase")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--fast", action="store_true",
                   help="small preset and tiny sizes everywhere (self-test)")
    return p.parse_args(argv)


def import_program():
    """Import motionblend from this checkout's sources, or exit 2."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no motionblend sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import motionblend

    if os.path.dirname(os.path.abspath(motionblend.__file__)) != PACKAGE:
        print(f"error: motionblend imported from {motionblend.__file__}, "
              f"not from {PACKAGE}", file=sys.stderr)
        sys.exit(2)


def blas_threads():
    """Threads OpenBLAS reports for this process, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git(*args):
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_sha": sha or "unknown",
        "dirty": None if status is None else bool(status),
    }


def source_key(recipe):
    """Hash of the program's sources, the code that builds the artifacts and
    the recipe."""
    h = hashlib.sha256(json.dumps(recipe, sort_keys=True).encode())
    paths = [os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.py")]
    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths += [os.path.join(dirpath, n) for n in sorted(filenames) if n.endswith(".py")]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:20]


def artifacts(workloads, scale, nproc):
    """Dataset, classifier, table and agent for ``scale``, built once per
    checkout and source state; concurrent runs wait on a lock."""
    recipe = {"preset": scale.preset, "episodes": scale.agent_episodes,
              "seed": workloads.PIPELINE_SEED}
    final = os.path.join(WORK, "artifacts", f"{scale.preset}-{source_key(recipe)}")
    os.makedirs(os.path.dirname(final), exist_ok=True)
    with open(os.path.join(WORK, "artifacts", ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isdir(final):
            staging = f"{final}.tmp{os.getpid()}"
            shutil.rmtree(staging, ignore_errors=True)
            os.makedirs(staging)
            workloads.produce(workloads.Run(staging, nproc), scale.preset,
                              scale.agent_episodes, staging)
            os.rename(staging, final)
    return workloads.Artifacts.under(final)


def main(argv=None):
    args = parse_args(argv)
    # The metrics printed, their units and their order come from here.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import_program()
    import workloads
    from tracing import Tracer

    nproc = len(os.sched_getaffinity(0))
    env = environment(nproc)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)

    if args.fast:
        primary = secondary = workloads.FAST
    else:
        primary, secondary = workloads.FULL, workloads.SMALL
    caches = {}
    for scale in (secondary, primary):
        caches[scale.preset] = artifacts(workloads, scale, nproc)

    work = os.path.join(WORK, f"run{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)

    def one_pass(tag, tracer=None, traced_run=False):
        run = workloads.Run(os.path.join(work, tag), nproc, tracer)
        started = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            workloads.run_workload(run, args.workload, primary, secondary, caches,
                                   args.seed, 0.0 if traced_run else args.seconds,
                                   others=not traced_run)
        finally:
            if tracer:
                tracer.uninstall()
        return run, time.perf_counter() - started

    try:
        if args.trace:
            # Only the workload's own phase, with the serve loop at its
            # minimum stream count. Both passes do identical work, so exact
            # counts repeat and the difference in wall time is the overhead.
            base, untraced_s = one_pass("untraced", traced_run=True)
            tracer = Tracer()
            run, traced_s = one_pass("traced", tracer, traced_run=True)
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            tracer.write(os.path.join(WORK, "traces", f"{args.workload}.tsv"))
            values = tracer.metrics(traced_s - untraced_s, untraced_s,
                                    run.certified, run.rl_episodes)
            declared = spec["per_layer"]
            attempted = base.attempted + run.attempted
            failed = base.failed + run.failed
        else:
            run, _ = one_pass("run")
            values = run.metrics
            declared = spec["end_to_end"]
            attempted, failed = run.attempted, run.failed
    except workloads.StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for entry in declared:
        value, unit = values[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']} measured in {unit}, declared in {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # On SIGTERM unwind normally, so the pool's workers are joined and the
    # scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except Exception:  # report, never print a result
        traceback.print_exc()
        sys.exit(1)
