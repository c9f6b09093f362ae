"""Self-test of the benchmark on the small preset (``--fast``).

Runs every workload, every output check and the traced run, and holds the
output to the contract in BENCHMARK.json. Not part of the tier-1 suite (it
starts benchmark processes); run it with

    python3 -m pytest perfbench
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--fast")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = result(workload, 0)
    spec = SPEC["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = result(workload, 1), result(workload, 1)
    spec = SPEC["per_layer"]
    assert list(first["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
        if m["unit"] == "count":
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(*SPEC["command"][2:], "--workload", WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path,
                 script=str(tmp_path / SPEC["command"][1]))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_patches_every_binding():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    tracing = importlib.import_module("tracing")
    from motionblend import blending, classifier, nn, online, rl

    def bindings():
        return (classifier.forward, blending.forward, online.check_table_matches,
                online.project, rl.solve_offline, nn.Adam.step)

    originals = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = bindings()
        assert all(p is not o for p, o in zip(patched, originals))
        assert blending.forward is classifier.forward
        assert online.check_table_matches is blending.check_table_matches
        assert rl.solve_offline is blending.solve_offline
    finally:
        tracer.uninstall()
    assert bindings() == originals
