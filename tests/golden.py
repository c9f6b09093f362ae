"""Golden digests of the small-preset pipeline.

Runs every CLI stage in process through ``motionblend.cli.main`` with root
seed 0 and records the sha256 of each file it writes, in the order the
stages write them. ``tests/test_golden.py`` compares a fresh run with the
committed ``tests/golden_small.json``.

A change that alters numerics on purpose regenerates the file from the
repository root with

    PYTHONPATH=src python3 tests/golden.py

and says so, with every acceptance criterion's value before and after.
Never regenerate it to hide a difference nobody can explain.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

from motionblend.cli import main
from motionblend.dataset import load

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_small.json")
SEED = 0
AGENT_EPISODES = 12


def environment() -> dict:
    """numpy version and the BLAS numpy reports it was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_pipeline(root) -> list:
    """Run the pipeline under ``root``; returns one ``{stage, file, sha256}``
    entry per written file, files of one stage in sorted order."""
    root = str(root)
    outputs = []
    seen = set()

    def path(name):
        return os.path.join(root, name)

    def stage(label, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"stage {label} exited {code}")
        written = []
        for directory, _, files in os.walk(root):
            for name in files:
                rel = os.path.relpath(os.path.join(directory, name), root)
                if rel not in seen:
                    written.append(rel)
        for rel in sorted(written):
            seen.add(rel)
            outputs.append({"stage": label, "file": rel,
                            "sha256": _sha256(os.path.join(root, rel))})

    data, model, table = path("data.txt"), path("clf/model.txt"), path("table.txt")
    agent, val_ids = path("agent.txt"), path("clf/val_ids.csv")
    stage("gen-data", ["gen-data", "--preset", "small", "--out", data, "--seed", SEED])
    stage("train-classifier", ["train-classifier", "--data", data,
                               "--out-dir", path("clf"), "--seed", SEED])
    stage("build-table", ["build-table", "--data", data, "--model", model,
                          "--out", table, "--csv", path("table.csv")])
    stage("train-agent", ["train-agent", "--data", data, "--model", model,
                          "--table", table, "--out", agent,
                          "--log", path("train_log.csv"), "--seed", SEED,
                          "--episodes", AGENT_EPISODES])
    artifacts = ["--data", data, "--model", model, "--table", table]
    for name, extra in [
        ("offline", ["--mode", "offline"]),
        ("online", ["--mode", "online"]),
        ("online_rl", ["--mode", "online+rl", "--agent", agent]),
        ("offline_c05", ["--mode", "offline", "--force-c", "0.5"]),
    ]:
        stage(f"evaluate {name}", ["evaluate", *artifacts, "--val-ids", val_ids,
                                   *extra, "--out", path(f"report_{name}.csv"),
                                   "--traces-dir", path(f"traces_{name}")])
    sample_id = next(s.id for s in load(data) if s.encoding_level == 0)
    for mode in ("offline", "online"):
        stage(f"alter {mode}", ["alter", *artifacts, "--sample-id", sample_id,
                                "--mode", mode, "--out", path(f"alter_{mode}.csv")])
    return outputs


def regenerate(work_dir) -> None:
    record = {**environment(), "seed": SEED, "agent_episodes": AGENT_EPISODES,
              "outputs": run_pipeline(work_dir)}
    with open(GOLDEN, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(record['outputs'])} digests to {GOLDEN}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        regenerate(work)
