"""The package surface: its exported names and the demo scripts."""

import os
import subprocess
import sys

import pytest

import motionblend

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_exported_name_resolves():
    missing = [name for name in motionblend.__all__ if not hasattr(motionblend, name)]
    assert not missing
    assert len(set(motionblend.__all__)) == len(motionblend.__all__)


@pytest.mark.parametrize(
    "script",
    [
        "01_offline_alteration.py",
        "02_streaming_session.py",
        pytest.param("03_gated_correction.py", marks=pytest.mark.slow),
    ],
)
def test_demo_runs(script):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", script)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
