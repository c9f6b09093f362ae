"""Byte identity of every small-preset pipeline output (see golden.py)."""

import json

from golden import GOLDEN, environment, run_pipeline


def test_small_pipeline_matches_golden_digests(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    produced = {o["file"]: o["sha256"] for o in run_pipeline(tmp_path)}
    env = environment()
    context = (
        f"golden recorded with numpy {golden['numpy']} and {golden['blas']}; "
        f"this run has numpy {env['numpy']} and {env['blas']}"
    )
    for entry in golden["outputs"]:
        name = entry["file"]
        assert name in produced, f"stage {entry['stage']} did not write {name}"
        assert produced[name] == entry["sha256"], (
            f"first differing output: {name} (stage {entry['stage']}); {context}"
        )
    extra = sorted(set(produced) - {o["file"] for o in golden["outputs"]})
    assert not extra, f"outputs missing from {GOLDEN}: {extra}"
