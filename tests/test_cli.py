"""End-to-end command line pipeline on a small synthetic dataset."""

import numpy as np
import pytest

from motionblend import blending, classifier, dataset, rl
from motionblend.cli import derive_seed, main
from motionblend.classifier import Verdict
from motionblend.nn import Mlp


def run(argv, expect=0):
    rc = main(argv)
    assert rc == expect, f"{argv} returned {rc}, expected {expect}"
    return rc


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    """Full artifact chain: data -> classifier -> table -> agent."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "data": root / "data.txt",
        "clf": root / "clf",
        "table": root / "table.txt",
        "table_csv": root / "table.csv",
        "agent": root / "agent.txt",
        "log": root / "log.csv",
        "ini": root / "run.ini",
        "root": root,
    }
    run(["gen-data", "--preset", "small", "--out", str(paths["data"]),
         "--seed", "7"])
    run(["train-classifier", "--data", str(paths["data"]),
         "--out-dir", str(paths["clf"]), "--seed", "7",
         "--epochs", "150", "--splits", "2"])
    paths["model"] = paths["clf"] / "model.txt"
    paths["val_ids"] = paths["clf"] / "val_ids.csv"
    run(["build-table", "--data", str(paths["data"]),
         "--model", str(paths["model"]), "--out", str(paths["table"]),
         "--csv", str(paths["table_csv"]), "--grid-count", "11"])
    paths["ini"].write_text("[agent]\nlearn_start = 200\nbatch_size = 16\n")
    run(["--config", str(paths["ini"]), "train-agent",
         "--data", str(paths["data"]), "--model", str(paths["model"]),
         "--table", str(paths["table"]), "--out", str(paths["agent"]),
         "--log", str(paths["log"]), "--seed", "7", "--episodes", "4"])
    return paths


def read_report(path):
    header, rows = {}, []
    lines = path.read_text().splitlines()
    for line in lines:
        if line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            header[key] = value
    body = [l for l in lines if not l.startswith("#")]
    cols = body[0].split(",")
    for line in body[1:]:
        rows.append(dict(zip(cols, line.split(","))))
    return header, rows


def test_gen_data_is_byte_deterministic(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
    args = ["gen-data", "--preset", "small", "--n-encoded", "4",
            "--n-not-encoded", "4"]
    run(args + ["--out", str(a), "--seed", "3"])
    run(args + ["--out", str(b), "--seed", "3"])
    run(args + ["--out", str(c), "--seed", "4"])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_data_count_overrides(tmp_path):
    out = tmp_path / "tiny.txt"
    run(["gen-data", "--preset", "small", "--out", str(out),
         "--n-encoded", "3", "--n-not-encoded", "2"])
    samples = dataset.load(out)
    assert len(samples) == 5
    assert sum(s.encoding_level for s in samples) == 3


def test_classifier_artifacts(pipe):
    assert pipe["model"].exists()
    metrics = (pipe["clf"] / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("split,acc_encoded,")
    assert len(metrics) == 1 + 2 + 1  # header, two splits, mean row
    assert metrics[-1].startswith("mean,")
    assert (pipe["clf"] / "curves_split0.csv").exists()
    assert (pipe["clf"] / "curves_split1.csv").exists()

    lines = pipe["val_ids"].read_text().splitlines()
    samples = dataset.load(pipe["data"])
    assert lines[0] == f"# dataset={dataset.dataset_fingerprint(samples)}"
    assert lines[1] in ("# split=0", "# split=1")
    assert lines[2] == "id,label"
    known = {s.id: s.encoding_level for s in samples}
    for line in lines[3:]:
        sid, label = line.split(",")
        assert known[sid] == int(label)


def test_table_artifacts(pipe):
    table = blending.load_table(pipe["table"])
    samples = dataset.load(pipe["data"])
    part = dataset.partition(samples, 1)
    assert table.entries.shape == (len(part.not_encoded), len(part.encoded))
    assert table.grid.values.size == 11
    csv_lines = pipe["table_csv"].read_text().splitlines()
    assert len(csv_lines) == 1 + len(part.not_encoded)


def first_not_encoded(pipe):
    samples = dataset.load(pipe["data"])
    return next(s for s in samples if s.encoding_level == 0)


def test_alter_online_trace_layout(pipe, tmp_path):
    sample = first_not_encoded(pipe)
    out = tmp_path / "trace.csv"
    run(["alter", "--data", str(pipe["data"]), "--model", str(pipe["model"]),
         "--table", str(pipe["table"]), "--sample-id", sample.id,
         "--mode", "online", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "t,vhx,vhy,vhz,vax,vay,vaz,c"
    t_max = sample.velocity.config.t_max
    assert len(lines) == 1 + t_max
    first = lines[1].split(",")
    assert first[0] == "1" and lines[-1].split(",")[0] == str(t_max)
    assert np.array_equal([float(x) for x in first[1:4]], sample.velocity.values[0])
    # warm-up region passes the signal through untouched
    for line in lines[1:21]:
        cells = line.split(",")
        assert cells[1:4] == cells[4:7]
        assert float(cells[7]) == 1.0


def test_alter_offline_forced_identity(pipe, tmp_path):
    sample = first_not_encoded(pipe)
    out = tmp_path / "identity.csv"
    run(["alter", "--data", str(pipe["data"]), "--model", str(pipe["model"]),
         "--table", str(pipe["table"]), "--sample-id", sample.id,
         "--mode", "offline", "--force-c", "1.0", "--out", str(out)])
    for line in out.read_text().splitlines()[1:]:
        cells = line.split(",")
        assert cells[1:4] == cells[4:7]
        assert float(cells[7]) == 1.0


def test_alter_unknown_sample(pipe, tmp_path):
    run(["alter", "--data", str(pipe["data"]), "--model", str(pipe["model"]),
         "--table", str(pipe["table"]), "--sample-id", "nope",
         "--out", str(tmp_path / "x.csv")], expect=3)


def test_evaluate_online_report(pipe, tmp_path):
    out = tmp_path / "report.csv"
    traces = tmp_path / "traces"
    run(["evaluate", "--data", str(pipe["data"]), "--model", str(pipe["model"]),
         "--table", str(pipe["table"]), "--val-ids", str(pipe["val_ids"]),
         "--mode", "online", "--out", str(out), "--traces-dir", str(traces)])
    header, rows = read_report(out)
    assert header["mode"] == "online"
    assert int(header["n_samples"]) == len(rows) > 0
    for key in ("success_rate", "constraint_rate", "unclassified_rate"):
        assert 0.0 <= float(header[key]) <= 1.0
    samples = {s.id: s for s in dataset.load(pipe["data"])}
    for row in rows:
        assert samples[row["sample_id"]].encoding_level == 0
        assert row["constraint_ok"] in ("0", "1")
        assert (traces / f"trace_{row['sample_id']}.csv").exists()
    measured = np.mean([row["verdict"] == Verdict.ENCODED.value for row in rows])
    assert float(header["success_rate"]) == pytest.approx(measured)


def test_evaluate_forced_passthrough_matches_raw_classification(pipe, tmp_path):
    out = tmp_path / "forced.csv"
    run(["evaluate", "--data", str(pipe["data"]), "--model", str(pipe["model"]),
         "--table", str(pipe["table"]), "--val-ids", str(pipe["val_ids"]),
         "--mode", "online", "--force-c", "1.0", "--out", str(out)])
    _, rows = read_report(out)
    model = classifier.load_model(pipe["model"])
    samples = {s.id: s for s in dataset.load(pipe["data"])}
    for row in rows:
        direct = classifier.classify(model, samples[row["sample_id"]].velocity)
        assert row["verdict"] == direct.verdict.value
        assert float(row["raw_score"]) == pytest.approx(direct.raw_score)


def test_evaluate_rl_mode(pipe, tmp_path):
    out = tmp_path / "rl.csv"
    run(["evaluate", "--data", str(pipe["data"]), "--model", str(pipe["model"]),
         "--table", str(pipe["table"]), "--val-ids", str(pipe["val_ids"]),
         "--mode", "online+rl", "--agent", str(pipe["agent"]),
         "--out", str(out)])
    header, rows = read_report(out)
    assert header["mode"] == "online+rl"
    assert header["agent"] != "-"
    assert len(rows) == int(header["n_samples"])


def test_evaluate_rl_mode_needs_agent(pipe, tmp_path):
    run(["evaluate", "--data", str(pipe["data"]), "--model", str(pipe["model"]),
         "--table", str(pipe["table"]), "--val-ids", str(pipe["val_ids"]),
         "--mode", "online+rl", "--out", str(tmp_path / "x.csv")], expect=2)


def test_evaluate_rl_mode_refuses_agent_for_other_rho(pipe, tmp_path):
    agent = tmp_path / "agent_rho2.txt"
    net = Mlp([8, 16, 4], output="linear", rng=np.random.default_rng(0))
    agent.write_text(rl.serialize_agent(rl.AgentModel(q_net=net, rho=2)))
    run(["evaluate", "--data", str(pipe["data"]), "--model", str(pipe["model"]),
         "--table", str(pipe["table"]), "--val-ids", str(pipe["val_ids"]),
         "--mode", "online+rl", "--agent", str(agent),
         "--out", str(tmp_path / "x.csv")], expect=3)


def test_evaluate_rl_mode_refuses_forced_coefficient(pipe, tmp_path):
    # The agent's episodes use the table's coefficients, so a forced one
    # would be ignored while still changing the report's config hash.
    out = tmp_path / "x.csv"
    traces = tmp_path / "traces"
    run(["evaluate", "--data", str(pipe["data"]), "--model", str(pipe["model"]),
         "--table", str(pipe["table"]), "--val-ids", str(pipe["val_ids"]),
         "--mode", "online+rl", "--agent", str(pipe["agent"]), "--force-c", "0.0",
         "--out", str(out), "--traces-dir", str(traces)], expect=2)
    assert not out.exists() and not traces.exists()


def test_evaluate_rl_mode_hashes_the_table_once(pipe, tmp_path, monkeypatch):
    calls = []
    original = blending.serialize_table

    def counting(table):
        calls.append(table)
        return original(table)

    monkeypatch.setattr(blending, "serialize_table", counting)
    out = tmp_path / "rl.csv"
    run(["evaluate", "--data", str(pipe["data"]), "--model", str(pipe["model"]),
         "--table", str(pipe["table"]), "--val-ids", str(pipe["val_ids"]),
         "--mode", "online+rl", "--agent", str(pipe["agent"]),
         "--out", str(out)])
    assert len(calls) == 1
    header, _ = read_report(out)
    assert header["table"] == blending.table_fingerprint(calls[0])


def test_evaluate_unknown_val_id(pipe, tmp_path):
    bad = tmp_path / "ids.csv"
    bad.write_text("id,label\nghost,0\n")
    run(["evaluate", "--data", str(pipe["data"]), "--model", str(pipe["model"]),
         "--table", str(pipe["table"]), "--val-ids", str(bad),
         "--mode", "online", "--out", str(tmp_path / "x.csv")], expect=3)


def test_missing_dataset_is_a_parse_failure(pipe, tmp_path):
    run(["train-classifier", "--data", str(tmp_path / "absent.txt"),
         "--out-dir", str(tmp_path / "clf")], expect=3)


def test_missing_config_file_is_a_config_error(pipe, tmp_path):
    run(["--config", str(tmp_path / "absent.ini"), "gen-data",
         "--preset", "small", "--out", str(tmp_path / "d.txt")], expect=2)


def test_bad_config_value_is_a_config_error(pipe, tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[schedule]\nt0 = banana\n")
    sample = first_not_encoded(pipe)
    run(["--config", str(ini), "alter", "--data", str(pipe["data"]),
         "--model", str(pipe["model"]), "--table", str(pipe["table"]),
         "--sample-id", sample.id, "--out", str(tmp_path / "x.csv")], expect=2)


def test_stale_model_is_refused(pipe, tmp_path):
    other = tmp_path / "other.txt"
    run(["gen-data", "--preset", "small", "--out", str(other), "--seed", "99"])
    run(["build-table", "--data", str(other), "--model", str(pipe["model"]),
         "--out", str(tmp_path / "t.txt")], expect=4)


def test_truncated_model_header_is_a_parse_failure(pipe, tmp_path):
    lines = pipe["model"].read_text().splitlines()
    assert lines[5].startswith("layer 0 ")
    broken = tmp_path / "model.txt"
    broken.write_text("\n".join(lines[:5] + ["layer 0"] + lines[6:]) + "\n")
    run(["build-table", "--data", str(pipe["data"]), "--model", str(broken),
         "--out", str(tmp_path / "t.txt")], expect=3)


def test_bad_model_thresholds_are_a_parse_failure(pipe, tmp_path):
    lines = pipe["model"].read_text().splitlines()
    assert lines[2].startswith("thresholds ")
    broken = tmp_path / "model.txt"
    broken.write_text("\n".join(lines[:2] + ["thresholds nan nan"] + lines[3:]) + "\n")
    run(["build-table", "--data", str(pipe["data"]), "--model", str(broken),
         "--out", str(tmp_path / "t.txt")], expect=3)


def test_table_entry_outside_grid_is_a_parse_failure(pipe, tmp_path):
    lines = pipe["table"].read_text().splitlines()
    cells = lines[6].split()
    cells[0] = "99"
    broken = tmp_path / "table.txt"
    broken.write_text("\n".join(lines[:6] + [" ".join(cells)] + lines[7:]) + "\n")
    run(["alter", "--data", str(pipe["data"]), "--model", str(pipe["model"]),
         "--table", str(broken), "--sample-id", "n0000", "--mode", "offline",
         "--out", str(tmp_path / "trace.csv")], expect=3)


def test_config_file_overrides_schedule(pipe, tmp_path):
    # No --t0 flag exists: the INI section is the only path in, and a
    # longer warm-up must show up as pass-through rows in the trace.
    ini = tmp_path / "late.ini"
    ini.write_text("[schedule]\nt0 = 30\n")
    sample = first_not_encoded(pipe)
    out = tmp_path / "late.csv"
    run(["--config", str(ini), "alter", "--data", str(pipe["data"]),
         "--model", str(pipe["model"]), "--table", str(pipe["table"]),
         "--sample-id", sample.id, "--mode", "online", "--out", str(out)])
    for line in out.read_text().splitlines()[1:31]:
        assert float(line.split(",")[7]) == 1.0


def test_flag_beats_config_file(pipe, tmp_path):
    ini = tmp_path / "episodes.ini"
    ini.write_text("[agent]\nepisodes = 999999\n")
    log = tmp_path / "log.csv"
    run(["--config", str(ini), "train-agent", "--data", str(pipe["data"]),
         "--model", str(pipe["model"]), "--table", str(pipe["table"]),
         "--out", str(tmp_path / "a.txt"), "--log", str(log),
         "--episodes", "2"])
    assert len(log.read_text().splitlines()) == 1 + 2


def test_derive_seed_streams_are_independent_and_stable():
    seeds = {s: derive_seed(7, s) for s in ("data", "classifier", "agent")}
    assert len(set(seeds.values())) == 3
    assert derive_seed(7, "data") == seeds["data"]
    assert derive_seed(8, "data") != seeds["data"]
    expected = int(
        np.random.SeedSequence(entropy=7, spawn_key=(0,)).generate_state(1)[0]
    )
    assert seeds["data"] == expected
