"""Command-line pipeline: data synthesis through evaluation.

Every stage reads and writes plain text artifacts and is deterministic in
the root seed, which is split into independent per-stage streams. Stages
that consume artifacts verify the recorded fingerprints and refuse stale
combinations instead of producing silently inconsistent numbers.

Exit codes: 0 success, 2 bad configuration, 3 bad data, 4 stale artifact,
1 anything else.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import blending, classifier, dataset, online, rl
from .errors import (
    ConfigError,
    DatasetParseError,
    DomainError,
    FeatureError,
    InvalidSignalError,
    MotionBlendError,
    PrefixUniquenessError,
    ShapeMismatchError,
    StaleArtifactError,
    TrivialPartitionError,
)

_SEED_STREAMS = {"data": 0, "classifier": 1, "agent": 2}


def derive_seed(root_seed: int, stream: str) -> int:
    """Independent per-stage seed from the root seed, stable across runs."""
    key = _SEED_STREAMS[stream]
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(key,))
    return int(ss.generate_state(1)[0])


def _config_hash(params: dict) -> str:
    text = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return hashlib.sha256(text.encode()).hexdigest()


def _load_config(path):
    cp = configparser.ConfigParser()
    if path:
        read = cp.read(path)
        if not read:
            raise ConfigError(f"config file {path} not found or unreadable")
    return cp

def _get(args, cp, section, key, default, cast=float):
    """Flag > config file > default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if cp.has_option(section, key):
        raw = cp.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"config [{section}] {key}: {exc}") from exc
    return default


def _schedule_from(args, cp) -> online.OnlineSchedule:
    return online.OnlineSchedule(
        t0=_get(args, cp, "schedule", "t0", 20, int),
        delta_t=_get(args, cp, "schedule", "delta_t", 10, int),
    )


def _correction_from(args, cp) -> rl.CorrectionConfig:
    return rl.CorrectionConfig(
        k_u=_get(args, cp, "correction", "k_u", 10.0),
        delta_pos=_get(args, cp, "correction", "delta_pos", 20.0),
        k_r=_get(args, cp, "correction", "k_r", 0.01),
        k_alpha=_get(args, cp, "correction", "k_alpha", 10.0),
        r_in=_get(args, cp, "correction", "r_in", 100.0),
        r_exit=_get(args, cp, "correction", "r_exit", -1000.0),
        gamma=_get(args, cp, "correction", "gamma", 0.99),
    )


def _load_samples(path):
    samples = dataset.load(path)
    if not samples:
        raise DatasetParseError(f"dataset {path} is empty")
    return samples


def _load_partition(args, cp):
    """Load the dataset and the classifier, refuse a classifier trained on
    other data, and partition. Returns the samples, the partition, the
    classifier and the dataset fingerprint, computed once."""
    samples = _load_samples(args.data)
    model = classifier.load_model(args.model)
    fingerprint = dataset.dataset_fingerprint(samples)
    if model.dataset_fingerprint not in ("-", fingerprint):
        raise StaleArtifactError(
            "classifier was trained on a different dataset than the one provided"
        )
    part = dataset.partition(samples, _get(args, cp, "run", "e_des", 1, int))
    return samples, part, model, fingerprint


def _load_bundle(args, cp, agent=None):
    """:func:`_load_partition` plus the table, bound with the run's schedule,
    correction and ``agent`` into one checked bundle."""
    samples, part, model, fingerprint = _load_partition(args, cp)
    bundle = rl.AlterationBundle(part, blending.load_table(args.table), model,
                                 _schedule_from(args, cp), _correction_from(args, cp),
                                 agent)
    return samples, bundle, fingerprint


def _axis_names(rho: int, prefix: str):
    if rho == 3:
        return [prefix + a for a in "xyz"]
    return [f"{prefix}{i}" for i in range(rho)]


def _write_trace(path, v_h_values, v_a_values, c_per_t):
    rho = v_h_values.shape[1]
    header = ["t"] + _axis_names(rho, "vh") + _axis_names(rho, "va") + ["c"]
    lines = [",".join(header)]
    for t in range(v_h_values.shape[0]):
        cells = [str(t + 1)]
        cells += [repr(float(x)) for x in v_h_values[t]]
        cells += [repr(float(x)) for x in v_a_values[t]]
        cells.append(repr(float(c_per_t[t])))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_gen_data(args) -> int:
    cp = _load_config(args.config)
    preset = dataset.PRESETS[args.preset]
    overrides = {}
    for key in ("n_encoded", "n_not_encoded"):
        value = _get(args, cp, "data", key, None, int)
        if value is not None:
            overrides[key] = value
    for key in ("jitter_std", "peak_scale", "duration_scale", "hesitation_depth"):
        value = _get(args, cp, "data", key, None, float)
        if value is not None:
            overrides[key] = value
    cfg = replace(preset, seed=derive_seed(args.seed, "data"), **overrides)
    samples = dataset.generate_synthetic(cfg)
    dataset.save(args.out, samples)
    n_enc = sum(1 for s in samples if s.encoding_level == 1)
    print(f"wrote {len(samples)} samples ({n_enc} encoded, {len(samples) - n_enc} not) to {args.out}")
    print(f"dataset fingerprint {dataset.dataset_fingerprint(samples)}")
    return 0


def cmd_train_classifier(args) -> int:
    cp = _load_config(args.config)
    samples = _load_samples(args.data)
    e_des = _get(args, cp, "run", "e_des", 1, int)
    part = dataset.partition(samples, e_des)
    cfg = classifier.TrainConfig(
        learning_rate=_get(args, cp, "classifier", "learning_rate", 0.001),
        dropout_rate=_get(args, cp, "classifier", "dropout_rate", 0.5),
        epochs=_get(args, cp, "classifier", "epochs", 300, int),
        batch_size=_get(args, cp, "classifier", "batch_size", 32, int),
        seed=derive_seed(args.seed, "classifier"),
        splits=_get(args, cp, "classifier", "splits", 5, int),
        train_fraction=_get(args, cp, "classifier", "train_fraction", 0.7),
        patience=_get(args, cp, "classifier", "patience", 30, int),
    )
    started = time.time()
    report = classifier.cross_validate(part, cfg)
    model = report.best_model
    model.dataset_fingerprint = dataset.dataset_fingerprint(samples)
    os.makedirs(args.out_dir, exist_ok=True)
    model_path = os.path.join(args.out_dir, "model.txt")
    classifier.save_model(model_path, model)

    metric_names = [
        "acc_encoded", "acc_not_encoded", "misclassified_encoded",
        "misclassified_not_encoded", "unclassified_rate", "overall_acc",
    ]
    lines = ["split," + ",".join(metric_names) + ",epochs"]
    for i, m in enumerate(report.splits):
        cells = [str(i)] + [repr(getattr(m, n)) for n in metric_names] + [str(m.epochs_ran)]
        lines.append(",".join(cells))
    lines.append(
        "mean," + ",".join(repr(report.mean(n)) for n in metric_names) + ","
    )
    with open(os.path.join(args.out_dir, "metrics.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    for i, curves in enumerate(report.curves):
        with open(os.path.join(args.out_dir, f"curves_split{i}.csv"), "w") as fh:
            fh.write(classifier.curves_to_csv(curves))

    with open(os.path.join(args.out_dir, "val_ids.csv"), "w") as fh:
        fh.write(f"# dataset={model.dataset_fingerprint}\n")
        fh.write(f"# split={report.best_index}\n")
        fh.write("id,label\n")
        for s in report.best_val_part.all:
            fh.write(f"{s.id},{s.encoding_level}\n")

    print(f"trained {cfg.splits} splits in {time.time() - started:.1f}s; "
          f"best split {report.best_index}")
    for name in metric_names:
        print(f"mean {name}: {report.mean(name):.4f}")
    print(f"model written to {model_path}")
    print(f"classifier fingerprint {classifier.model_fingerprint(model)}")
    return 0


def cmd_build_table(args) -> int:
    cp = _load_config(args.config)
    _, part, model, _ = _load_partition(args, cp)
    grid = blending.BlendGrid.uniform(_get(args, cp, "grid", "count", 51, int))
    started = time.time()
    table = blending.compute_table(part, grid, model, workers=args.workers)
    blending.save_table(args.out, table)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(blending.table_to_csv(table))
    n_zero = int(np.sum(table.entries == 0))
    print(f"built {table.entries.shape[0]}x{table.entries.shape[1]} table "
          f"in {time.time() - started:.1f}s ({n_zero} entries at grid index 0)")
    print(f"table fingerprint {blending.table_fingerprint(table)}")
    return 0


def _find_sample(samples, sample_id):
    for s in samples:
        if s.id == sample_id:
            return s
    raise DatasetParseError(f"sample id {sample_id!r} not in dataset")


def cmd_alter(args) -> int:
    cp = _load_config(args.config)
    samples, bundle, _ = _load_bundle(args, cp)
    sample = _find_sample(samples, args.sample_id)
    out = bundle.alter(sample, args.mode, args.force_c)
    _write_trace(args.out, sample.velocity.values, out.v_a.values, out.c_profile)
    print(f"sample {sample.id} mode {args.mode}: c={out.c_final:.4f} "
          f"verdict={out.decision.verdict.value} score={out.decision.raw_score:.4f} "
          f"terminal_gap={out.terminal_gap:.2f}mm")
    print(f"trace written to {args.out}")
    return 0


def cmd_train_agent(args) -> int:
    cp = _load_config(args.config)
    _, bundle, _ = _load_bundle(args, cp)
    train_cfg = rl.AgentTrainConfig(
        episodes=_get(args, cp, "agent", "episodes", 1100, int),
        learning_rate=_get(args, cp, "agent", "learning_rate", 0.001),
        epsilon_decay=_get(args, cp, "agent", "epsilon_decay", 0.995),
        epsilon_floor=_get(args, cp, "agent", "epsilon_floor", 0.05),
        replay_capacity=_get(args, cp, "agent", "replay_capacity", 50000, int),
        batch_size=_get(args, cp, "agent", "batch_size", 64, int),
        learn_start=_get(args, cp, "agent", "learn_start", 1000, int),
        seed=derive_seed(args.seed, "agent"),
        mode=args.c_mode,
    )
    started = time.time()
    agent, log = rl.train_agent(bundle.part, bundle.table, bundle.model,
                                bundle.correction, train_cfg, bundle.schedule)
    rl.save_agent(args.out, agent)
    with open(args.log, "w") as fh:
        fh.write(rl.training_log_to_csv(log))
    last = log[-1] if log else {"moving_avg_100": float("nan")}
    certified_tail = sum(row["certified"] for row in log[-100:])
    print(f"trained {train_cfg.episodes} episodes in {time.time() - started:.1f}s")
    print(f"final 100-episode moving average {last['moving_avg_100']:.1f}; "
          f"{certified_tail} of the last 100 episodes certified")
    print(f"agent written to {args.out}, log to {args.log}")
    return 0


def _read_val_ids(path):
    ids = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line == "id,label":
                continue
            ids.append(line.split(",")[0])
    if not ids:
        raise DatasetParseError(f"no validation ids in {path}")
    return ids


def cmd_evaluate(args) -> int:
    cp = _load_config(args.config)
    agent = None
    if args.mode == "online+rl":
        if not args.agent:
            raise ConfigError("mode online+rl needs --agent")
        agent = rl.load_agent(args.agent)
    samples, bundle, ds_fingerprint = _load_bundle(args, cp, agent)
    e_des, schedule, correction = bundle.part.e_des, bundle.schedule, bundle.correction
    val_ids = set(_read_val_ids(args.val_ids))
    by_id = {s.id: s for s in samples}
    missing = sorted(val_ids - set(by_id))
    if missing:
        raise DatasetParseError(f"validation ids not in dataset: {missing[:5]}")
    targets = [by_id[i] for i in sorted(val_ids) if by_id[i].encoding_level != e_des]
    if not targets:
        raise DatasetParseError("validation split has no not-encoded samples")
    outcomes = [bundle.alter(sample, args.mode, args.force_c) for sample in targets]
    if args.traces_dir:
        os.makedirs(args.traces_dir, exist_ok=True)
        for sample, out in zip(targets, outcomes):
            _write_trace(os.path.join(args.traces_dir, f"trace_{sample.id}.csv"),
                         sample.velocity.values, out.v_a.values, out.c_profile)

    n = len(outcomes)
    verdicts = [out.decision.verdict for out in outcomes]
    inside = [int(out.terminal_gap <= correction.delta_pos) for out in outcomes]
    success = verdicts.count(classifier.Verdict.ENCODED) / n
    constraint = sum(inside) / n
    unclassified = verdicts.count(classifier.Verdict.UNCLASSIFIED) / n
    cfg_hash = _config_hash(
        {
            "mode": args.mode,
            "e_des": e_des,
            "t0": schedule.t0,
            "delta_t": schedule.delta_t,
            "k_u": correction.k_u,
            "delta_pos": correction.delta_pos,
            "force_c": args.force_c,
        }
    )
    header = [
        "# motionblend evaluation v1",
        f"# mode={args.mode}",
        f"# config={cfg_hash}",
        f"# dataset={ds_fingerprint}",
        f"# classifier={classifier.model_fingerprint(bundle.model)}",
        f"# table={bundle.table_fingerprint}",
        f"# agent={rl.agent_fingerprint(agent) if agent else '-'}",
        f"# n_samples={n}",
        f"# success_rate={success!r}",
        f"# constraint_rate={constraint!r}",
        f"# unclassified_rate={unclassified!r}",
    ]
    lines = header + ["sample_id,c_final,raw_score,verdict,terminal_gap,"
                      "constraint_ok,approximate"]
    for sample, out, ok in zip(targets, outcomes, inside):
        lines.append(f"{sample.id},{out.c_final!r},{out.decision.raw_score!r},"
                     f"{out.decision.verdict.value},{out.terminal_gap!r},{ok},"
                     f"{int(out.approximate)}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"mode {args.mode}: n={n} success_rate={success:.4f} "
          f"constraint_rate={constraint:.4f} unclassified_rate={unclassified:.4f}")
    print(f"report written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionblend",
        description="Alter motion velocity signals toward a target encoding.",
        epilog=(
            "typical pipeline: gen-data -> train-classifier -> build-table "
            "-> train-agent -> evaluate"
        ),
    )
    parser.add_argument("--config", help="INI file with per-stage sections")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a labeled dataset")
    p.add_argument("--preset", choices=sorted(dataset.PRESETS), default="paper-scale")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-encoded", type=int, dest="n_encoded")
    p.add_argument("--n-not-encoded", type=int, dest="n_not_encoded")
    p.add_argument("--jitter-std", type=float, dest="jitter_std")
    p.set_defaults(func=cmd_gen_data, peak_scale=None, duration_scale=None,
                   hesitation_depth=None)

    p = sub.add_parser("train-classifier", help="cross-validate and save the encoder")
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int)
    p.add_argument("--splits", type=int)
    p.set_defaults(func=cmd_train_classifier)

    p = sub.add_parser("build-table", help="compute the pairwise coefficient table")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also export the coefficient matrix as CSV")
    p.add_argument("--grid-count", type=int, dest="count")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_build_table)

    p = sub.add_parser("alter", help="alter one stored signal")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--sample-id", required=True)
    p.add_argument("--mode", choices=["offline", "online"], default="online")
    p.add_argument("--out", required=True, help="trace CSV path")
    p.add_argument("--force-c", type=float, help="debug: bypass the table lookup")
    p.set_defaults(func=cmd_alter)

    p = sub.add_parser("train-agent", help="train the correction gate policy")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--out", required=True, help="agent file path")
    p.add_argument("--log", required=True, help="training log CSV path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--episodes", type=int)
    p.add_argument("--c-mode", choices=["online", "offline"], default="online",
                   help="how the episode coefficient profile is produced")
    p.set_defaults(func=cmd_train_agent)

    p = sub.add_parser("evaluate", help="run the validation split through a mode")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--agent", help="agent file (required for online+rl)")
    p.add_argument("--val-ids", required=True)
    p.add_argument("--mode", choices=["offline", "online", "online+rl"],
                   default="online")
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--traces-dir", help="directory for per-sample trace CSVs")
    p.add_argument("--force-c", type=float, help="debug: force the coefficient")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        DatasetParseError,
        TrivialPartitionError,
        PrefixUniquenessError,
        InvalidSignalError,
        ShapeMismatchError,
        FeatureError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StaleArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MotionBlendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
