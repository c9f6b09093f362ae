"""Span tracing from outside the program, by wrapping its public functions.

Every traced name is patched in each ``motionblend`` module that binds it
(``from .classifier import forward`` leaves its own reference in
``blending``), and methods are patched on their classes. Spans are kept in
memory as ``[name, start, end, parent]`` and written out when the run ends.
Spans from process-pool workers are not collected: a forked worker records
into its own copy of the tracer, which is dropped with the worker.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name). Functions are patched wherever a
# motionblend module binds them; "Class.method" entries on the class.
TRACED = [
    ("cli", "cmd_train_classifier", "cli.train_classifier"),
    ("cli", "cmd_build_table", "cli.build_table"),
    ("cli", "cmd_train_agent", "cli.train_agent"),
    ("dataset", "generate_synthetic", "dataset.generate_synthetic"),
    ("dataset", "load", "dataset.load"),
    ("dataset", "validate_prefix_uniqueness", "dataset.validate_prefix_uniqueness"),
    ("signals", "project", "signals.project"),
    ("signals", "integrate", "signals.integrate"),
    ("nn", "Mlp.forward", "nn.Mlp.forward"),
    ("nn", "bce_gradients", "nn.bce_gradients"),
    ("nn", "q_gradients", "nn.q_gradients"),
    ("nn", "Adam.step", "nn.Adam.step"),
    # featurize() is a thin slice over _featurize_values, which the table
    # scan also calls directly; wrapping only the latter counts each
    # resampling once.
    ("classifier", "_featurize_values", "classifier.featurize"),
    ("classifier", "forward", "classifier.forward"),
    ("classifier", "classify", "classifier.classify"),
    ("classifier", "model_fingerprint", "classifier.model_fingerprint"),
    ("blending", "_TableContext.scan_row", "blending.scan_row"),
    ("blending", "check_table_matches", "blending.check_table_matches"),
    ("blending", "solve_offline", "blending.solve_offline"),
    ("blending", "blend", "blending.blend"),
    ("online", "start_session", "online.start_session"),
    ("online", "OnlineSession.push", "online.OnlineSession.push"),
    ("online", "OnlineSession.finish", "online.OnlineSession.finish"),
    ("rl", "make_episode", "rl.make_episode"),
    ("rl", "CorrectionEnv.__init__", "rl.CorrectionEnv.__init__"),
    ("rl", "CorrectionEnv.step", "rl.CorrectionEnv.step"),
    ("rl", "AgentModel.act_greedy", "rl.AgentModel.act_greedy"),
]

# Reported per-layer metrics: span name -> (suffix, unit) list. "self_*" is
# the summed span time minus the time covered by child spans.
SPAN_METRICS = {
    "cli.train_classifier": [("self_s", "s")],
    "cli.build_table": [("self_s", "s")],
    "cli.train_agent": [("self_s", "s")],
    "dataset.generate_synthetic": [("self_s", "s")],
    "dataset.load": [("self_ms", "ms")],
    "dataset.validate_prefix_uniqueness": [("calls", "count"), ("self_ms", "ms")],
    "signals.project": [("calls", "count"), ("self_ms", "ms")],
    "signals.integrate": [("calls", "count"), ("self_ms", "ms")],
    "nn.Mlp.forward": [("calls", "count"), ("self_ms", "ms")],
    "nn.bce_gradients": [("calls", "count"), ("self_ms", "ms")],
    "nn.q_gradients": [("calls", "count"), ("self_ms", "ms")],
    "nn.Adam.step": [("calls", "count"), ("self_ms", "ms"), ("p50_us", "us")],
    "classifier.featurize": [("calls", "count"), ("self_ms", "ms")],
    "classifier.forward": [("calls", "count"), ("self_ms", "ms")],
    "classifier.classify": [("calls", "count"), ("self_ms", "ms")],
    "classifier.model_fingerprint": [("calls", "count"), ("self_ms", "ms")],
    "blending.scan_row": [("calls", "count"), ("self_ms", "ms"), ("p50_ms", "ms")],
    "blending.check_table_matches": [("calls", "count"), ("self_ms", "ms")],
    "blending.solve_offline": [("calls", "count"), ("self_ms", "ms")],
    "blending.blend": [("calls", "count"), ("self_ms", "ms")],
    "online.start_session": [("calls", "count"), ("self_ms", "ms")],
    "online.OnlineSession.push": [("calls", "count"), ("self_us", "us")],
    "online.OnlineSession.finish": [("calls", "count"), ("self_ms", "ms")],
    "rl.make_episode": [("calls", "count"), ("self_ms", "ms")],
    "rl.CorrectionEnv.step": [("calls", "count"), ("self_us", "us")],
    "rl.AgentModel.act_greedy": [("calls", "count"), ("self_us", "us")],
}

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


class Tracer:
    """In-memory span recorder plus the counters the derived metrics need."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.forward_rows = 0
        self.cells = 0
        self.fingerprints = set()
        self.finishes = 0
        self.approximate = 0
        self.enabled = True
        self.optimizers = {}  # id -> [optimizer, steps]
        self._undo = []

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # Counter hooks, called with the wrapped call's arguments and result.
    def _on_forward(self, args, result):
        x = np.asarray(args[1])
        self.forward_rows += 1 if x.ndim == 1 else x.shape[0]

    def _on_adam(self, args, result):
        entry = self.optimizers.setdefault(id(args[0]), [args[0], 0])
        entry[1] += 1

    def _on_fingerprint(self, args, result):
        self.fingerprints.add(result)

    def _on_scan_row(self, args, result):
        self.cells += len(result)

    def _on_finish(self, args, result):
        self.finishes += 1
        self.approximate += int(result.approximate)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def install(self):
        """Patch every traced name; :meth:`uninstall` restores them."""
        observers = {
            "nn.Mlp.forward": self._on_forward,
            "nn.Adam.step": self._on_adam,
            "classifier.model_fingerprint": self._on_fingerprint,
            "blending.scan_row": self._on_scan_row,
            "online.OnlineSession.finish": self._on_finish,
        }
        for module_name, attr, span_name in TRACED:
            observe = observers.get(span_name)
            module = importlib.import_module(f"motionblend.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(span_name, original, observe))
                self._undo.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(span_name, original, observe)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name.split(".")[0] != "motionblend":
                    continue
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path):
        """Spans as tab-separated name, start, end, parent (index, -1 = root)."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")

    def metrics(self, overhead_s, untraced_s, certified, rl_episodes):
        """Per-layer metrics from the recorded spans and counters.

        ``certified`` of ``rl_episodes`` greedy episodes cleared the reward
        certificate; the benchmark counts those itself.
        """
        n = len(self.spans)
        durations = np.array([s[2] - s[1] for s in self.spans])
        parents = np.array([s[3] for s in self.spans], dtype=np.int64)
        child_time = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], durations[has_parent])
        self_time = durations - child_time
        by_name = defaultdict(list)
        for i, span in enumerate(self.spans):
            by_name[span[0]].append(i)

        out = {}
        for span_name, wanted in SPAN_METRICS.items():
            idx = np.array(by_name.get(span_name, []), dtype=np.int64)
            for suffix, unit in wanted:
                if suffix == "calls":
                    value = int(idx.size)
                elif suffix.startswith("self_"):
                    value = float(self_time[idx].sum()) * _SCALE[unit]
                else:  # p50 of the inclusive per-call duration
                    value = (
                        float(np.median(durations[idx])) * _SCALE[unit]
                        if idx.size else 0.0
                    )
                out[f"{span_name}.{suffix}"] = (value, unit)

        def share(num, den):
            return num / den if den else 0.0

        calls = {name: len(ix) for name, ix in by_name.items()}
        scan_rows = set(by_name.get("blending.scan_row", []))
        forwards_in_scan = sum(
            1 for i in by_name.get("classifier.forward", []) if parents[i] in scan_rows
        )
        env_inits = calls.get("rl.CorrectionEnv.__init__", 0)
        episodes_built = calls.get("rl.make_episode", 0)
        out["nn.Mlp.forward.rows"] = (self.forward_rows, "count")
        out["nn.Adam.subnormal_share"] = (self.subnormal_share(), "ratio")
        out["classifier.model_fingerprint.useful_share"] = (
            share(len(self.fingerprints), calls.get("classifier.model_fingerprint", 0)),
            "ratio",
        )
        out["blending.cells"] = (self.cells, "count")
        out["blending.forward_calls_per_row"] = (
            share(forwards_in_scan, len(scan_rows)), "count"
        )
        out["online.approximate_share"] = (share(self.approximate, self.finishes), "ratio")
        out["rl.episode_cache_hit_share"] = (
            share(max(env_inits - episodes_built, 0), env_inits), "ratio"
        )
        out["rl.certified_share"] = (share(certified, rl_episodes), "ratio")
        out["trace.overhead_s"] = (overhead_s, "s")
        out["trace.overhead_share"] = (share(overhead_s, untraced_s), "ratio")
        return out

    def subnormal_share(self):
        """Share of first-moment entries in (0, tiny) for the optimizer that
        took the most steps, read at the end of the run."""
        if not self.optimizers:
            return 0.0
        optimizer, _ = max(self.optimizers.values(), key=lambda entry: entry[1])
        m = np.concatenate([a.ravel() for a in optimizer._m])
        tiny = np.finfo(np.float64).tiny
        return float(np.count_nonzero((m != 0.0) & (np.abs(m) < tiny)) / m.size)
