"""Spans around calls into ballbasis, recorded from the benchmark's process.

``Tracer.install`` wraps the public functions listed in ``TRACED`` and rebinds
every name a ``ballbasis`` module holds for them, so calls made between
modules (``from .operators import truncate``) go through the wrappers too.
Nothing under ``src/`` is edited. Spans stay in memory until ``write``.

A span's self time is its duration minus the durations of the traced spans
directly inside it, so the self times of all spans add up to the time the
root spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

# module -> public functions (or Class.method) whose calls become spans
TRACED = {
    "space": ["check_axioms", "exhausting_sequence", "BallBasis.star_members",
              "BallBasis.supersets", "BallBasis.member_matrix"],
    "functional": ["bmo_norm", "median", "maximal", "mean_oscillation",
                   "sharp_all", "volume_distance_matrix"],
    "operators": ["estimate_bo_constants", "delta"],
    "sparsify": ["sparsify_tree", "child_cover"],
    "domination": ["dominate_bo", "dominate_mean_osc", "lerner_decompose"],
    "verify": ["weak_type_report", "good_lambda_report", "exp_decay_report",
               "john_nirenberg_report", "bmo_bounded_report",
               "strong_domination_check", "ap_characteristics"],
}
# OperatorDescriptor.apply is split by whether the descriptor came from truncate
APPLY_SPANS = ("operators.apply", "operators.truncate_apply")
LAYERS = ("cli", "space", "functional", "operators", "sparsify", "domination",
          "verify")
STAGES = ("check_basis", "estimate", "sparsify", "dominate", "mean_osc")
SUITES = ("weak_type", "good_lambda", "exp_decay", "john_nirenberg", "bmo",
          "strong_domination", "ap")


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    return names + list(APPLY_SPANS)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock           # seconds; may leave out time not traced
        self.spans: list = []        # [name, start, end, parent index]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._open: list = []        # [span index, name, child seconds]
        self._truncated = weakref.WeakSet()
        self._estimated: dict = {}   # id -> operator, kept alive so ids stay distinct
        self._restore: list = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1][0] if self._open else -1
        frame = [len(self.spans), name, 0.0]
        self.spans.append(None)
        self._open.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._open.pop()
            dur = end - start
            self.spans[frame[0]] = (name, start, end, parent)
            self.calls[name] += 1
            self.self_s[name] += dur - frame[2]
            self.total_s[name] += dur
            if self._open:
                self._open[-1][2] += dur

    def _inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._open)

    # -- installation -------------------------------------------------------

    def _rebind(self, orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "ballbasis" and not modname.startswith("ballbasis."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, orig))

    def _patch_method(self, cls, attr, wrapper):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _wrap(self, name, orig, after=None, before=None):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            out = self.call(name, orig, *args, **kwargs)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def install(self):
        import numpy as np
        from ballbasis.operators import OperatorDescriptor

        hooks = {
            "functional.maximal": dict(after=lambda a, out: self.counts.update(
                {"functional.maximal.useful": bool(np.any(out != 0))})),
            "operators.estimate_bo_constants": dict(
                before=lambda a: self._estimated.setdefault(id(a[0]), a[0])),
            "sparsify.sparsify_tree": dict(
                before=lambda a: self.counts.update(
                    {"domination.sparsify_attempts":
                     self._inside("domination.dominate_bo")}),
                after=lambda a, tree: self.counts.update(
                    {"sparsify.tree_nodes": tree.n_nodes})),
        }
        for modname, fns in TRACED.items():
            mod = importlib.import_module(f"ballbasis.{modname}")
            for fn in fns:
                name = f"{modname}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(mod, cls_name)
                    self._patch_method(cls, meth,
                                       self._wrap(name, cls.__dict__[meth]))
                else:
                    orig = getattr(mod, fn)
                    self._rebind(orig, self._wrap(name, orig, **hooks.get(name, {})))

        ops = importlib.import_module("ballbasis.operators")
        orig_truncate = ops.truncate

        @functools.wraps(orig_truncate)
        def truncate(T):
            out = orig_truncate(T)
            self._truncated.add(out)
            return out
        self._rebind(orig_truncate, truncate)

        orig_apply = OperatorDescriptor.__dict__["apply"]

        @functools.wraps(orig_apply)
        def apply(desc, f):
            if desc not in self._truncated:
                return self.call("operators.apply", orig_apply, desc, f)
            out = self.call("operators.truncate_apply", orig_apply, desc, f)
            self.counts["operators.truncate_apply.useful"] += bool(
                np.any(out.values != 0))
            return out
        self._patch_method(OperatorDescriptor, "apply", apply)

    def uninstall(self):
        while self._restore:
            obj, attr, orig = self._restore.pop()
            setattr(obj, attr, orig)

    # -- results --------------------------------------------------------------

    def metrics(self, pipeline_s: float, overhead_s: float) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``.

        Each ratio comes with its base as a metric of its own:
        ``truncate_apply.useful_frac`` (evaluations not identically zero) and
        ``maximal.useful_frac`` over their ``.calls``; ``repeat_ratio``
        (constants estimated per distinct operator) over ``distinct_ops``;
        ``sparsify_per_bound`` (sparsify_tree attempts inside dominate_bo,
        the lambda retries) over ``dominate_bo.calls``; ``tree_nodes`` summed
        over ``sparsify_tree.calls``. ``trace.pipeline_s`` is the traced
        pipeline's time on the tracer's clock, which the self times account
        for; ``overhead_s`` is passed in (``worker.py`` says how it is taken).
        """
        out = {}
        for stage in STAGES + ("emit",):
            out[f"cli.{stage}_s"] = (self.total_s[f"cli.{stage}"], "s")
        for suite in SUITES:
            out[f"cli.verify.{suite}_s"] = (self.total_s[f"cli.verify.{suite}"], "s")
        for name in span_names():
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (sum(v for k, v in self.self_s.items()
                                          if k.split(".")[0] == layer), "s")

        def frac(num, den):
            return num / den if den else 0.0

        c = self.counts
        out["operators.truncate_apply.useful_frac"] = (frac(
            c["operators.truncate_apply.useful"],
            self.calls["operators.truncate_apply"]), "ratio")
        out["functional.maximal.useful_frac"] = (frac(
            c["functional.maximal.useful"], self.calls["functional.maximal"]),
            "ratio")
        out["operators.estimate_bo_constants.distinct_ops"] = (
            len(self._estimated), "count")
        out["operators.estimate_bo_constants.repeat_ratio"] = (frac(
            self.calls["operators.estimate_bo_constants"], len(self._estimated)),
            "ratio")
        out["domination.sparsify_per_bound"] = (frac(
            c["domination.sparsify_attempts"],
            self.calls["domination.dominate_bo"]), "ratio")
        out["sparsify.tree_nodes"] = (c["sparsify.tree_nodes"], "count")
        out["trace.pipeline_s"] = (pipeline_s, "s")
        out["trace.overhead_s"] = (overhead_s, "s")
        out["trace.accounted_frac"] = (frac(sum(self.self_s.values()),
                                            pipeline_s), "ratio")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path) -> None:
        """Write spans as JSON lines: name, start and end (s), parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7),
                                     parent]))
                fh.write("\n")
