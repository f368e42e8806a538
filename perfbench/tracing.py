"""Layer spans recorded from outside the package.

``Tracer.install`` replaces the public functions of the traced coverkit
modules, and every name other coverkit modules import them under, with
wrappers that record one span (name, start, end, parent) per call and
update a few counters from the call's arguments and result.  Only calls
made inside a benchmark job (``Tracer.span``) are recorded.  Spans stay in
memory; ``write`` saves them when the run ends and ``layer_metrics``
derives the per-layer numbers.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

# coverkit module -> span prefix
LAYERS = {
    "bounds": "bounds",
    "_numeric": "numeric",
    "groups": "groups",
    "construct": "construct",
    "verify": "verify",
    "arrayfile": "arrayfile",
}

# bound function -> the family its time and calls are reported under
BOUND_FAMILY = {
    "slj_bound": "slj",
    "discrete_slj_bound": "discrete_slj",
    "two_stage_bound": "two_stage",
    "gss_lll_bound": "lll",
    "cyclic_lll_bound": "lll",
    "frobenius_lll_bound": "lll",
    "pgl_lll_bound": "lll",
    "conditional_lll_two_stage_bound": "lll",
}

BUILDERS = ("two_stage_build", "moser_tardos_build", "pgl_build")


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


def _count_build(counts, log):
    counts["construct.stage1_attempts"] += log.stage1_attempts
    counts["construct.uncovered_after_stage1"] += log.uncovered_after_stage1
    counts["construct.resamples"] += log.resample_count
    for stage, secs in log.elapsed.items():
        counts[f"construct.{stage}_s"] += secs


def _hook(span_name):
    """The counter update for one wrapped function, or None."""
    if span_name == "bounds.discrete_slj_bound":
        def hook(counts, args, kwargs, result):
            counts["bounds.discrete_slj.steps"] += result[1].steps
        return hook
    if span_name in (f"construct.{b}" for b in BUILDERS):
        def hook(counts, args, kwargs, result):
            _count_build(counts, result[1])
            if span_name == "construct.two_stage_build":
                counts["construct.two_stage_builds"] += 1
        return hook
    if span_name == "verify.full_check":
        def hook(counts, args, kwargs, result):
            p = args[0].params
            counts["verify.checks"] += args[0].n_rows * math.comb(p.k, p.t)
            if not result.is_covering:
                counts["verify.uncovered_found"] += result.uncovered_count
        return hook
    if span_name == "arrayfile.write_array":
        def hook(counts, args, kwargs, result):
            counts["arrayfile.bytes"] += os.path.getsize(args[0])
        return hook
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index)
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list = []

    # -- recording -----------------------------------------------------
    def call(self, name, fn, hook, args, kwargs):
        if not self._stack:
            # outside a timed job (benchmark glue such as writing the
            # mutilated copy): not a layer's work, so not recorded
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent)
        if hook is not None:
            hook(self.counts, args, kwargs, result)
        return result

    @contextlib.contextmanager
    def span(self, name):
        """Records a span around a benchmark job."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid] = (name, start, time.perf_counter(), parent)

    # -- installation --------------------------------------------------
    def _wrap(self, span_name, fn):
        hook = _hook(span_name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(span_name, fn, hook, args, kwargs)

        return wrapper

    def install(self):
        wrappers = {}
        for modname, prefix in LAYERS.items():
            module = importlib.import_module(f"coverkit.{modname}")
            for name, fn in _public_functions(module):
                wrappers[fn] = self._wrap(f"{prefix}.{name}", fn)
        cli = importlib.import_module("coverkit.cli")
        wrappers[cli.main] = self._wrap("cli.main", cli.main)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "coverkit" or n.startswith("coverkit.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)

    # -- derived metrics -----------------------------------------------
    def layer_metrics(self, traced_wall_s, overhead_share):
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def outermost(i, same):
            """True if no ancestor of span i satisfies same(ancestor name)."""
            p = spans[i][3]
            while p >= 0:
                if same(spans[p][0]):
                    return False
                p = spans[p][3]
            return True

        busy = defaultdict(float)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            layer, _, func = name.partition(".")
            if layer != "job":
                self_s[layer] += dur - child_time[i]
            fam = BOUND_FAMILY.get(func) if layer == "bounds" else None
            if fam and outermost(i, lambda n: BOUND_FAMILY.get(n.partition(".")[2]) == fam
                                 and n.startswith("bounds.")):
                busy[f"bounds.{fam}"] += dur
                calls[f"bounds.{fam}"] += 1
            if layer == "groups" and outermost(i, lambda n: n.startswith("groups.")):
                busy["groups"] += dur
                calls["groups"] += 1
            if name in ("construct.count_uncovered", "construct.uncovered_interactions",
                        "construct.density_build", "verify.full_check"):
                if outermost(i, lambda n, name=name: n == name):
                    busy[name] += dur
                    calls[name] += 1
            if name in ("construct.density_row", "numeric.floor_scaled_power"):
                calls[name] += 1
            if name == "verify.full_check" and parent >= 0 and spans[parent][0] == "job.reject":
                busy["verify.reject"] += dur
            if name in ("arrayfile.write_array", "arrayfile.read_array"):
                busy[name] += dur

        c = self.counts
        full_check_s = busy["verify.full_check"]
        resamples = c["construct.resamples"]
        metrics = {
            "trace.overhead_share": (overhead_share, "share"),
            "trace.covered_share": (
                sum(v for k, v in self_s.items() if k != "job") / traced_wall_s, "share"),
            "cli.self_s": (self_s["cli"], "s"),
            "numeric.busy_s": (self_s["numeric"], "s"),
            "numeric.floor_scaled_power.calls": (calls["numeric.floor_scaled_power"], "count"),
            "bounds.self_s": (self_s["bounds"], "s"),
            "bounds.discrete_slj.steps": (int(c["bounds.discrete_slj.steps"]), "count"),
            "groups.busy_s": (busy["groups"], "s"),
            "groups.calls": (calls["groups"], "count"),
            "construct.self_s": (self_s["construct"], "s"),
            "construct.stage1_s": (c["construct.stage1_s"], "s"),
            "construct.stage2_s": (c["construct.stage2_s"], "s"),
            "construct.density_s": (busy["construct.density_build"], "s"),
            "construct.resample_s": (c["construct.resample_s"], "s"),
            "construct.develop_s": (c["construct.develop_s"], "s"),
            "construct.pairs_s": (c["construct.pairs_s"], "s"),
            "construct.resamples": (int(resamples), "count"),
            "construct.resample_s_per_resample": (
                c["construct.resample_s"] / resamples if resamples else 0.0, "s"),
            "construct.count_uncovered.calls": (calls["construct.count_uncovered"], "count"),
            "construct.count_uncovered.busy_s": (busy["construct.count_uncovered"], "s"),
            "construct.uncovered_interactions.busy_s": (
                busy["construct.uncovered_interactions"], "s"),
            "construct.density_row.calls": (calls["construct.density_row"], "count"),
            "construct.stage1_attempts": (int(c["construct.stage1_attempts"]), "count"),
            "construct.uncovered_after_stage1": (
                int(c["construct.uncovered_after_stage1"]), "count"),
            "construct.stage1_useful_ratio": (
                c["construct.two_stage_builds"] / c["construct.stage1_attempts"]
                if c["construct.stage1_attempts"] else 0.0, "share"),
            "verify.full_check.calls": (calls["verify.full_check"], "count"),
            "verify.full_check.busy_s": (full_check_s, "s"),
            "verify.checks_per_s": (
                c["verify.checks"] / full_check_s if full_check_s else 0.0, "1/s"),
            "verify.reject_s": (busy["verify.reject"], "s"),
            "verify.uncovered_found": (int(c["verify.uncovered_found"]), "count"),
            "arrayfile.write_s": (busy["arrayfile.write_array"], "s"),
            "arrayfile.read_s": (busy["arrayfile.read_array"], "s"),
            "arrayfile.bytes": (int(c["arrayfile.bytes"]), "count"),
        }
        for fam in ("slj", "discrete_slj", "two_stage", "lll"):
            metrics[f"bounds.{fam}.busy_s"] = (busy[f"bounds.{fam}"], "s")
            metrics[f"bounds.{fam}.calls"] = (calls[f"bounds.{fam}"], "count")
        return metrics
