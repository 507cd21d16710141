"""Spans around calls into znsynth's modules, recorded from outside the package.

`Tracer.install` wraps every public function of the library modules (and
`cli.main`) and rebinds the wrapper under every name a znsynth module holds
for it: `lp_norm`, for example, is imported into `cli`, `constructions` and
`recovery`, and each of those bindings is replaced.  A span is
(id, parent, root, name, start, end); the root is the `cli.main` span of the
command, which identifies the request.  Tasks that `rng.run_indexed` hands to
its thread pool get a `<layer>.task` span whose parent is the `run_indexed`
span, so the pool's coordination cost is `run_indexed`'s self time.

Spans stay in memory until `write_spans` at the end of the run.  A span's
self time is its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
import types
from collections import defaultdict

LIBRARY = ("lattice", "fourier", "inequalities", "constructions", "rng",
           "recovery", "serialization")
LAYERS = ("cli",) + LIBRARY


def _path_arg(args, kwargs) -> str:
    return kwargs.get("path", args[0] if args else "")


def _count_read(counters, args, kwargs, result):
    counters["serialization.bytes_read"] += os.path.getsize(_path_arg(args, kwargs))


def _count_written(counters, args, kwargs, result):
    counters["serialization.bytes_written"] += os.path.getsize(_path_arg(args, kwargs))


def _count_points(counters, args, kwargs, result):
    counters["fourier.points_transformed"] += result.values.size


def _count_draws(counters, args, kwargs, result):
    counters["constructions.rejection.draws"] += result.draws


def _count_recovery(counters, args, kwargs, result):
    counters["recovery.iterations"] += result.iterations
    counters["recovery.converged"] += bool(result.converged)


# Counters taken from a call's arguments or result, by span name.
AFTER = {
    "serialization.load_json": _count_read,
    "serialization.atomic_write_text": _count_written,
    "fourier.forward": _count_points,
    "fourier.inverse": _count_points,
    "constructions.rejection_sample_flat": _count_draws,
    "constructions.rejection_sample_small_norm": _count_draws,
    "recovery.recover": _count_recovery,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self.names: set[str] = set()  # span names of the wrapped functions

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, after=None):
        stack = self._stack()
        parent, root = stack[-1] if stack else (0, 0)
        sid = next(self._ids)
        stack.append((sid, root or sid))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, root or sid, name, start, end))
        if after is not None:
            after(self.counters, args, kwargs, result)
        return result

    def _wrap(self, name: str, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, after)

        return wrapper

    def _wrap_run_indexed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(task_fn, n, *args, **kwargs):
            task_name = task_fn.__module__.rsplit(".", 1)[-1] + ".task"

            def outer():
                context = self._stack()[-1]

                def task(i):
                    stack = self._stack()
                    saved = stack[:]
                    stack[:] = [context]
                    try:
                        return self._call(task_name, task_fn, (i,), {})
                    finally:
                        stack[:] = saved

                return fn(task, n, *args, **kwargs)

            return self._call(name, outer, (), {})

        return wrapper

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        wrappers = {}
        for layer in LIBRARY:
            mod = importlib.import_module(f"znsynth.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                make = self._wrap_run_indexed if name == "rng.run_indexed" else self._wrap
                wrappers[id(obj)] = (obj, make(name, obj))
                self.names.add(name)
        cli = importlib.import_module("znsynth.cli")
        wrappers[id(cli.main)] = (cli.main, self._wrap("cli.main", cli.main))
        self.names.add("cli.main")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "znsynth" or mod_name.startswith("znsynth.")):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # ------------------------------------------------------------ reporting

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        children = defaultdict(list)
        for sid, parent, _root, _name, start, end in self.spans:
            if parent:
                children[parent].append((start, end))
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for sid, _parent, _root, name, start, end in self.spans:
            entry = totals[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered(children.get(sid, ()), start, end)
        return totals

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,root,name,start,end\n")
            for span in self.spans:
                fh.write("%d,%d,%d,%s,%r,%r\n" % span)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


# Per-layer metrics are named '<span>.<calls|s|self_s>' after one span name,
# except the ones below.
ALIASES = {
    "inequalities.verify": ("inequalities.verify_support_bound",
                            "inequalities.verify_indicator_bound"),
}
COUNTER_METRICS = ("serialization.bytes_read", "serialization.bytes_written",
                   "fourier.points_transformed", "constructions.rejection.draws",
                   "recovery.iterations")


def per_layer_spec() -> list[dict]:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)["per_layer"]


def layer_metrics(tracer: Tracer, rounds: int, ops_per_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of BENCHMARK.json as name -> (value, unit), per round."""
    totals = tracer.aggregate()
    recovers = totals["recovery.recover"]["calls"] if "recovery.recover" in totals else 0
    # Each layer's share of the summed self time of all spans.  Time spent in
    # two pool threads at once counts twice, so the shares still add up to 1.
    layer_self = defaultdict(float)
    for name, entry in totals.items():
        layer_self[name.split(".", 1)[0]] += entry["self_s"]
    all_self = sum(layer_self.values())
    derived = {f"{layer}.share": layer_self[layer] / all_self if all_self else 0.0
               for layer in LAYERS}
    derived["recovery.converged_ratio"] = (
        tracer.counters["recovery.converged"] / recovers if recovers else 0.0)
    derived["trace.ops_per_s"] = ops_per_s
    for metric in COUNTER_METRICS:
        derived[metric] = tracer.counters[metric] / rounds
    out = {}
    for metric in per_layer_spec():
        name = metric["name"]
        if name in derived:
            value = derived[name]
        else:
            span, field = name.rsplit(".", 1)
            spans = ALIASES.get(span, (span,))
            unknown = [n for n in spans if n not in tracer.names]
            if unknown or field not in ("calls", "s", "self_s"):
                raise ValueError(f"per-layer metric {name}: no span {unknown} or field {field}")
            value = sum(totals[n][field] for n in spans if n in totals) / rounds
        out[name] = (value, metric["unit"])
    return out
