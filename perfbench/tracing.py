"""Span tracing of graphcalc's public functions from outside the package.

``Tracer.install`` wraps every public function of the traced modules (plus
``WeightedGraph.from_dict`` and ``HeatKernel.matrix``) and rebinds the
wrapper in every graphcalc namespace that holds the original, so names bound
through ``from .x import y`` are traced too.  A generator function is timed
while it is consumed: one span per generator, whose busy time is the sum of
the time spent inside each ``next()``.

Spans (name, parent, start, end, busy) are kept in flat arrays in memory and
written out by ``save``.  A span's self time is its busy time minus the busy
time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("graph", "functions", "operators", "isoperimetry", "bounds", "heat",
           "sobolev", "verify", "cli")
METHODS = (("graph", "WeightedGraph", "from_dict"), ("heat", "HeatKernel", "matrix"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.stack = [-1]
        self.recording = False
        self.counters = {"isoperimetry.subsets": 0, "operators.eigensolve_rows": 0,
                         "verify.trials": 0}

    # -- spans ---------------------------------------------------------------

    def _open(self, nid: int, t: float) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(t)
        self.end.append(t)
        self.busy.append(0.0)
        return sid

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        post = _POST.get(qualname)
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if not self.recording:
                    yield from it
                    return
                sid = -1
                while True:
                    t0 = clock()
                    if sid < 0:
                        sid = self._open(nid, t0)
                    self.stack.append(sid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        self.stack.pop()
                        self.end[sid] = t1
                        self.busy[sid] += t1 - t0
                    if post is not None:
                        post(self, item, sid)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            t0 = clock()
            sid = self._open(nid, t0)
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.end[sid] = t1
                self.busy[sid] = t1 - t0
            if post is not None:
                post(self, result, sid)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions and rebind them in every graphcalc namespace."""
        replace = {}
        for short in MODULES:
            mod = importlib.import_module(f"graphcalc.{short}")
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    replace[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in [m for k, m in sys.modules.items() if k == "graphcalc" or k.startswith("graphcalc.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(mod, attr, replace[obj])
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"graphcalc.{short}"), cls_name)
            raw = cls.__dict__[meth]
            qual = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._wrap(qual, raw.__func__)))
            else:
                setattr(cls, meth, self._wrap(qual, raw))

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
                "busy": np.frombuffer(self.busy)}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, passes: int, wall_s: float, names) -> dict:
        """Per-pass values of the named metrics: ``<span>.s`` (busy time),
        ``<span>.calls``, ``<span>.self_s``, ``<module>.self_s``, a counter,
        ``isoperimetry.subsets_per_s`` or ``trace.pass_s``/``trace.spans``."""
        arr = self.arrays()
        name, parent, busy = arr["name"], arr["parent"], arr["busy"]
        child = np.zeros(len(busy))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], busy[has_parent])
        selfs = busy - child
        k = len(self.names)
        tot = np.bincount(name, weights=busy, minlength=k)
        own = np.bincount(name, weights=selfs, minlength=k)
        calls = np.bincount(name, minlength=k)
        by = {q: i for i, q in enumerate(self.names)}
        out = {}
        for metric in names:
            head, _, tail = metric.rpartition(".")
            if metric in self.counters:
                out[metric] = self.counters[metric] / passes
            elif tail == "s" and head in by:
                out[metric] = float(tot[by[head]]) / passes
            elif tail == "calls" and head in by:
                out[metric] = int(calls[by[head]]) / passes
            elif tail == "self_s" and head in by:
                out[metric] = float(own[by[head]]) / passes
            elif tail == "self_s" and head in MODULES:
                ids = [i for q, i in by.items() if q.split(".")[0] == head]
                out[metric] = float(own[ids].sum()) / passes
        iso_s = out["isoperimetry.iso_constant.s"]
        out["isoperimetry.subsets_per_s"] = (
            out["isoperimetry.subsets"] / iso_s if iso_s > 0 else 0.0)
        out["trace.pass_s"] = wall_s / passes
        out["trace.spans"] = len(busy) / passes
        return out


def _count_subset(tracer: Tracer, item, sid: int) -> None:
    tracer.counters["isoperimetry.subsets"] += 1


def _count_rows(tracer: Tracer, result, sid: int) -> None:
    parent = tracer.parent[sid]
    if parent >= 0 and tracer.names[tracer.name[parent]] == "operators.spectral_decomposition":
        tracer.counters["operators.eigensolve_rows"] += result[0].shape[0]


def _count_trials(tracer: Tracer, result, sid: int) -> None:
    tracer.counters["verify.trials"] += int(result["trials"])


_POST = {"isoperimetry.enumerate_connected_subsets": _count_subset,
         "operators.laplacian_matrix": _count_rows,
         "verify.run_suite": _count_trials}
