"""Outside-in span tracer for circjoin.

``Tracer.install`` replaces every public function and public method of
the traced modules with a timing wrapper, under every name it is bound
to across the package (``cli`` from-imports ``full_spectrum``, ``join``
from-imports ``fourier_vector``, and so on); ``remove`` puts the
originals back.  Spans are kept in memory as
``(job, parent span, name, start, end, extra)`` and summarised or
written out after the run.  The program itself is not modified.
"""

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("cli", "join", "circulant", "smalleig", "kuramoto", "graphs")


def _array_bytes(obj):
    """Bytes held in the ndarrays reachable from a result (computed from
    array sizes, not measured)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(x) for x in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(_array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def _adjacency_bytes(args, kwargs, out):
    adjacency = getattr(args[0], "adjacency", None)
    return {"adjacency_bytes": adjacency.nbytes if isinstance(adjacency, np.ndarray) else 0}


def _oscillator_steps(signature):
    def extra(args, kwargs, out):
        bound = signature.bind(*args, **kwargs)
        return {"osc_steps": bound.arguments["system"].n * int(bound.arguments["steps"])}
    return extra


def _out_bytes(args, kwargs, out):
    return {"out_bytes": _array_bytes(out)}


def _extras(name, fn):
    """Counters recorded at specific boundaries, keyed by span name."""
    if name in ("join.block_eigenpairs", "join.JoinSpec.dense"):
        return _out_bytes
    if name == "kuramoto.KuramotoSystem":
        return _adjacency_bytes
    if name == "kuramoto.integrate":
        return _oscillator_steps(inspect.signature(fn))
    return None


class Tracer:
    def __init__(self, package="circjoin"):
        self.package = package
        self.spans = []
        self.job = -1
        self._stack = []
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        extra = _extras(name, fn)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (self.job, parent, name, t0, clock(), None)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            spans[sid] = (self.job, parent, name, t0, t1,
                          extra(args, kwargs, out) if extra else None)
            return out

        return wrapper

    def _targets(self):
        """(span name, owner, attribute) for every public function and method."""
        for short in TRACED_MODULES:
            module = sys.modules[f"{self.package}.{short}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{short}.{attr}", module, attr
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not inspect.isfunction(fn):
                            continue
                        if meth == "__init__" and not dataclasses.is_dataclass(obj):
                            yield f"{short}.{attr}", obj, meth
                        elif not meth.startswith("_"):
                            yield f"{short}.{attr}.{meth}", obj, meth

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == self.package or key.startswith(self.package + ".")]
        for name, owner, attr in list(self._targets()):
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries --------------------------------------------------------

    def totals(self, first=0):
        """Per span name: total time, self time, calls and summed extras,
        over the spans recorded from index ``first`` on."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        out = defaultdict(lambda: defaultdict(float))
        for i in range(len(spans) - 1, -1, -1):
            _, parent, name, t0, t1, extra = spans[i]
            dur = t1 - t0
            row = out[name]
            row["s"] += dur
            row["self_s"] += dur - child[i]
            row["calls"] += 1
            if extra:
                for key, value in extra.items():
                    row[key] += value
            if parent >= first:
                child[parent - first] += dur
        return out

    def write(self, path, first, last):
        """Spans [first, last) as JSON lines: id, job, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid in range(first, last):
                job, parent, name, t0, t1, extra = self.spans[sid]
                rec = {"id": sid, "job": job, "parent": parent, "name": name,
                       "start": t0, "end": t1}
                if extra:
                    rec.update(extra)
                fh.write(json.dumps(rec) + "\n")
