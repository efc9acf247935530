"""Spans around calls into switchmix's public functions, kept in memory.

``install`` wraps the public functions of every switchmix module (and the
few methods the per-layer metrics name) from the outside; no program file
changes.  Each call records a span: name, start, end and the span that was
open when it began, in per-thread buffers, so replica threads never share
one.  ``Recorder.dump`` writes the spans out once, when the process ends;
``summarize`` turns the dumps of one round into per-layer numbers.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
import sys
import threading
import time
from pathlib import Path

MODULES = ("cli", "degseq", "construct", "graph", "chain", "statespace", "irreducibility", "encoding")

# Methods wrapped besides the module-level public functions: (module, class, attribute).
# The per-step methods of the graph and encoding stores (has_edge,
# replace_edges, _set, ...) stay unwrapped: a span per call would multiply
# the cost of a chain step and drown the kernel it measures.
METHODS = (
    ("degseq", "DegreeSequence", "is_graphical"),
    ("degseq", "DirectedDegreeSequence", "is_digraphical"),
    ("graph", "Graph", "canonical"),
    ("graph", "Digraph", "canonical"),
    ("statespace", "StateSpaceAnalysis", "__init__"),
    ("statespace", "StateSpaceAnalysis", "transition_matrix"),
    ("statespace", "StateSpaceAnalysis", "is_symmetric"),
    ("statespace", "StateSpaceAnalysis", "rows_sum_to_one"),
    ("statespace", "StateSpaceAnalysis", "min_diagonal"),
    ("statespace", "StateSpaceAnalysis", "laziness_floor"),
    ("statespace", "StateSpaceAnalysis", "uniform_is_stationary"),
    ("statespace", "StateSpaceAnalysis", "tv_curve"),
    ("statespace", "StateSpaceAnalysis", "exact_mixing_time"),
    ("statespace", "StateSpaceAnalysis", "spectral_gap"),
)


def _edges(g):
    return len(g.arcs) if hasattr(g, "arcs") else len(g.edges)


# Counters taken from results at the same boundaries: span name -> (counter, f(result)).
COUNTERS = {
    "chain.step_undirected": ("chain.accepted", bool),
    "chain.step_directed": ("chain.accepted", bool),
    "construct.realize": ("construct.edges", _edges),
    "construct.realize_directed": ("construct.edges", _edges),
    "irreducibility.induced_triangles": ("irreducibility.triangles", len),
    "encoding.repair": ("encoding.switches", lambda res: len(res.switch_log)),
}


class Recorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.counters = {}
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = (array.array("i"), array.array("q"), array.array("q"), array.array("i"), [])
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, name, fn):
        nid = self.name_id(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            ids, starts, ends, parents, stack = self._buffer()
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                key, f = counter
                self.counters[key] = self.counters.get(key, 0) + f(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def dump(self, path, meta):
        """Write spans (binary, one array per field) and a JSON header."""
        path = Path(path)
        fields = [array.array(code) for code in "iqqi"]
        for ids, starts, ends, parents, _ in self._buffers:
            offset = len(fields[0])
            fields[0].extend(ids)
            fields[1].extend(starts)
            fields[2].extend(ends)
            fields[3].extend(p + offset if p >= 0 else -1 for p in parents)
        with open(path.with_suffix(".spans"), "wb") as fh:
            for f in fields:
                f.tofile(fh)
        header = {"names": self.names, "counters": self.counters, "count": len(fields[0]), **meta}
        path.with_suffix(".json").write_text(json.dumps(header), encoding="utf-8")


def install(recorder):
    """Wrap switchmix's public functions and the METHODS, in place."""
    modules = {name: importlib.import_module(f"switchmix.{name}") for name in MODULES}
    wrapped = {}
    for name, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            wrapped[obj] = recorder.wrap(f"{name}.{attr}", obj)
    # Rebind every reference to a wrapped function, including names imported
    # into other modules (``from .chain import sample`` in cli).
    for mod in list(modules.values()) + [sys.modules["switchmix"]]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    for modname, clsname, attr in METHODS:
        cls = getattr(modules[modname], clsname)
        span = f"{modname}.{attr if attr != '__init__' else clsname}"
        original = cls.__dict__[attr]
        if isinstance(original, property):
            setattr(cls, attr, property(recorder.wrap(span, original.fget)))
        else:
            setattr(cls, attr, recorder.wrap(span, original))


# ---------------------------------------------------------------------------
# Reading dumps back


def load(path):
    import numpy as np

    path = Path(path)
    header = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    count = header["count"]
    raw = path.with_suffix(".spans").read_bytes()
    fields = []
    offset = 0
    for dtype in (np.int32, np.int64, np.int64, np.int32):
        size = np.dtype(dtype).itemsize * count
        fields.append(np.frombuffer(raw, dtype=dtype, count=count, offset=offset))
        offset += size
    ids, starts, ends, parents = fields
    dur = (ends - starts).astype(np.float64) / 1e9
    child = np.zeros(count)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    return header, ids, dur, dur - child


def summarize(paths):
    """Per-name totals (s), per-name call counts, per-module self time, counters."""
    import numpy as np

    total, calls, self_time, counters = {}, {}, {}, {}
    startup = 0.0
    for path in paths:
        header, ids, dur, own = load(path)
        names = header["names"]
        startup += header.get("startup_s", 0.0)
        for key, val in header["counters"].items():
            counters[key] = counters.get(key, 0) + val
        if not len(ids):
            continue
        sums = np.bincount(ids, weights=dur, minlength=len(names))
        owns = np.bincount(ids, weights=own, minlength=len(names))
        hits = np.bincount(ids, minlength=len(names))
        for i, name in enumerate(names):
            if hits[i]:
                total[name] = total.get(name, 0.0) + float(sums[i])
                calls[name] = calls.get(name, 0) + int(hits[i])
                module = name.split(".", 1)[0]
                self_time[module] = self_time.get(module, 0.0) + float(owns[i])
    return {"total": total, "calls": calls, "self": self_time, "counters": counters, "startup_s": startup}
