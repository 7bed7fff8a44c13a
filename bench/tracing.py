"""In-memory span tracing of blsbench's public functions, installed from outside.

A Tracer replaces every module attribute that binds a public function of
a layer module (``from .linalg import as_matrix`` makes ``network.as_matrix``
one such binding) with a wrapper that records a span: name, start, end and
the index of the enclosing span. Spans stay in memory until ``take()``;
self time is derived from them afterwards by ``summarize``.

This module imports nothing beyond the standard library, so installing it
in a CLI process adds no import work of its own.
"""

from __future__ import annotations

import functools
import importlib.abc
import inspect
import json
import os
import sys
import time

PACKAGE = "blsbench"
LAYERS = ("data", "fuzzy", "if_scores", "linalg", "network", "trainer", "stats", "cli")

_SOLVE_FLOPS = {
    # Dense cost model of each branch for an N x F state matrix.
    "linalg.solve_weighted_ridge_primal": lambda n, f: n * f * f + f**3 / 3.0,
    "linalg.solve_weighted_ridge_dual": lambda n, f: n * n * f + 2.0 * n**3 / 3.0,
}


def _count_solve(name, args, result, counts):
    n, f = args[0].shape
    counts["linalg.solve.flops_computed"] += _SOLVE_FLOPS[name](n, f)


def _count_square(name, args, result, counts):
    shape = getattr(result, "shape", ())
    if len(shape) == 2 and shape[0] == shape[1] > 1 and result.dtype.kind == "f":
        counts["if_scores.kernel_bytes_computed"] += result.nbytes


def _counter_for(name):
    if name in _SOLVE_FLOPS:
        return _count_solve
    if name.startswith(("if_scores.", "linalg.pairwise_sq_dist")):
        return _count_square
    return None


def public_functions(module):
    """(name, function) for each public function defined in the module."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for n in names:
        obj = getattr(module, n, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield n, obj


class Tracer:
    """Span recorder for every public function of the layer modules."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {"linalg.solve.flops_computed": 0.0, "if_scores.kernel_bytes_computed": 0.0}
        self._wrappers = {}  # id(original) -> (original, wrapper)
        self._patched = []  # (module, attribute, original)
        self._hook = None
        self.on_outermost = None  # called each time the outermost open span ends

    # --- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = _counter_for(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counter(name, args, result, counts)
            if not stack and self.on_outermost is not None:
                self.on_outermost()
            return result

        return wrapper

    def record(self, name, start, end):
        """Add a finished top-level span measured by the caller."""
        self.spans.append((name, start, end, -1))

    def take(self):
        """Return and clear the recorded spans and counts (call between spans)."""
        if self.stack:
            raise RuntimeError("take() called inside an open span")
        spans = list(self.spans)
        counts = dict(self.counts)
        self.spans.clear()
        for key in self.counts:
            self.counts[key] = 0.0
        return {"pid": os.getpid(), "spans": spans, "counts": counts}

    # --- installation -----------------------------------------------------

    def instrument(self, module):
        """Wrap the module's public functions and rebind every loaded alias."""
        layer = module.__name__.rpartition(".")[2]
        if module.__name__ != f"{PACKAGE}.{layer}" or layer not in LAYERS:
            return
        for attr, fn in public_functions(module):
            if id(fn) not in self._wrappers:
                self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in self._loaded_layers():
            for attr, value in list(vars(mod).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, value))

    def _loaded_layers(self):
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is not None:
                yield mod

    def install(self):
        """Instrument loaded layer modules and any imported from now on."""
        for mod in list(self._loaded_layers()):
            self.instrument(mod)
        self._hook = _InstrumentOnImport(self)
        sys.meta_path.insert(0, self._hook)
        return self

    def uninstall(self):
        if self._hook in sys.meta_path:
            sys.meta_path.remove(self._hook)
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        self._wrappers.clear()


class _InstrumentOnImport(importlib.abc.MetaPathFinder):
    """Instruments a layer module right after it executes, however late."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith(PACKAGE + "."):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        exec_module = loader.exec_module
        tracer = self.tracer

        def exec_and_instrument(module):
            exec_module(module)
            tracer.instrument(module)

        loader.exec_module = exec_and_instrument
        return spec


# --- analysis -----------------------------------------------------------------


def summarize(chunks):
    """Per-name calls, inclusive and self seconds, plus summed counts.

    Each chunk holds the spans of one process between two ``take()`` calls,
    so parent indices are local to the chunk. A span's self time is its
    duration minus the durations of its direct children.
    """
    stats = {}
    counts = {}
    for chunk in chunks:
        spans = chunk["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
        for key, value in chunk["counts"].items():
            counts[key] = counts.get(key, 0.0) + value
    return stats, counts


def durations(chunks, name):
    """Durations of every span with this name, in recording order."""
    return [end - start for c in chunks for n, start, end, _ in c["spans"] if n == name]


def write_chunks(path, chunks):
    with open(path, "a", encoding="utf-8") as fh:
        for chunk in chunks:
            fh.write(json.dumps(chunk) + "\n")


def read_chunks(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
