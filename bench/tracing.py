"""In-memory spans around the package's public functions.

``Tracer.install`` wraps every public function of the traced modules under
each name the package's modules look it up by, so calls from inside the
package (``subspace.train`` calling ``solve_dual``, ``evaluate`` calling
``fit_occ_model``) are recorded too. A span is [name, start, end, parent,
note]; a layer's self time is its spans' durations minus the time of their
direct child spans. Private helpers are not wrapped, so their time counts
towards the public function that called them.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import statistics
import sys
import time
import tracemalloc

import numpy as np

PACKAGE = "subsvdd"
LAYERS = ("svdd", "subspace", "numerics", "kernel", "pipeline", "evaluate", "model_store")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _npt_key(args, kwargs, result):
    x = np.ascontiguousarray(_arg(args, kwargs, 0, "x"), dtype=np.float64)
    digest = hashlib.sha1(x.tobytes()).hexdigest()
    return {"key": (x.shape, digest, float(_arg(args, kwargs, 1, "sigma")))}


# what a call records beside its span
NOTES = {
    "svdd.solve_dual": lambda a, k, r: {"n": np.shape(_arg(a, k, 0, "gram"))[0]},
    "numerics.sym_eig": lambda a, k, r: {"order": np.shape(_arg(a, k, 0, "s"))[0]},
    "kernel.npt_map": lambda a, k, r: {"points": np.shape(_arg(a, k, 0, "x_new"))[1]},
    "kernel.build_npt": _npt_key,
    "subspace.train": lambda a, k, r: {"iters": len(r.trace)},
}
# calls whose peak traced allocation is recorded while memory is measured
PEAK_OF = ("svdd.solve_dual",)


class Tracer:
    def __init__(self):
        self.spans = []
        self.measure_memory = False
        self._open = []
        self._restore = []

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])

    def uninstall(self):
        while self._restore:
            module, attr, obj = self._restore.pop()
            setattr(module, attr, obj)

    def _wrap(self, name, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter
        note = NOTES.get(name)
        peak = name in PEAK_OF

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            mem0 = None
            if peak and self.measure_memory:
                mem0 = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            if mem0 is not None:
                span[4] = dict(span[4] or {}, peak=tracemalloc.get_traced_memory()[1] - mem0)
            return result

        return traced

    def clear(self):
        del self.spans[:]

    def summary(self):
        """Per traced function: calls, self time and the notes of its calls."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, note) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "notes": []})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[i]
            if note is not None:
                entry["notes"].append(note)
        return out


def _self_s(name):
    return lambda s: s.get(name, {}).get("self_s", 0.0)


def _calls(name):
    return lambda s: s.get(name, {}).get("calls", 0)


def _note_mean(name, key):
    def value(s):
        notes = s.get(name, {}).get("notes", [])
        return statistics.fmean(n[key] for n in notes) if notes else 0.0
    return value


def _note_sum(name, key):
    return lambda s: sum(n[key] for n in s.get(name, {}).get("notes", []))


def _distinct(name, key):
    return lambda s: len({n[key] for n in s.get(name, {}).get("notes", [])})


# per-layer metrics read from one pass's summary: name -> (unit, reader)
PER_LAYER = {
    "svdd.solve_dual_s": ("s", _self_s("svdd.solve_dual")),
    "svdd.solve_dual_calls": ("count", _calls("svdd.solve_dual")),
    "svdd.solve_dual_n_mean": ("count", _note_mean("svdd.solve_dual", "n")),
    "subspace.iters_per_fit": ("count", _note_mean("subspace.train", "iters")),
    "subspace.newton_step_s": ("s", _self_s("subspace.newton_step")),
    "numerics.sym_eig_s": ("s", _self_s("numerics.sym_eig")),
    "numerics.sym_eig_calls": ("count", _calls("numerics.sym_eig")),
    "numerics.sym_eig_order_mean": ("count", _note_mean("numerics.sym_eig", "order")),
    "subspace.hessian_core_s": ("s", _self_s("subspace.hessian_core")),
    "subspace.gradient_s": ("s", _self_s("subspace.gradient")),
    "subspace.objective_s": ("s", _self_s("subspace.objective")),
    "subspace.train_s": ("s", _self_s("subspace.train")),
    "numerics.qr_orthonormalize_rows_s": ("s", _self_s("numerics.qr_orthonormalize_rows")),
    "kernel.build_npt_calls": ("count", _calls("kernel.build_npt")),
    "kernel.build_npt_distinct": ("count", _distinct("kernel.build_npt", "key")),
    "kernel.build_npt_s": ("s", _self_s("kernel.build_npt")),
    "kernel.npt_map_s": ("s", _self_s("kernel.npt_map")),
    "kernel.npt_map_points": ("count", _note_sum("kernel.npt_map", "points")),
    "svdd.decide_batch_s": ("s", _self_s("svdd.decide_batch")),
    "model_store.predict_s": ("s", _self_s("model_store.predict")),
    "pipeline.fit_occ_model_calls": ("count", _calls("pipeline.fit_occ_model")),
    "pipeline.fit_occ_model_s": ("s", _self_s("pipeline.fit_occ_model")),
    "evaluate.grid_search_s": ("s", _self_s("evaluate.grid_search")),
}


def peak_mb(summary, name="svdd.solve_dual"):
    """Largest traced allocation peak of one function's calls, in MB."""
    peaks = [n["peak"] for n in summary.get(name, {}).get("notes", []) if "peak" in n]
    return max(peaks) / 2**20 if peaks else 0.0
