"""Spans at the package's module boundaries, recorded from outside.

A ``Tracer`` rebinds public functions of ``elastoacoustic`` in every
package module (and the package namespace) that holds them, so calls
from one module into another pass through a wrapper that records a span:
name, layer, start, end, parent and a few counts read from the
arguments and the result.  Spans stay in memory until ``write``.  The
program's source is never changed; ``uninstall`` restores every name.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass, field


def _system_counts(a, s):
    nnz = s.A.nnz + s.B.nnz + (s.C.nnz if s.C is not None else 0)
    return {"dofs": int(s.n), "nnz": int(nnz)}


def _pencil_counts(a, result):
    notes = " | ".join(result.notes)
    return {"requested": int(result.requested),
            "returned": len(result.pairs),
            "dense": int("dense fallback" in notes),
            "partial": int("converged only" in notes)}


def _window_counts(a, result):
    pairs, _ = result
    return {"dofs": int(a["system"].n), "in_window": len(pairs)}


def _estimate_counts(a, result):
    eta2, theta2, _ = result
    return {"cells": int(a["mesh"].num_triangles), "eta2": float(eta2),
            "theta2": float(theta2), "kappa": float(a["mode"].kappa)}


def _mark_counts(a, result):
    return {"marked": len(result), "total": len(a["indicators"])}


def _export_counts(a, result):
    return {"bytes": os.path.getsize(result)}


# (module, function, layer, counts); ``elements`` is covered by the
# ``assembly`` spans that call it, ``config`` and ``cli`` are thin.
LAYER_TARGETS = (
    ("meshing", "build_cavity_mesh", "meshing",
     lambda a, r: {"cells": r.num_triangles}),
    ("meshing", "bisect", "meshing",
     lambda a, r: {"cells": r.num_triangles}),
    ("meshing", "validate", "meshing", None),
    ("assembly", "build_block_system", "assembly", _system_counts),
    ("eigensolve", "solve_pencil", "eigensolve", _pencil_counts),
    ("eigensolve", "filter_modes", "eigensolve", None),
    ("study", "solve_window", "study", _window_counts),
    ("study", "run_uniform_study", "study", None),
    ("study", "extrapolate", "study", None),
    ("estimator", "estimate_mode", "estimator", _estimate_counts),
    ("adaptivity", "adaptive_solve", "adaptivity",
     lambda a, r: {"iterations": len(r.records)}),
    ("adaptivity", "track_mode", "adaptivity", None),
    ("adaptivity", "mark", "adaptivity", _mark_counts),
    ("vtkio", "export_fields", "vtkio", _export_counts),
)

# The counters kept on untraced passes: one call per solved system, so
# their cost stays far below the timing noise.
PROBE_TARGETS = tuple(t for t in LAYER_TARGETS
                      if t[1] in ("solve_window", "estimate_mode"))

LAYERS = ("meshing", "assembly", "eigensolve", "study", "estimator",
          "adaptivity", "vtkio")
ROOT = "bench"


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)


class Tracer:
    """Wraps the given targets while installed and records their spans."""

    def __init__(self, targets):
        self.targets = targets
        self.spans = []
        self._stack = []
        self._undo = []

    def _open(self, name, layer):
        span = Span(len(self.spans), name, layer, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self):
        """The span around one whole pass."""
        span = self._open(ROOT, ROOT)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, orig, name, layer, counts):
        sig = inspect.signature(orig)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(span)
            if counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counts(bound.arguments, result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "elastoacoustic"
                   or n.startswith("elastoacoustic.")]
        for mod_name, func, layer, counts in self.targets:
            home = importlib.import_module(f"elastoacoustic.{mod_name}")
            orig = getattr(home, func)
            wrapper = self._wrap(orig, f"{mod_name}.{func}", layer, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))
        return self

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s.__dict__) + "\n")


def read_spans(path):
    with open(path) as f:
        return [Span(**json.loads(line)) for line in f if line.strip()]


def self_times(spans):
    """Span id -> its duration minus the time its children cover.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other; the self times of a tree sum to its root's
    duration.
    """
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    def self_of(name):
        return sum(own[s.id] for s in by_name.get(name, ()))

    windows = by_name.get("study.solve_window", ())
    window_ids = {s.id for s in windows}
    rungs = [s for s in by_name.get("eigensolve.solve_pencil", ())
             if s.parent in window_ids]
    root = by_name[ROOT][0]
    wall = root.end - root.start
    m = {}
    requested = count("eigensolve.solve_pencil", "requested")
    returned = count("eigensolve.solve_pencil", "returned")
    m["eigensolve.solve_s"] = (total("eigensolve.solve_pencil"), "s")
    m["eigensolve.calls"] = (len(by_name.get("eigensolve.solve_pencil",
                                             ())), "count")
    m["eigensolve.pairs_requested"] = (requested, "count")
    m["eigensolve.pairs_returned"] = (returned, "count")
    m["eigensolve.converged_ratio"] = (ratio(returned, requested), "ratio")
    m["eigensolve.dense_fallbacks"] = (
        count("eigensolve.solve_pencil", "dense"), "count")
    m["eigensolve.partial_calls"] = (
        count("eigensolve.solve_pencil", "partial"), "count")
    m["study.window_s"] = (total("study.solve_window"), "s")
    m["study.window_self_s"] = (self_of("study.solve_window"), "s")
    m["study.windows"] = (len(windows), "count")
    m["study.rungs_per_window"] = (ratio(len(rungs), len(windows)),
                                   "ratio")
    m["study.useful_pair_ratio"] = (
        ratio(count("study.solve_window", "in_window"),
              sum(s.counts.get("returned", 0) for s in rungs)), "ratio")
    m["study.extrapolate_s"] = (total("study.extrapolate"), "s")
    m["adaptivity.track_s"] = (total("adaptivity.track_mode"), "s")
    m["adaptivity.loop_self_s"] = (self_of("adaptivity.adaptive_solve"),
                                   "s")
    m["adaptivity.iterations"] = (count("adaptivity.adaptive_solve",
                                        "iterations"), "count")
    m["adaptivity.marked_fraction"] = (
        ratio(count("adaptivity.mark", "marked"),
              count("adaptivity.mark", "total")), "ratio")
    m["meshing.build_s"] = (total("meshing.build_cavity_mesh"), "s")
    m["meshing.bisect_s"] = (total("meshing.bisect"), "s")
    m["meshing.validate_s"] = (total("meshing.validate"), "s")
    m["meshing.cells"] = (count("meshing.build_cavity_mesh", "cells")
                          + count("meshing.bisect", "cells"), "count")
    est_s = total("estimator.estimate_mode")
    m["estimator.estimate_s"] = (est_s, "s")
    m["estimator.calls"] = (len(by_name.get("estimator.estimate_mode",
                                            ())), "count")
    m["estimator.cells_per_s"] = (
        ratio(count("estimator.estimate_mode", "cells"), est_s), "1/s")
    asm_s = total("assembly.build_block_system")
    m["assembly.build_s"] = (asm_s, "s")
    m["assembly.dofs"] = (count("assembly.build_block_system", "dofs"),
                          "count")
    m["assembly.nnz"] = (count("assembly.build_block_system", "nnz"),
                         "count")
    m["assembly.dofs_per_s"] = (ratio(m["assembly.dofs"][0], asm_s), "1/s")
    m["vtkio.export_s"] = (total("vtkio.export_fields"), "s")
    m["vtkio.bytes"] = (count("vtkio.export_fields", "bytes"), "B")
    for layer in LAYERS + (ROOT,):
        m[f"{layer}.self_s"] = (sum(own[s.id] for s in spans
                                    if s.layer == layer), "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.self_sum_s"] = (sum(own.values()), "s")
    m["trace.spans"] = (len(spans), "count")
    return m
