"""Spans around the public functions of each ephemera layer.

Each traced function is wrapped where its callers look it up: every
module global that refers to it (for example ``ephemera.cli.classify_point``
and ``ephemera.fiberlab.level_components``), or the class attribute for a
method.  A span records its name, start, end and the span that was open
when it began.  Spans stay in memory and are written once, to one .npz
file, when the traced run ends; ``layer_metrics`` turns them into calls
and self time (span time minus the time of wrapped child spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

# (layer.function, module, attribute) with attribute "Class.method" for methods
TARGETS = (
    ("cli.main", "ephemera.cli", "main"),
    ("serial.load_system_spec", "ephemera.serial", "load_system_spec"),
    ("serial.report_to_json", "ephemera.serial", "report_to_json"),
    ("serial.connectivity_to_json", "ephemera.serial", "connectivity_to_json"),
    ("family.build_family", "ephemera.family", "build_family"),
    ("lattice.properness_check", "ephemera.lattice", "properness_check"),
    ("lattice.smith_normal_form", "ephemera.lattice", "smith_normal_form"),
    ("fiberlab.connectivity_report", "ephemera.fiberlab", "connectivity_report"),
    ("fiberlab.reduced_surface", "ephemera.fiberlab", "reduced_surface"),
    ("fiberlab.critical_scan", "ephemera.fiberlab", "critical_scan"),
    ("fiberlab.level_components", "ephemera.fiberlab", "level_components"),
    ("classifier.classify_point", "ephemera.classifier", "classify_point"),
    ("classifier.is_critical_mod_phi", "ephemera.classifier", "is_critical_mod_phi"),
    ("classifier.lagrange_multiplier", "ephemera.classifier", "lagrange_multiplier"),
    ("classifier.slice_hessian_blocks", "ephemera.classifier", "slice_hessian_blocks"),
    ("classifier.stabilizer_slice", "ephemera.classifier", "stabilizer_slice"),
    ("classifier.SystemSpec.grad_g", "ephemera.classifier", "SystemSpec.grad_g"),
    ("classifier.SystemSpec.hess_g", "ephemera.classifier", "SystemSpec.hess_g"),
    ("jets.InvariantPolynomial.wirtinger", "ephemera.jets", "InvariantPolynomial.wirtinger"),
    ("jets.slice_restriction", "ephemera.jets", "slice_restriction"),
    ("jets.vanishes_below_order_mod_phi", "ephemera.jets", "vanishes_below_order_mod_phi"),
    ("jets.chart_jet", "ephemera.jets", "chart_jet"),
)

# per-layer metrics: (metric name, unit, better); see README for the
# end-to-end metric each one should move
CALL_COUNTS = (
    "fiberlab.level_components", "fiberlab.critical_scan", "fiberlab.reduced_surface",
    "lattice.smith_normal_form", "classifier.classify_point",
    "classifier.is_critical_mod_phi", "classifier.SystemSpec.grad_g",
    "jets.InvariantPolynomial.wirtinger", "jets.chart_jet",
)


def metric_specs() -> list[tuple[str, str, str]]:
    out = []
    for name, _, _ in TARGETS:
        if name in CALL_COUNTS:
            out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if name == "fiberlab.level_components":
            out.append((f"{name}.cells_per_s", "cells/s", "higher"))
    out.append(("trace.overhead_s", "s", "lower"))
    out.append(("trace.uncovered_share", "share", "lower"))
    return out


def _level_cells(fn):
    """Grid cells one level_components call labels: resolution squared,
    with the resolution clamped as the scan clamps it."""
    signature = inspect.signature(fn)
    floor = sys.modules["ephemera.fiberlab"].MIN_RESOLUTION

    def cells(args, kwargs) -> float:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return float(max(int(bound.arguments["resolution"]), floor) ** 2)

    return cells


class Tracer:
    """Installs the wrappers; records spans while ``active``."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.name_idx: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.work: list[float] = []
        self._open: list[int] = []
        self._undo: list = []

    def _wrap(self, k: int, fn, work=None):
        name_idx, parent, start, end, spans_work, open_ = (
            self.name_idx, self.parent, self.start, self.end, self.work, self._open)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_idx.append(k)
            parent.append(open_[-1] if open_ else -1)
            spans_work.append(work(args, kwargs) if work else 0.0)
            end.append(0.0)
            open_.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ephemera" or name.startswith("ephemera.")]
        for k, (name, module, attr) in enumerate(TARGETS):
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(k, fn))
                self._undo.append((cls, meth, fn))
                continue
            fn = getattr(owner, attr)
            work = _level_cells(fn) if name == "fiberlab.level_components" else None
            wrapped = self._wrap(k, fn, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_idx=np.array(self.name_idx, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
            work=np.array(self.work),
        )


def layer_metrics(path: str, traced_rounds: int, traced_wall_s: float) -> dict:
    """Per-round calls and self time of each traced function, from the spans.

    traced_wall_s is the summed wall time of the traced rounds; the share
    of it that no top-level span covers is reported as uncovered.
    """
    data = np.load(path)
    names = [str(x) for x in data["names"]]
    idx, parent = data["name_idx"], data["parent"]
    dur = data["end"] - data["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child
    calls = np.bincount(idx, minlength=len(names))
    self_by = np.bincount(idx, weights=self_s, minlength=len(names))
    work_by = np.bincount(idx, weights=data["work"], minlength=len(names))
    out = {}
    for k, name in enumerate(names):
        if name in CALL_COUNTS:
            out[f"{name}.calls"] = float(calls[k]) / traced_rounds
        out[f"{name}.self_s"] = float(self_by[k]) / traced_rounds
        if name == "fiberlab.level_components":
            out[f"{name}.cells_per_s"] = (
                float(work_by[k]) / float(self_by[k]) if self_by[k] > 0 else 0.0)
    covered = float(dur[~has_parent].sum())
    out["trace.uncovered_share"] = max(traced_wall_s - covered, 0.0) / traced_wall_s
    return out
