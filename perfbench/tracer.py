"""Spans and counters around hexcircle's public functions.

The wrappers live here, in the benchmark, not in the program: installing a
tracer replaces each traced function in every hexcircle module that holds a
reference to it (modules that did ``from .x import f`` hold their own), and
uninstalling puts the originals back.  The runner fails closed on top of
this: a traced pass that records no call of a span its workload must reach
is an error (workloads.EXPECTED_SPANS).

A span records calls, total time and self time (its duration minus the part
covered by child spans).  Counting hooks run after the span has closed and
their time is excluded from the parent's self time too.
"""
from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from checks import RESIDUAL_CHECKS

PACKAGE = "hexcircle"

BACKEND_SCALAR_METHODS = ("real", "pi_times", "angle", "exp_i", "cos", "sin",
                          "sqrt", "atan2", "phase", "abs", "eps")


def _generate_z(tr, args, kwargs, zf):
    tr.counts["pattern_core.generate_z.sites"] += len(zf.values)
    # vertices off the three axes are the ones solved from cross-ratios
    tr.counts["pattern_core.generate_z.solved_sites"] += (
        len(zf.values) - (3 * zf.generation + 1))


def _max_face_residual(tr, args, kwargs, result):
    from hexcircle import pattern_core
    tr.counts["pattern_core.max_face_residual.faces"] += sum(
        1 for _ in pattern_core.iter_faces(args[0]))


def _count_len(key):
    def hook(tr, args, kwargs, result):
        tr.counts[key] += len(result.values)
    return hook


def _immersion_check(tr, args, kwargs, report):
    tr.counts["geometry.immersion_check.triangles"] += report.checked_triangles
    tr.counts["geometry.immersion_check.quads"] += report.checked_quads


def _run_checks(tr, args, kwargs, report):
    for name, res in report.residuals.items():
        tr.worst[name] = max(tr.worst.get(name, 0.0), float(res))


def _save_document(tr, args, kwargs, result):
    tr.counts["document.bytes"] += os.path.getsize(args[1])


def _render_svg(tr, args, kwargs, text):
    tr.counts["svg.bytes"] += len(text)


# (module, function, counting hook); every entry is a span
SPANS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("cli", "main", None),
    ("pattern_core", "generate_z", _generate_z),
    ("pattern_core", "max_face_residual", _max_face_residual),
    ("pattern_core", "max_constraint_residual", None),
    ("pattern_core", "max_zero_curvature_residual", None),
    ("radius_system", "generate_radii", _count_len("radius_system.generate_radii.sites")),
    ("radius_system", "seeds_from_pattern", None),
    ("radius_system", "dual", None),
    ("radius_system", "max_equation_residual", None),
    ("radius_system", "extract_radii", None),
    ("lattice", "fill_order", None),
    ("geometry", "reconstruct", _count_len("geometry.reconstruct.vertices")),
    ("geometry", "immersion_check", _immersion_check),
    ("geometry", "sg_slice", None),
    ("geometry", "sg_immersion_check", None),
    ("verify", "run_checks", _run_checks),
    ("verify", "max_kite_residual", None),
    ("document", "save_document", _save_document),
    ("document", "load_document", None),
    ("svg", "render_svg", _render_svg),
    ("painleve", "shoot", None),
    ("painleve", "run_trajectory", None),
    ("painleve", "growth_rate", None),
    ("riccati", "trajectory", None),
    ("riccati", "p0_via_series", None),
)
# called too often to time without distorting their callers: counted only
COUNTED = (("pattern_core", "solve_fourth"),)


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.worst: Dict[str, float] = {}
        # self time split by the CLI command being timed (set by the runner)
        self.kind = ""
        self.self_by_kind: Dict[str, Counter] = defaultdict(Counter)
        self._stack: List[List[float]] = []
        self._restore: List[Callable[[], None]] = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, name: str, fn, hook):
        stack, calls, self_s, by_kind = (self._stack, self.calls, self.self_s,
                                         self.self_by_kind)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                own = t1 - t0 - child[0]
                self_s[name] += own
                by_kind[self.kind][name] += own
                calls[name] += 1
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
            if hook is not None:
                hook(self, args, kwargs, result)
                if stack:
                    stack[-1][0] += time.perf_counter() - t1
            return result
        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod_name, attr, hook in SPANS:
            self._replace(modules, mod_name, attr,
                          lambda fn, n=f"{mod_name}.{attr}", h=hook: self._span(n, fn, h))
        for mod_name, attr in COUNTED:
            self._replace(modules, mod_name, attr,
                          lambda fn, n=f"{mod_name}.{attr}": self._counter(n, fn))
        backend = sys.modules[f"{PACKAGE}.numerics"].Backend
        for meth in BACKEND_SCALAR_METHODS:
            self._patch_method(backend, meth, self._counter("numerics.Backend", getattr(backend, meth)))
        self._patch_method(backend, "context",
                           self._counter("numerics.Backend.context", backend.context))

    def _replace(self, modules, mod_name: str, attr: str, make) -> None:
        original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
        wrapper = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append(functools.partial(setattr, mod, key, original))

    def _patch_method(self, cls, meth: str, wrapper) -> None:
        original = cls.__dict__[meth]
        setattr(cls, meth, wrapper)
        self._restore.append(functools.partial(setattr, cls, meth, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results ----------------------------------------------------------
    def missing(self, expected) -> List[str]:
        return [name for name in expected if self.calls[name] == 0]

    def metrics(self) -> Dict[str, float]:
        """Per-layer values of one traced pass, keyed by metric name."""
        out: Dict[str, float] = {}
        for mod_name, attr, _ in SPANS:
            out[f"{mod_name}.{attr}.self_s"] = self.self_s[f"{mod_name}.{attr}"]
        for name in ("pattern_core.solve_fourth", "lattice.fill_order",
                     "painleve.run_trajectory", "numerics.Backend",
                     "numerics.Backend.context"):
            out[f"{name}.calls"] = float(self.calls[name])
        for key in ("pattern_core.generate_z.sites", "pattern_core.max_face_residual.faces",
                    "radius_system.generate_radii.sites", "geometry.reconstruct.vertices",
                    "geometry.immersion_check.triangles", "geometry.immersion_check.quads",
                    "document.bytes", "svg.bytes"):
            out[key] = float(self.counts[key])
        solved = self.counts["pattern_core.generate_z.solved_sites"]
        out["pattern_core.generate_z.solves_per_site"] = (
            self.calls["pattern_core.solve_fourth"] / solved if solved else 0.0)
        for check in RESIDUAL_CHECKS:
            out[f"verify.{check}.residual_log10"] = log10_floor(self.worst.get(check, 0.0))
        return out


def unit_of(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("log10", "log10"), ("per_site", "ratio"),
                         ("bytes", "B")):
        if metric.endswith(suffix):
            return unit
    return "count"


def log10_floor(x: float) -> float:
    """log10 of a residual; zero (or a check that did not run) maps to the
    log10 of the smallest positive double."""
    return math.log10(max(x, 5e-324))
