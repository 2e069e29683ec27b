"""Verification engine for pattern documents."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import geometry, lattice, pattern_core, radius_system
from .document import PatternDocument
from .numerics import worst_of

DEFAULT_TOLERANCES = {
    "crossratio": 1e-9,
    "constraint": 1e-9,
    "laxzc": 1e-9,
    "kite": 1e-9,
    "positivity": 0.0,
    "immersion": 0.0,
    "radius_eq": 1e-9,
}

ALL_CHECKS = tuple(DEFAULT_TOLERANCES)


@dataclass
class VerifyReport:
    residuals: Dict[str, float] = field(default_factory=dict)
    passed: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.passed.values())

    def lines(self) -> List[str]:
        out = []
        for name in self.residuals:
            status = "pass" if self.passed[name] else "FAIL"
            out.append(f"{name:12s} max-residual {self.residuals[name]:.3e}  {status}")
        out.extend(self.notes)
        return out


def applicable_checks(doc: PatternDocument) -> List[str]:
    checks = []
    if doc.vertices:
        checks += ["crossratio", "kite", "immersion"]
        if doc.mode in ("hex", "sg") and doc.route == "crossratio":
            checks += ["constraint", "laxzc"]
    if doc.radii:
        checks += ["positivity", "radius_eq"]
    return checks


def run_checks(doc: PatternDocument, checks=None,
               tolerances: Optional[Dict[str, float]] = None) -> VerifyReport:
    tolerances = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    if checks is None:
        checks = applicable_checks(doc)
    report = VerifyReport()
    zf = doc.zfield() if doc.vertices else None
    rf = doc.radius_field() if doc.radii else None
    for name in checks:
        try:
            res = _residual(name, doc, zf, rf, report.notes)
        except ArithmeticError as exc:
            # a degenerate stencil is a failed check, not a crash
            report.notes.append(f"{name}: {exc}")
            res = math.inf
        if res is None:
            continue
        report.residuals[name] = res
        report.passed[name] = res <= tolerances[name]
    return report


def _residual(name, doc, zf, rf, notes) -> Optional[float]:
    """Residual of one check, or None (with a note) when it does not apply."""
    if name == "crossratio":
        if zf is None:
            notes.append("crossratio: no vertices stored")
            return None
        return pattern_core.max_face_residual(zf)
    elif name == "constraint":
        if zf is None or doc.mode in ("log",):
            notes.append("constraint: not applicable")
            return None
        return pattern_core.max_constraint_residual(zf)
    elif name == "laxzc":
        if zf is None:
            notes.append("laxzc: no vertices stored")
            return None
        return pattern_core.max_zero_curvature_residual(zf)
    elif name == "kite":
        if zf is None:
            notes.append("kite: no vertices stored")
            return None
        return max_kite_residual(zf)
    elif name == "positivity":
        if rf is None:
            notes.append("positivity: no radii stored")
            return None
        bad = [s for s, v in rf.values.items()
               if not rf.is_pole(s) and (math.isnan(v) or v < 0
                                         or (v == 0 and s not in rf.pole_sites
                                             and doc.mode not in ("z2",)))]
        return float(len(bad))
    elif name == "immersion":
        if zf is None:
            notes.append("immersion: no vertices stored")
            return None
        if doc.mode == "sg":
            sg = geometry.sg_slice(zf)
            rep = geometry.sg_immersion_check(sg)
        else:
            slab_only = doc.route == "reconstructed" or doc.mode in ("z2", "log")
            rep = geometry.immersion_check(zf, slab_only=slab_only)
        return float(len(rep.failures))
    elif name == "radius_eq":
        if rf is None:
            notes.append("radius_eq: no radii stored")
            return None
        return radius_system.max_equation_residual(rf)
    raise ValueError(f"unknown check {name}")


def max_kite_residual(zf) -> float:
    """Worst deviation of the neighbor distances around any center from a
    common value (max/min ratio minus one).

    A center whose neighbors all coincide with it (the branch point of the
    c = 2 pattern) is skipped; one with some but not all distances zero is
    a collapsed edge and gives inf.
    """
    spreads = []
    with zf.params.backend().context():
        for site in zf.values:
            if lattice.parity(site) != 0:
                continue
            dists = pattern_core.axis_distances(zf.values, site)
            if any(math.isnan(d) for d in dists):
                return math.nan
            if len(dists) < 2 or max(dists) == 0:
                continue
            spreads.append(max(dists) / min(dists) - 1.0 if min(dists) else math.inf)
    return worst_of(spreads)
