"""Verification engine for pattern documents."""
from __future__ import annotations

import math
from typing import Dict, List, Optional

from . import geometry, pattern_core, radius_system
from .document import PatternDocument
from .numerics import Record, worst_of

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

#: what each residual check tests; one that found none of them FAILs
CHECK_ITEMS = {"crossratio": "faces", "constraint": "interior sites", "laxzc": "faces",
               "kite": "centers", "radius_eq": "stencils"}


class VerifyReport(Record):
    _fields = ("residuals", "passed", "notes")

    def __init__(self, residuals: Optional[Dict[str, float]] = None,
                 passed: Optional[Dict[str, bool]] = None, notes: Optional[List[str]] = None):
        self.residuals = {} if residuals is None else residuals
        self.passed = {} if passed is None else passed
        self.notes = [] if notes is None else notes

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
        if doc.route == "crossratio" and doc.mode == "hex":
            checks.append("constraint")
        if doc.route == "crossratio" and doc.mode in ("hex", "sg"):
            checks.append("laxzc")
    if doc.radii:
        checks += ["positivity", "radius_eq"]
    return checks


def run_checks(doc: PatternDocument, checks=None) -> VerifyReport:
    """Run the requested checks (default: every applicable one); a requested
    check that applicable_checks leaves out is noted as not applicable."""
    applicable = applicable_checks(doc)
    if checks is None:
        checks = applicable
    report = VerifyReport()
    lax = "laxzc" in checks and "laxzc" in applicable
    zf = pattern_core.FieldSnapshot(doc.zfield(), lax) if doc.vertices else None
    rf = doc.radius_field() if doc.radii else None
    for name in checks:
        if name not in ALL_CHECKS:
            raise ValueError(f"unknown check {name}")
        if name not in applicable:
            report.notes.append(f"{name}: not applicable")
            continue
        try:
            res = _residual(name, doc, zf, rf)
        except ArithmeticError as exc:
            # a degenerate stencil is a failed check, not a crash
            report.notes.append(f"{name}: {exc}")
            res = math.inf
        except pattern_core.IncompleteStencilError as exc:
            # so is a stencil the document does not store
            report.notes.append(f"{name}: missing vertex {exc}")
            res = math.inf
        report.residuals[name] = res
        report.passed[name] = res <= DEFAULT_TOLERANCES[name]
        # a residual above zero proves the check tested something
        if res == 0.0 and name in CHECK_ITEMS and not _has_items(name, zf, rf):
            report.notes.append(f"{name}: no {CHECK_ITEMS[name]} to check")
            report.passed[name] = False
    return report


def _has_items(name, zf, rf) -> bool:
    """Whether a residual check that read 0.0 had anything to test."""
    if name in ("crossratio", "laxzc"):
        return next(pattern_core.iter_faces(zf), None) is not None
    if name == "constraint":
        return next(pattern_core.interior_sites(zf), None) is not None
    if name == "kite":
        return any(len(sq) > 1 for sq in radius_system.axis_sq_distances(zf)[0].values())
    return bool(radius_system.equation_defects(rf))


def _residual(name, doc, zf, rf) -> float:
    """Residual of one applicable check."""
    if name == "crossratio":
        return pattern_core.max_face_residual(zf)
    elif name == "constraint":
        return pattern_core.max_constraint_residual(zf)
    elif name == "laxzc":
        return pattern_core.max_zero_curvature_residual(zf)
    elif name == "kite":
        return max_kite_residual(zf)
    elif name == "positivity":
        # positive (a pole, +inf, is), or the branch point of z^2
        bad = [s for s, v in rf.values.items()
               if not (v > 0 or v == 0 and s == (0, 0, 0) and doc.mode == "z2")]
        return float(len(bad))
    elif name == "immersion":
        if doc.mode == "sg":  # the document stores only the l = 0 plane
            rep = geometry.sg_immersion_check(zf)
        else:
            rep = geometry.immersion_check(zf)
        return float(len(rep.failures))
    return radius_system.max_equation_residual(rf)  # radius_eq


def max_kite_residual(zf) -> float:
    """Worst deviation of the neighbor distances around any center from a
    common value: hi/lo - 1 of the largest and smallest distance.

    With the squared distances of radius_system.axis_sq_distances (exact
    integers on an extended field), gap = (hi^2 - lo^2) / lo^2 is one
    rounded quotient, and hi/lo - 1 = gap / (sqrt(1 + gap) + 1), which does
    not depend on the scale of the field.  A center whose neighbors all
    coincide with it (the branch point of the c = 2 pattern) is skipped; one
    with some but not all distances zero is a collapsed edge and gives inf.
    A field that cannot be read gives NaN.
    """
    read = radius_system.axis_sq_distances(zf)
    if read is None:
        return math.nan
    spreads = []
    for sq in read[0].values():
        if len(sq) < 2:
            continue
        hi, lo = max(sq), min(sq)
        if not hi:
            continue
        if not lo:
            spreads.append(math.inf)
            continue
        gap = (hi - lo) / lo
        spreads.append(gap / (math.sqrt(1 + gap) + 1))
    return worst_of(spreads)
