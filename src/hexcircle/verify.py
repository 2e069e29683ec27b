"""Verification engine for pattern documents: one row of CHECKS per check."""
from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Optional

from . import geometry, pattern_core, radius_system
from .document import PatternDocument
from .numerics import Record, worst_of


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


class Check(NamedTuple):
    """One check: tolerance, whether it applies to a document, the noun for
    what it tests, and its sweep (doc, zf, rf) -> (residual, items), with
    items a lazy iterable read only when the residual is 0 (a check that
    tested nothing FAILs).  Sweeps look their functions up when they run."""
    tolerance: float
    applies: Callable[[PatternDocument], bool]
    noun: str
    sweep: Callable


def _stores(part: str, *modes: str) -> Callable[[PatternDocument], bool]:
    """Documents that store part and, given modes, are of the cross-ratio route in one of them."""
    return lambda doc: bool(getattr(doc, part)) and (
        not modes or doc.route == "crossratio" and doc.mode in modes)


def _later(make):
    """The items of make(), made at the first one asked for."""
    yield from make()


def _positivity(doc, zf, rf):
    # positive (a pole, +inf, is), or the branch point of the c = 2
    # pattern, whatever the mode that labels it
    branch = doc.route == "radius" and doc.params.c == 2
    bad = [s for s, v in rf.values.items()
           if not (radius_system.is_positive(v) or v == 0 and s == (0, 0, 0) and branch)]
    return float(len(bad)), rf.values


def _immersion(doc, zf, rf):
    # an sg document stores only the l = 0 plane
    rep = (geometry.sg_immersion_check if doc.mode == "sg" else geometry.immersion_check)(zf)
    return float(len(rep.failures)), range(rep.checked_triangles + rep.checked_quads)


#: every check, in the order of a default run
CHECKS: Dict[str, Check] = {
    "crossratio": Check(1e-9, _stores("vertices"), "faces", lambda doc, zf, rf: (
        pattern_core.max_face_residual(zf), _later(lambda: pattern_core.iter_faces(zf)))),
    # a center with one neighbor distance has no spread to test
    "kite": Check(1e-9, _stores("vertices"), "centers", lambda doc, zf, rf: (
        max_kite_residual(zf), _later(lambda: (
            sq for sq in radius_system.axis_sq_distances(zf)[0].values() if len(sq) > 1)))),
    "immersion": Check(0.0, _stores("vertices"), "triangles or quads", _immersion),
    "constraint": Check(1e-9, _stores("vertices", "hex"), "interior sites", lambda doc, zf, rf: (
        pattern_core.max_constraint_residual(zf), pattern_core.interior_sites(zf))),
    "laxzc": Check(1e-9, _stores("vertices", "hex", "sg"), "faces", lambda doc, zf, rf: (
        pattern_core.max_zero_curvature_residual(zf),
        _later(lambda: pattern_core.iter_faces(zf)))),
    "positivity": Check(0.0, _stores("radii"), "radii", _positivity),
    "radius_eq": Check(1e-9, _stores("radii"), "stencils", lambda doc, zf, rf: (
        radius_system.max_equation_residual(rf),
        _later(lambda: radius_system.equation_defects(rf)))),
}
ALL_CHECKS = tuple(CHECKS)
#: the checks generate records in a document's summary, per route
SUMMARY_CHECKS = {"crossratio": ("crossratio", "constraint", "laxzc"),
                  "radius": ("crossratio", "radius_eq")}


def applicable_checks(doc: PatternDocument) -> List[str]:
    return [name for name, check in CHECKS.items() if check.applies(doc)]


def summary(doc: PatternDocument, zf, rf) -> Dict[str, float]:
    """The residuals of doc's SUMMARY_CHECKS that apply, laxzc as zerocurvature."""
    return {"zerocurvature" if name == "laxzc" else name: CHECKS[name].sweep(doc, zf, rf)[0]
            for name in SUMMARY_CHECKS[doc.route] if CHECKS[name].applies(doc)}


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
        if name not in CHECKS:
            raise ValueError(f"unknown check {name}")
        if name not in applicable:
            report.notes.append(f"{name}: not applicable")
            continue
        try:
            res, items = CHECKS[name].sweep(doc, zf, rf)
        except ArithmeticError as exc:
            # a degenerate stencil is a failed check, not a crash
            report.notes.append(f"{name}: {exc}")
            res = math.inf
        except pattern_core.IncompleteStencilError as exc:
            # so is a stencil the document does not store
            report.notes.append(f"{name}: missing vertex {exc}")
            res = math.inf
        report.residuals[name] = res
        report.passed[name] = res <= CHECKS[name].tolerance
        if res == 0.0 and next(iter(items), None) is None:
            report.notes.append(f"{name}: no {CHECKS[name].noun} to check")
            report.passed[name] = False
    return report


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
