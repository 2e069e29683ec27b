"""Reference formulas the tests check the package against.

Each one is the plain, divided form of a relation that the package
evaluates another way, or a helper no command runs: the cross-ratio, the
non-autonomous constraint and the Lax edge constants of the evolved map;
the residuals of the three radius relations, and the solves of their
stencils in floats or mpf (the fill runs them on integers over 2**bits);
one step of the unitary boundary recurrence and the sector of a unit
complex number; one step of the ratio recurrence and the hypergeometric
solutions of its linearization.  Nothing in the package calls them, so a
reference stays apart from the code it checks.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional

from hexcircle import painleve, pattern_core, radius_system, riccati
from hexcircle.lattice import SubIndex, hex_coefficients, hex_stencil_slots
from hexcircle.numerics import DEFAULT_EXT_DPS, DOUBLE, ComplexNumber, mp
from hexcircle.painleve import SectorTag
from hexcircle.pattern_core import DegenerateQuadError, MultiIndex, PatternParams, ZField
from hexcircle.radius_system import POLE, DegenerateStencilError, angle_constants, is_pole
from hexcircle.riccati import SERIES_DPS, Boundary


# ---------------------------------------------------------------------------
# the evolved map
# ---------------------------------------------------------------------------

def isotropic_params(c: float, precision: str = DOUBLE,
                     dps: int = DEFAULT_EXT_DPS) -> PatternParams:
    third = Fraction(1, 3)
    return PatternParams(alphas=(math.pi / 3,) * 3, c=c, precision=precision,
                         dps=dps, alpha_pi_fracs=(third, third, third))


def cross_ratio(z1, z2, z3, z4) -> ComplexNumber:
    den = (z2 - z3) * (z4 - z1)
    if den == 0:
        raise DegenerateQuadError("coincident points in cross-ratio")
    return (z1 - z2) * (z3 - z4) / den


def axis_stencil(p: MultiIndex):
    """(n_j, up_j, down_j) of the constraint at p along each axis j."""
    k, l, m = p
    return ((k, (k + 1, l, m), (k - 1, l, m)), (l, (k, l + 1, m), (k, l - 1, m)),
            (m, (k, l, m + 1), (k, l, m - 1)))


def constraint_residual(zf: ZField, p: MultiIndex) -> ComplexNumber:
    """LHS - RHS of the non-autonomous constraint at p (all six neighbors
    must be stored)."""
    z0 = zf[p]
    res = zf.params.c * z0
    for j, up, dn in axis_stencil(p):
        zu, zd = zf[up], zf[dn]
        den = zu - zd
        if den == 0:
            raise DegenerateQuadError(f"collinear stencil degenerate at {p}")
        res = res - 2 * j * (zu - z0) * (z0 - zd) / den
    return res


def lax_deltas(params: PatternParams) -> Dict[int, complex]:
    """Unit-modulus edge constants from the prescribed face values.

    The compatibility of two transport products around a face forces the
    ratio delta_j/delta_i to equal the inverse cross-ratio of that face, so
    the ratios are the inverse targets, with delta_1 = 1 frozen.
    """
    bk = params.backend()
    with bk.context():
        return pattern_core._deltas(pattern_core.face_targets(params, bk), bk)


# ---------------------------------------------------------------------------
# the radius relations: divided residuals and float/mpf solves
# ---------------------------------------------------------------------------

def hex_residual(label: SubIndex, values: Dict[SubIndex, float], c: float) -> Optional[float]:
    """Residual of the six-circle relation at a sublattice label, or None if
    a needed slot is missing.  Slots multiplied by a zero coefficient are
    ignored; pole values contribute their limit ratio (+-1)."""
    slots = hex_stencil_slots(label)
    co = hex_coefficients(label)
    total = 0.0
    for cf, (pa, pb) in zip(co, radius_system._HEX_PAIRS):
        if cf == 0:
            continue
        if slots[pa] not in values or slots[pb] not in values:
            return None
        ra, rb = values[slots[pa]], values[slots[pb]]
        if math.isinf(ra) and math.isinf(rb):
            return None
        if math.isinf(ra):
            ratio = 1.0
        elif math.isinf(rb):
            ratio = -1.0
        else:
            ratio = (ra - rb) / (ra + rb)
        total += cf * ratio
    return total - (c - 1)


def hex_solve(K: int, L: int, M: int, *, r1=None, r3=None, r4=None, r5=None,
              r6=None, c: float) -> float:
    """radius_system.hex_solve in floats or mpf: r2 = r5 (co_m + acc) /
    (co_m - acc), acc the balance left by the active pairs, divided pair by
    pair.  A pole in a pair gives NaN."""
    co_k, co_l, co_m = hex_coefficients((K, L, M))
    if co_m == 0:
        raise DegenerateStencilError("unknown slot has zero coefficient")
    acc = c - 1
    for cf, ra, rb, names in ((co_k, r4, r1, "r4/r1"), (co_l, r6, r3, "r6/r3")):
        if cf == 0:
            continue
        if ra is None or rb is None:
            raise DegenerateStencilError(f"missing known slots {names}")
        pair = ra + rb
        if pair == 0:
            raise DegenerateStencilError(f"degenerate pair {names}")
        acc -= cf * (ra - rb) / pair
    if r5 is None:
        raise DegenerateStencilError("missing known slot r5")
    if is_pole(r5):
        # limit ratio is -1 for finite r2
        if acc == -co_m:
            raise DegenerateStencilError("pole slot leaves r2 undetermined")
        raise DegenerateStencilError("pole in r5 with inconsistent balance")
    if co_m == acc:
        return POLE
    return r5 * (co_m + acc) / (co_m - acc)


def border_residual(r: float, r1: float, r2: float, r3: float,
                    cos_alpha: float) -> float:
    """Residual of the border relation for the four circles along a
    boundary row."""
    return ((r1 + r2) * (r * r - r2 * r3 + r * (r3 - r2) * cos_alpha)
            + (r3 + r2) * (r * r - r2 * r1 + r * (r1 - r2) * cos_alpha))


def border_solve(r: float, r2: float, r3: float, angle_index: int,
                 params: PatternParams, cosines=None) -> float:
    """radius_system.border_solve in floats or mpf, cosines those of
    angle_constants at the working precision when not passed.  A pole
    among the radii gives NaN."""
    if angle_index not in (2, 3):
        raise ValueError("angle_index must be 2 or 3")
    if cosines is None:
        cosines = angle_constants(params)[1]
    t = cosines[angle_index - 1]
    # linear in r1: r1 * [A + (r3+r2)(r t - r2)] + r2 A + (r3+r2) r (r - r2 t) = 0
    a_fac = (r * r - r2 * r3) + r * (r3 - r2) * t
    den = a_fac + (r3 + r2) * (r * t - r2)
    if den == 0:
        raise DegenerateStencilError("border relation degenerate")
    return -(r2 * a_fac + (r3 + r2) * r * (r - r2 * t)) / den


def tri_residual(r: float, r1: float, r2: float, r3: float,
                 params: PatternParams) -> float:
    s1, s2, s3 = angle_constants(params)[0]
    return (r * (r1 * s3 + r2 * s1 + r3 * s2)
            - (r1 * r2 * s2 + r2 * r3 * s3 + r3 * r1 * s1))


def tri_solve_slot2(r: float, r1: float, r3: float,
                    params: PatternParams, sines=None) -> float:
    """radius_system.tri_solve_slot2 in floats or mpf, sines those of
    angle_constants at the working precision when not passed.  A pole
    among the radii gives NaN."""
    s1, s2, s3 = sines if sines is not None else angle_constants(params)[0]
    den = r * s1 - r1 * s2 - r3 * s3
    if den == 0:
        raise DegenerateStencilError("three-circle slot solve degenerate")
    return (r1 * r3 * s1 - r * (r1 * s3 + r3 * s2)) / den


# ---------------------------------------------------------------------------
# the boundary recurrences
# ---------------------------------------------------------------------------

def dpii_step(n: int, x_prev: complex, x_cur: complex, c: float,
              epsilon: complex) -> complex:
    """x_{n+1} solving the recurrence, renormalized to unit modulus; for
    n = 0 x_prev is ignored."""
    return painleve._step_raw(n, x_prev, x_cur, c, epsilon)[0]


def sector_of(x, b: Boundary) -> SectorTag:
    """The sector of a unit complex x, by sector_of_signs."""
    x, eps = complex(x), b.eps()
    return painleve.sector_of_signs(x.imag, x.imag * eps.real - x.real * eps.imag)


def riccati_step(p, n: int, b: Boundary):
    """p_{n+1} at the precision of p: an mpf p takes c and t = cos(alpha)
    at the working precision, any other p the doubles."""
    return riccati._step(p, n, *riccati._data(b, mp.mp.prec if isinstance(p, mp.mpf) else None))


def y_basis(n: int, boundary: Boundary, which: int) -> float:
    """Exact solutions of the linearized recurrence at SERIES_DPS digits,
    rounded once: which=2 the separatrix R(n, c, sin(alpha/2)^2), which=1
    its mirror (-1)^n R(n, c, cos(alpha/2)^2) (see riccati's docstring)."""
    if n < 0:
        raise riccati.ParameterError("index must be nonnegative")
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    with mp.workdps(SERIES_DPS):
        c, _ = riccati._data(boundary, mp.mp.prec)
        half = boundary.angle(mp.mp.prec) / 2
        if which == 2:
            return float(riccati._regular(n, c, mp.sin(half) ** 2))
        return float((-1) ** n * riccati._regular(n, c, mp.cos(half) ** 2))


def y_closed(n: int, c1: float, c2: float, b: Boundary) -> float:
    """c1 y_basis(n, b, 1) + c2 y_basis(n, b, 2): the general solution."""
    return sum((k * y_basis(n, b, which) for k, which in ((c1, 1), (c2, 2)) if k), 0.0)
