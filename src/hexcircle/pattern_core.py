"""Cross-ratio route: evolve the discrete map z on the octant Q.

The map is pinned by z(0,0,0)=0 and the three unit-modulus initial values on
the axes; the non-autonomous constraint evolves the axes and the three
cross-ratio equations (one per face orientation, with prescribed values
exp(-2i*alpha_i)) fill the rest.  Verification operators check the face
cross-ratios, the constraint residual and the zero-curvature identity of the
2x2 transport matrices.
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Iterator, Mapping, Optional, Tuple

from .lattice import MultiIndex, generation, q_sites
from .numerics import (ANGLE_GUARD_BITS, DEFAULT_EXT_DPS, DOUBLE, Backend,
                       ComplexNumber, Record, aligned_points, div_nearest, fixed_bits,
                       fixed_real, fixed_unit, mp, quotient, raw_mpf, root_quotient, top_bits,
                       worse, worst_of)

ANGLE_SUM_TOL = 1e-12


class DegenerateQuadError(ArithmeticError):
    """Cross-ratio or its inversion hit a vanishing denominator."""


class AxisDegeneracyError(ArithmeticError):
    """Axis evolution hit a vanishing denominator."""


class IncompleteStencilError(KeyError):
    """A verification stencil reaches outside the stored field."""


class UnsupportedExponentError(ValueError):
    """The cross-ratio route needs 0 < c < 2; c = 2 uses the radius route."""


class PatternParams(namedtuple("PatternParams", "alphas c precision dps alpha_pi_fracs")):
    """Intersection angles, exponent and working precision of one pattern."""

    __slots__ = ()

    def __new__(cls, alphas: Tuple[float, float, float], c: float, precision: str = DOUBLE,
                dps: int = DEFAULT_EXT_DPS,
                alpha_pi_fracs: Optional[Tuple[Fraction, Fraction, Fraction]] = None):
        self = super().__new__(cls, alphas, c, precision, dps, alpha_pi_fracs)
        a1, a2, a3 = self.alphas
        if not all(math.isfinite(a) for a in self.alphas):
            raise ValueError("intersection angles must be finite")
        if min(a1, a2, a3) <= 0:
            raise ValueError("intersection angles must be positive")
        if abs(a1 + a2 + a3 - math.pi) > ANGLE_SUM_TOL:
            raise ValueError("intersection angles must sum to pi")
        if not (0 <= self.c <= 2):
            # c = 0 only occurs as the dual of the c = 2 pattern
            raise ValueError("exponent must satisfy 0 <= c <= 2")
        if self.alpha_pi_fracs is not None and (len(self.alpha_pi_fracs) != 3
                                                or sum(self.alpha_pi_fracs) != 1):
            raise ValueError("need three pi-fractions of the angles summing to 1")
        self.backend()  # rejects an unknown precision mode or dps
        return self

    def backend(self) -> Backend:
        return Backend(self.precision, self.dps)

    def exact_angle(self, i: int, bk: Optional[Backend] = None):
        """Angle i at bk's precision; an extended run of a float triple
        closes it there, alpha3 = pi - alpha1 - alpha2 (as guarded_angles)."""
        bk = bk or self.backend()
        frac = self.alpha_pi_fracs[i] if self.alpha_pi_fracs else None
        if i == 2 and frac is None and not bk.is_double:
            with bk.context():
                return mp.pi - mp.mpf(self.alphas[0]) - mp.mpf(self.alphas[1])
        return bk.angle(self.alphas[i], frac)


def isotropic_params(c: float, precision: str = DOUBLE,
                     dps: int = DEFAULT_EXT_DPS) -> PatternParams:
    third = Fraction(1, 3)
    return PatternParams(alphas=(math.pi / 3,) * 3, c=c, precision=precision,
                         dps=dps, alpha_pi_fracs=(third, third, third))


class ZField(Record):
    """Discrete map on Q up to a generation bound."""

    _fields = ("params", "values", "generation", "meta")

    def __init__(self, params: PatternParams, values: Dict[MultiIndex, ComplexNumber],
                 generation: int, meta: Optional[dict] = None):
        self.params, self.values, self.generation = params, values, generation
        self.meta = {} if meta is None else meta

    def __getitem__(self, site: MultiIndex) -> ComplexNumber:
        try:
            return self.values[site]
        except KeyError:
            raise IncompleteStencilError(site) from None


class FieldSnapshot(ZField):
    """A read-only copy of a field that keeps the @memoised reads of one
    command: values is a MappingProxyType over a dict of its own, so nothing
    kept can go stale.  With lax the face pass forms the laxzc terms too."""

    def __init__(self, zf: ZField, lax: bool = False):
        super().__init__(zf.params, MappingProxyType(dict(zf.values)), zf.generation,
                         dict(zf.meta))
        self.lax, self.memo = lax, {}


def memoised(fn):
    """fn(zf, *args), made once per args and kept when zf is a FieldSnapshot."""
    @functools.wraps(fn)
    def wrapper(zf, *args):
        memo, key = zf.memo if isinstance(zf, FieldSnapshot) else {}, (fn, args)
        if key not in memo:
            memo[key] = fn(zf, *args)
        return memo[key]
    return wrapper


def cross_ratio(z1, z2, z3, z4) -> ComplexNumber:
    den = (z2 - z3) * (z4 - z1)
    if den == 0:
        raise DegenerateQuadError("coincident points in cross-ratio")
    return (z1 - z2) * (z3 - z4) / den


def _divide(nx, ny, dx, dy) -> Tuple[int, int]:
    """(nx + i ny) / (dx + i dy) as N conj(D) / |D|**2, each part rounded to nearest."""
    m = dx * dx + dy * dy
    return div_nearest(nx * dx + ny * dy, m), div_nearest(ny * dx - nx * dy, m)


def solve_fourth(z1, z2, z3, q_target, bits: Optional[int] = None) -> ComplexNumber:
    """Fourth vertex with cross_ratio(z1, z2, z3, result) == q_target:
    N / D with a = z1 - z2, b = z2 - z3, D = a + q b, N = a z3 + q b z1.

    With bits, arguments and result are pairs of integers over 2**bits; D
    and N are exact (over 2**(2 bits), 2**(3 bits)) and N / D is one
    rounded division per coordinate, within half a unit 2**-bits of the
    exact fourth vertex of the given points and target."""
    if bits is None:
        if q_target == 0:
            raise DegenerateQuadError("cross-ratio target must be nonzero")
        a = z1 - z2
        b = z2 - z3
        den = a + q_target * b
        if den == 0:
            raise DegenerateQuadError("no finite fourth vertex for this target")
        return (a * z3 + q_target * b * z1) / den
    (x1, y1), (x2, y2), (x3, y3), (qx, qy) = z1, z2, z3, q_target
    if not (qx or qy):
        raise DegenerateQuadError("cross-ratio target must be nonzero")
    ax, ay, bx, by = x1 - x2, y1 - y2, x2 - x3, y2 - y3
    qbx, qby = qx * bx - qy * by, qx * by + qy * bx
    dx, dy = (ax << bits) + qbx, (ay << bits) + qby
    if not (dx or dy):
        raise DegenerateQuadError("no finite fourth vertex for this target")
    return _divide(((ax * x3 - ay * y3) << bits) + qbx * x1 - qby * y1,
                   ((ax * y3 + ay * x3) << bits) + qbx * y1 + qby * x1, dx, dy)


def axis_next(n: int, z_prev, z_cur, c, bits: Optional[int] = None) -> ComplexNumber:
    """Next axis value from the constraint, n = index of z_cur (distance
    from the origin along the axis): z_cur (c z_prev - 2 n d) / (c z_cur - 2 n d),
    d = z_cur - z_prev.  With bits, c and the points are over 2**bits, and
    the quotient is exact up to one rounding per coordinate (solve_fourth)."""
    if bits is None:
        d = z_cur - z_prev
        den = c * z_cur - 2 * n * d
        if den == 0:
            raise AxisDegeneracyError(f"axis step degenerate at n={n}")
        return z_cur * (c * z_prev - 2 * n * d) / den
    (px, py), (x, y) = z_prev, z_cur
    tx, ty = (2 * n * (x - px)) << bits, (2 * n * (y - py)) << bits
    dx, dy = c * x - tx, c * y - ty
    if not (dx or dy):
        raise AxisDegeneracyError(f"axis step degenerate at n={n}")
    fx, fy = c * px - tx, c * py - ty
    return _divide(x * fx - y * fy, x * fy + y * fx, dx, dy)


# face orientations: (i, j) means the face {v, v+e_i, v+e_i-e_j, v-e_j};
# the plane span (in either order) determines the face type and so the
# prescribed angle.  FACE_SPAN is the orientation iter_faces enumerates.
_E = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}
FACE_SPAN = {1: (2, 1), 2: (3, 2), 3: (1, 3)}


def face_sites(base: MultiIndex, i: int, j: int) -> Tuple[MultiIndex, ...]:
    """Corners (f1, f2, f3, f4) of the face at base spanning +e_i, -e_j."""
    (k, l, m), (a, b, c), (d, e, f) = base, _E[i], _E[j]
    return base, (k + a, l + b, m + c), (k + a - d, l + b - e, m + c - f), (k - d, l - e, m - f)


# corners (f2, f3, f4) of the face of each type at the origin
_FACE_OFFSETS = tuple((t, face_sites((0, 0, 0), i, j)[1:]) for t, (i, j) in FACE_SPAN.items())


def _faces(stored: Mapping[MultiIndex, object]):
    """(type_index, corners, corner values) of every face of stored."""
    get = stored.get
    for v, p1 in stored.items():
        k, l, m = v
        for t, ((k2, l2, m2), (k3, l3, m3), (k4, l4, m4)) in _FACE_OFFSETS:
            f2, f3 = (k + k2, l + l2, m + m2), (k + k3, l + l3, m + m3)
            f4 = (k + k4, l + l4, m + m4)
            p2, p3, p4 = get(f2), get(f3), get(f4)
            if p2 is not None and p3 is not None and p4 is not None:
                yield t, (v, f2, f3, f4), (p1, p2, p3, p4)


def iter_faces(zf: ZField) -> Iterator[Tuple[int, Tuple[MultiIndex, ...]]]:
    """Every stored elementary face, once, as (type_index, corners).

    Enumerates the orientations of FACE_SPAN; the reversed spans describe
    the same faces.
    """
    return ((t, sites) for t, sites, _ in _faces(zf.values))


# corners (f2, f3, f4) of the slab faces spanning (1,2), (1,3), (2,3) at the origin
_SLAB_OFFSETS = tuple(face_sites((0, 0, 0), i, j)[1:] for i, j in ((1, 2), (1, 3), (2, 3)))


def iter_slab_faces(stored: Mapping[MultiIndex, object]) -> Iterator[Tuple[MultiIndex, ...]]:
    """Corners of the faces of the hexagonal pattern, in the order of stored:
    the faces spanning (1,2), (1,3), (2,3) at every vertex with k+l+m = 0
    whose four corners are all stored."""
    for v in stored:
        k, l, m = v
        if k + l + m:
            continue
        for (k2, l2, m2), (k3, l3, m3), (k4, l4, m4) in _SLAB_OFFSETS:
            f2 = (k + k2, l + l2, m + m2)
            if f2 in stored:
                f3 = (k + k3, l + l3, m + m3)
                if f3 in stored:
                    f4 = (k + k4, l + l4, m + m4)
                    if f4 in stored:
                        yield v, f2, f3, f4


def face_targets(params: PatternParams, bk: Optional[Backend] = None):
    bk = bk or params.backend()
    return {t: bk.exp_i(-2 * params.exact_angle(t - 1, bk)) for t in (1, 2, 3)}


def guarded_angles(params: PatternParams, bits: int):
    """The three exact angles as mpf to bits + ANGLE_GUARD_BITS bits, the
    angles a fixed-point run of width bits takes its unit vectors from.  An
    extended float triple closes at that width: alpha3 = pi - alpha1 - alpha2;
    a double one keeps its three floats."""
    with mp.workprec(bits + ANGLE_GUARD_BITS):
        fracs = params.alpha_pi_fracs
        if fracs:
            return [mp.pi * f.numerator / f.denominator for f in fracs]
        a1, a2, a3 = map(mp.mpf, params.alphas)
        return [a1, a2, a3 if params.precision == DOUBLE else mp.pi - a1 - a2]


def generate_z(params: PatternParams, n_max: int,
               initial_override: Optional[dict] = None) -> ZField:
    """Fill Q up to generation n_max from the closed-form initial data.

    Axes come from the constraint, everything else from the cross-ratio
    equations, shell by shell.  A vertex reachable from several faces is
    solved once, from the first available orientation; the cross-ratio
    system is consistent, so the other orientations agree with it, and
    max_face_residual checks every one of those faces.

    An extended run works on pairs of integers over 2**P, P =
    numerics.fixed_bits(dps): seeds and targets lie within one unit (their
    angles are taken to P + ANGLE_GUARD_BITS bits), an initial_override is
    rounded to the same integers, axis_next and solve_fourth round once per
    coordinate, and each coordinate is rounded once more at the end, to the
    working precision of the field's mpc values (numerics.raw_mpf).
    """
    if params.c >= 2 or params.c <= 0:
        raise UnsupportedExponentError(
            "the evolved map needs 0 < c < 2; the c = 2 pattern and its "
            "dual are built through the renormalized radius route")
    if n_max < 1:
        raise ValueError("need at least generation 1")
    bits = None if params.backend().is_double else fixed_bits(params.dps)
    z = evolve(params, n_max, bits, initial_override)
    if bits is not None:
        make_mpc, prec = mp.make_mpc, mp.libmp.dps_to_prec(params.dps)
        z = {s: make_mpc((raw_mpf(x, -bits, prec), raw_mpf(y, -bits, prec)))
             for s, (x, y) in z.items()}
    return ZField(params=params, values=z, generation=n_max)


def evolve(params: PatternParams, n_max: int, bits: Optional[int] = None,
           initial_override: Optional[dict] = None) -> Dict[MultiIndex, ComplexNumber]:
    """The fill of generate_z, unrounded: complex doubles without bits,
    else pairs of integers over 2**bits for any width bits, whatever the
    precision of params."""
    override = initial_override or {}
    if bits is None:
        bk = params.backend()
        c = bk.real(params.c)
        a2, a3 = params.exact_angle(1, bk), params.exact_angle(2, bk)
        z: Dict[MultiIndex, ComplexNumber] = {
            (0, 0, 0): 0j, (1, 0, 0): 1 + 0j, (0, 1, 0): bk.exp_i(params.c * (a2 + a3)),
            (0, 0, -1): bk.exp_i(params.c * a3)}
        targets = face_targets(params, bk)
    else:
        ang = guarded_angles(params, bits)
        with mp.workprec(bits + ANGLE_GUARD_BITS):
            cf = mp.mpf(params.c)
            z = {(0, 0, 0): (0, 0), (1, 0, 0): (1 << bits, 0),
                 (0, 1, 0): fixed_unit(cf * (ang[1] + ang[2]), bits),
                 (0, 0, -1): fixed_unit(cf * ang[2], bits)}
            targets = {t: fixed_unit(-2 * ang[t - 1], bits) for t in (1, 2, 3)}
        c = fixed_real(params.c, bits)
        override = {s: (fixed_real(v.real, bits), fixed_real(v.imag, bits))
                    for s, v in override.items()}
    z.update(override)
    for n in range(1, n_max):
        z[(n + 1, 0, 0)] = axis_next(n, z[(n - 1, 0, 0)], z[(n, 0, 0)], c, bits)
        z[(0, n + 1, 0)] = axis_next(n, z[(0, n - 1, 0)], z[(0, n, 0)], c, bits)
        z[(0, 0, -n - 1)] = axis_next(n, z[(0, 0, -n + 1)], z[(0, 0, -n)], c, bits)

    for site in q_sites(n_max):
        k, l, m = site
        if site in z or generation(site) < 2:
            continue
        # unknown as the top corner of a face of the first available
        # orientation
        if k >= 1 and l >= 1:
            z[site] = solve_fourth(z[(k - 1, l, m)], z[(k - 1, l - 1, m)],
                                   z[(k, l - 1, m)], targets[1], bits)
        elif l >= 1 and m <= -1:
            z[site] = solve_fourth(z[(k, l - 1, m)], z[(k, l - 1, m + 1)],
                                   z[(k, l, m + 1)], targets[2], bits)
        elif k >= 1 and m <= -1:
            z[site] = solve_fourth(z[(k, l, m + 1)], z[(k - 1, l, m + 1)],
                                   z[(k - 1, l, m)], targets[3], bits)
        else:
            raise IncompleteStencilError(site)
    return z


@memoised
def field_points(zf: ZField):
    """The field read by numerics.aligned_points: (pts, one), or None."""
    return aligned_points(zf.params.backend(), zf.values)


#: an estimate below another one times this factor proves its residual
#: the smaller (_ScreenedWorst)
SCREEN_MARGIN = 1 - 2.0 ** -40
#: the slack that moves a bound made of float estimates past its residual
SLACK = 2.0 ** -44


class _ScreenedWorst:
    """The worst of a sweep's residuals, rounding only those that could be it.

    The sweep gives each residual as an estimate est and holds it, with the
    parts that exact(*parts) rounds it from, unless the bar, the largest
    estimate held before, screens it: an estimate in (1e-300, inf) below
    the bar times SCREEN_MARGIN = 1 - 2**-40 proves its rounded residual
    below the other's.  result() rounds the held residuals that the final
    bar does not screen, which gives the worst of every residual rounded,
    bit for bit.  Any other estimate never screens: NaN, and 0 or inf,
    where the estimate left the float range.

    The bound.  On an extended field a sweep forms each numerator exactly,
    as an integer, and estimates the residual in floats.  Each modulus is
    math.hypot of two integers, both converted by a correctly rounded
    float() and the result within one ulp, so within 2**-51 of the true
    modulus.  An estimate is made of chains: each starts from a modulus,
    multiplies by factors >= 1 (MU_MAX, a unit of the read, a power of two
    converted exactly) and then divides by moduli and units, each >= 1 since
    the integers are nonzero.  So each value of a chain lies above its end
    or above 1, and a chain that ends above 1e-300 never left the normal
    range.  The laxzc estimate multiplies one chain by the largest of three
    and counts only when both factors end above 1e-300; a chain that ends
    below stands for a value below 1e-300 too.  With at most seven moduli
    and eight products and quotients (each within 2**-53), an estimate lies
    within 7 * 2**-51 + 8 * 2**-53 < 2**-47 of its residual, and the exact
    formula's rounded quotients under square roots within 2**-50.  Past the
    float range (_big_estimate) each modulus is taken from top_bits, 2**-990
    more, and the chains divide mantissas in [0.5, 1), the powers of two
    applied once, exactly, by ldexp: the same bound.

    Bounds.  The proof asks of est only not to lie 2**-47 below its
    residual, and of the bar not to lie 2**-47 above a held one: a sweep
    may hold an upper bound with a lower bound low= for the bar, and
    result() first refines those the bar does not screen, largest first,
    by refine(*parts) to an estimate and its parts.  In _face_pass, |q -
    w_t| is within delta_t = |w_t - r_t| of |q - r_t|, so that ub = MU_MAX
    (est + delta_t) shape (1 + SLACK) and low = MU_MAX max(est (1 - SLACK)
    - delta_t, delta_t - est (1 + SLACK)) shape (1 - SLACK), est and shape
    within 2**-47 and delta_t rounded outward, lie beyond 1 +- 2**-45 times
    the laxzc residual MU_MAX |q - w_t| S, past its rounding (2**-50); each
    counts only when its factors end above 1e-300 (an absolute error below
    2**-1070 moves it by less than 2**-70).
    """

    def __init__(self, exact, refine=None):
        self.exact, self.refine, self.bar, self.held = exact, refine, 0.0, []

    def screens(self, est: float) -> bool:
        """Whether est proves its residual below one held already."""
        return 1e-300 < est < self.bar * SCREEN_MARGIN

    def hold(self, est: float, *parts, low: Optional[float] = None) -> None:
        """Keep a residual its estimate or upper bound est does not screen."""
        self.held.append((est, parts))
        low = est if low is None else low
        if 1e-300 < low < math.inf:
            self.bar = max(self.bar, low)

    def result(self) -> float:
        """The worst residual, rounding the held ones no estimate screens."""
        if self.refine:  # the held upper bounds, from the largest down
            held, self.held = sorted(self.held, key=lambda h: h[0], reverse=True), []
            for ub, parts in held:
                if not self.screens(ub):
                    self.hold(*self.refine(*parts))
        return worst_of([self.exact(*parts) for est, parts in self.held
                         if not self.screens(est)])


def _float_units(bk: Backend, *ones):
    """The units ones of a read as floats (powers of two, so exact), for
    the estimates of _ScreenedWorst; None on a double read, whose sweeps
    round every residual, or when a unit overflows a float."""
    if bk.is_double:
        return None
    try:
        return [float(u) for u in ones]
    except OverflowError:
        return None


def _big_estimate(unit: int, num, *dens) -> float:
    """hypot(*num) / unit / prod(hypot(*d) for d in dens) for integer pairs
    past the float range and a power of two unit: the moduli of top_bits as
    frexp mantissas divided in floats, their powers of two summed apart."""
    x, y, k = top_bits(*num)
    m, e = math.frexp(math.hypot(x, y))
    k += e + 1 - unit.bit_length()
    for d in dens:
        x, y, s = top_bits(*d)
        md, e = math.frexp(math.hypot(x, y))
        m, k = m / md, k - s - e
    try:
        return math.ldexp(m, k)
    except OverflowError:
        return math.inf


def _face_defect(scale, nx, ny, bsq, csq) -> float:
    """|n| / (sqrt(scale) |b| |c|), one rounded quotient under a square root."""
    return root_quotient(nx * nx + ny * ny, scale * bsq * csq)


def _lax_gap(w_scale, one_sq, gx, gy, ax, ay, ex, ey, bsq, csq) -> float:
    """MU_MAX |g| / (sqrt(w_scale) |b| |c|) times the shape weight
    max(|c|/|e|, |b|/|a|, |e - a| / (|a| |e|)), each ratio one rounded
    quotient under a square root (max_zero_curvature_residual)."""
    asq, esq = ax * ax + ay * ay, ex * ex + ey * ey
    shape = max(quotient(csq, esq), quotient(bsq, asq),
                quotient(one_sq * ((ex - ax) ** 2 + (ey - ay) ** 2), asq * esq))
    return MU_MAX * root_quotient(gx * gx + gy * gy, w_scale * bsq * csq) * math.sqrt(shape)


def _lax_estimate(w, w_one, fw, t, aex, aey, px, py, ax, ay, ex, ey, bx, by, cx, cy,
                  shape, lb, lc):
    """The laxzc estimate of a face from g = w_one a e - w_t b c (top bits
    past the float range, and at lb = 0.0), with the parts _lax_gap rounds."""
    rx, ry = w[t]
    gx, gy = w_one * aex - (rx * px - ry * py), w_one * aey - (rx * py + ry * px)
    try:
        dw = MU_MAX * math.hypot(gx, gy) / fw / lb / lc
    except ArithmeticError:
        dw = MU_MAX * _big_estimate(w_one, (gx, gy), (bx, by), (cx, cy))
    return (dw * shape if min(dw, shape) > 1e-300 else math.nan,
            gx, gy, ax, ay, ex, ey, bx * bx + by * by, cx * cx + cy * cy)


@memoised
def _face_pass(zf: ZField, lax: bool):
    """Worst crossratio defect and, with lax, worst laxzc gap (None if a
    face has a zero edge) of one traversal of the faces; NaN if the field
    cannot be read.  With the edges a = zb - za, b = za - zd, c = zb - zc,
    e = zc - zd of a face, q = a e / (b c) and |q - r| = |a e - r b c| /
    (|b| |c|); each check has its own r over its own r_one, and forms
    r_one (a e - r b c) from the shared a e and b c, with no division.

    On an extended field only the crossratio numerator is exact at every
    face, the laxzc one only where its bounds from the crossratio estimate
    do not rule the face out; each check rounds only the faces that no
    estimate rules out (_ScreenedWorst), and its worst is the one every
    face rounded gives, bit for bit.  A double field rounds every face."""
    read = field_points(zf)
    if read is None:
        return math.nan, math.nan
    pts, one = read
    bk = zf.params.backend()
    with bk.context():  # both constants from one set of face targets
        targets = face_targets(zf.params, bk)
        r, r_one = aligned_points(bk, targets)
        w, w_one = {}, 1
        if lax:  # delta_i / delta_j for each face type (i, j) of FACE_SPAN
            d = _deltas(targets, bk)
            w, w_one = aligned_points(bk, {t: d[i] / d[j] for t, (i, j) in FACE_SPAN.items()})
    scale, w_scale, one_sq = r_one * r_one, w_one * w_one, one * one
    # delta_t = |w_t / w_one - r_t / r_one| rounded up (_ScreenedWorst)
    delta = {t: root_quotient((wx * r_one - r[t][0] * w_one) ** 2
                              + (wy * r_one - r[t][1] * w_one) ** 2, (w_one * r_one) ** 2)
             * (1 + 2 ** -50) for t, (wx, wy) in w.items()}
    cr = _ScreenedWorst(functools.partial(_face_defect, scale))
    units, hypot = _float_units(bk, r_one, w_one, one), math.hypot
    zc = _ScreenedWorst(functools.partial(_lax_gap, w_scale, one_sq),
                        functools.partial(_lax_estimate, w, w_one, units and units[1]))
    worst, gap, degenerate = 0.0, 0.0, False
    mu_up, mu_down = MU_MAX * (1 + SLACK), MU_MAX * (1 - SLACK)
    for t, _, ((xa, ya), (xb, yb), (xc, yc), (xd, yd)) in _faces(pts):
        ax, ay, bx, by = xb - xa, yb - ya, xa - xd, ya - yd
        cx, cy, ex, ey = xb - xc, yb - yc, xc - xd, yc - yd
        if not ((ax or ay) and (bx or by) and (cx or cy) and (ex or ey)):
            degenerate = True
            continue
        aex, aey = ax * ex - ay * ey, ax * ey + ay * ex
        px, py = bx * cx - by * cy, bx * cy + by * cx
        rx, ry = r[t]
        nx, ny = r_one * aex - (rx * px - ry * py), r_one * aey - (rx * py + ry * px)
        if not units:
            # a double read, or one past the float range, rounds every face
            # here, by _face_defect and _lax_gap written out: a call per
            # face would cost a double read about 5%
            bsq, csq = bx * bx + by * by, cx * cx + cy * cy
            worst = worse(worst, math.sqrt(quotient(nx * nx + ny * ny, scale * bsq * csq)))
            if lax:
                rx, ry = w[t]
                gx, gy = w_one * aex - (rx * px - ry * py), w_one * aey - (rx * py + ry * px)
                asq, esq = ax * ax + ay * ay, ex * ex + ey * ey
                shape = max(quotient(csq, esq), quotient(bsq, asq),
                            quotient(one_sq * ((ex - ax) ** 2 + (ey - ay) ** 2), asq * esq))
                d = MU_MAX * math.sqrt(quotient(gx * gx + gy * gy, w_scale * bsq * csq))
                gap = worse(gap, d * math.sqrt(shape))
            continue
        fr, _, fo = units
        try:
            lb, lc = hypot(bx, by), hypot(cx, cy)
            est = hypot(nx, ny) / fr / lb / lc
            if lax:  # the shape weight
                la, le = hypot(ax, ay), hypot(ex, ey)
                shape = max(lc / le, lb / la, fo * hypot(ex - ax, ey - ay) / la / le)
        except OverflowError:  # a modulus past the float range: from its top bits
            lb = lc = 0.0  # and so is the laxzc estimate (_lax_estimate)
            est = _big_estimate(r_one, (nx, ny), (bx, by), (cx, cy))
            if lax:
                shape = max(
                    _big_estimate(1, (cx, cy), (ex, ey)), _big_estimate(1, (bx, by), (ax, ay)),
                    _big_estimate(1, (one * (ex - ax), one * (ey - ay)), (ax, ay), (ex, ey)))
        if not cr.screens(est):
            cr.hold(est, nx, ny, bx * bx + by * by, cx * cx + cy * cy)
        if lax:  # bounds (_ScreenedWorst): only the faces zc refines form g
            hi = est + delta[t]
            ub = mu_up * hi * shape if hi > 1e-300 and shape > 1e-300 else math.nan
            if not zc.screens(ub):  # delta_t rounded down: times 1 - 2**-49
                dt = delta[t]
                lo = max(est * (1 - SLACK) - dt, dt * (1 - 2 ** -49) - est * (1 + SLACK))
                zc.hold(ub, t, aex, aey, px, py, ax, ay, ex, ey, bx, by, cx, cy, shape, lb, lc,
                        low=mu_down * lo * shape if lo > 1e-300 and shape > 1e-300 else 0.0)
    return worse(worst, cr.result()), None if degenerate else worse(gap, zc.result())


def max_face_residual(zf: ZField) -> float:
    """Worst |q - r| of _face_pass, r = exp(-2 i alpha) of the face type, one
    rounded quotient under a square root, on an extended field only where
    _ScreenedWorst does not rule the face out.  Faces with a zero
    edge (collapsed onto the point-circle at the c = 2 branch point) carry
    no cross-ratio and are skipped.  NaN when the field cannot be read."""
    return _face_pass(zf, isinstance(zf, FieldSnapshot) and zf.lax)[0]


def _axis_stencil(p: MultiIndex):
    """(n_j, up_j, down_j) of the constraint at p along each axis j."""
    k, l, m = p
    return ((k, (k + 1, l, m), (k - 1, l, m)), (l, (k, l + 1, m), (k, l - 1, m)),
            (m, (k, l, m + 1), (k, l, m - 1)))


def constraint_residual(zf: ZField, p: MultiIndex) -> ComplexNumber:
    """LHS - RHS of the non-autonomous constraint at p (all six neighbors
    must be stored)."""
    z0 = zf[p]
    res = zf.params.c * z0
    for j, up, dn in _axis_stencil(p):
        zu, zd = zf[up], zf[dn]
        den = zu - zd
        if den == 0:
            raise DegenerateQuadError(f"collinear stencil degenerate at {p}")
        res = res - 2 * j * (zu - z0) * (z0 - zd) / den
    return res


def interior_sites(zf: ZField) -> Iterator[MultiIndex]:
    for (k, l, m) in zf.values:
        if k >= 1 and l >= 1 and m <= -1 and generation((k, l, m)) <= zf.generation - 1:
            yield (k, l, m)


def max_constraint_residual(zf: ZField) -> float:
    """Worst |constraint_residual| over the interior sites, with its three
    divisions cleared: with d_j = zu_j - zd_j and P_j = (zu_j - z0)(z0 - zd_j)
    along each axis j (index n_j = k, l, m), it is |N| / (|d_1| |d_2| |d_3|)
    with N = c z0 d_1 d_2 d_3 - 2 sum_j n_j P_j prod_{i != j} d_i, N exact on
    an extended field (field_points) and the ratio one rounded quotient
    under a square root, on an extended field only where _ScreenedWorst
    does not rule the site out.  NaN when the field cannot be read; a
    stencil vertex the field does not store raises IncompleteStencilError,
    a vanishing d_j DegenerateQuadError.
    """
    read = field_points(zf)
    if read is None:
        return math.nan
    pts, one = read
    bk = zf.params.backend()
    kc, k_one = aligned_points(bk, {0: zf.params.c})
    cc, unit = kc[0][0], k_one * one
    scale = unit * unit
    screen = _ScreenedWorst(functools.partial(_site_defect, scale))
    units, hypot, worst = _float_units(bk, unit), math.hypot, 0.0
    for p in interior_sites(zf):
        k, l, m = p
        try:  # the ends u_j, w_j of the stencil along each axis
            (u1x, u1y), (w1x, w1y), (u2x, u2y), (w2x, w2y), (u3x, u3y), (w3x, w3y) = (
                pts[k + 1, l, m], pts[k - 1, l, m], pts[k, l + 1, m], pts[k, l - 1, m],
                pts[k, l, m + 1], pts[k, l, m - 1])
        except KeyError as exc:
            raise IncompleteStencilError(exc.args[0]) from None
        d1x, d1y, d2x, d2y = u1x - w1x, u1y - w1y, u2x - w2x, u2y - w2y
        d3x, d3y = u3x - w3x, u3y - w3y
        if not ((d1x or d1y) and (d2x or d2y) and (d3x or d3y)):
            raise DegenerateQuadError(f"collinear stencil degenerate at {p}")
        x0, y0 = pts[p]
        # q_j = 2 n_j P_j in the units of c, in the float order of a double read
        f, ax, ay, bx, by = 2 * k * k_one, u1x - x0, u1y - y0, x0 - w1x, y0 - w1y
        q1x, q1y = f * (ax * bx - ay * by), f * (ax * by + ay * bx)
        f, ax, ay, bx, by = 2 * l * k_one, u2x - x0, u2y - y0, x0 - w2x, y0 - w2y
        q2x, q2y = f * (ax * bx - ay * by), f * (ax * by + ay * bx)
        f, ax, ay, bx, by = 2 * m * k_one, u3x - x0, u3y - y0, x0 - w3x, y0 - w3y
        q3x, q3y = f * (ax * bx - ay * by), f * (ax * by + ay * bx)
        # N = (c z0 d1 - q1) d2 d3 - (q2 d3 + q3 d2) d1
        ax, ay = cc * x0, cc * y0
        ax, ay = ax * d1x - ay * d1y - q1x, ax * d1y + ay * d1x - q1y
        bx, by = d2x * d3x - d2y * d3y, d2x * d3y + d2y * d3x
        tx = q2x * d3x - q2y * d3y + (q3x * d2x - q3y * d2y)
        ty = q2x * d3y + q2y * d3x + (q3x * d2y + q3y * d2x)
        nx = ax * bx - ay * by - (tx * d1x - ty * d1y)
        ny = ax * by + ay * bx - (tx * d1y + ty * d1x)
        if not units:  # a double read, or one past the float range
            d = (d1x, d1y), (d2x, d2y), (d3x, d3y)
            worst = worse(worst, _site_defect(scale, nx, ny, d))
            continue
        try:
            est = hypot(nx, ny) / units[0] / hypot(d1x, d1y) / hypot(d2x, d2y) / hypot(d3x, d3y)
        except OverflowError:  # a modulus past the float range: from its top bits
            est = _big_estimate(unit, (nx, ny), (d1x, d1y), (d2x, d2y), (d3x, d3y))
        if not screen.screens(est):
            screen.hold(est, nx, ny, ((d1x, d1y), (d2x, d2y), (d3x, d3y)))
    return worse(worst, screen.result())


def _site_defect(scale, nx, ny, d) -> float:
    """|n| / (sqrt(scale) |d_1| |d_2| |d_3|), one rounded quotient under a
    square root."""
    return root_quotient(nx ** 2 + ny ** 2, scale * math.prod(dx * dx + dy * dy for dx, dy in d))


# ---------------------------------------------------------------------------
# transport matrices and the zero-curvature check
# ---------------------------------------------------------------------------

def lax_deltas(params: PatternParams) -> Dict[int, complex]:
    """Unit-modulus edge constants from the prescribed face values.

    The compatibility of two transport products around a face forces the
    ratio delta_j/delta_i to equal the inverse cross-ratio of that face, so
    the ratios are the inverse targets, with delta_1 = 1 frozen.
    """
    bk = params.backend()
    with bk.context():
        return _deltas(face_targets(params, bk), bk)


def _deltas(targets, bk: Backend) -> Dict[int, ComplexNumber]:
    """lax_deltas from the face targets, in the context of bk."""
    ratios = {t: 1 / r for t, r in targets.items()}
    d1 = bk.exp_i(0)
    return {1: d1, 2: d1 / ratios[1], 3: d1 * ratios[3]}


#: largest modulus of the spectral values the zero-curvature check covers
MU_MAX = 2.3


def max_zero_curvature_residual(zf: ZField) -> float:
    """Worst norm gap of the two transport products around a face, over
    spectral values of modulus up to MU_MAX.

    The transport matrix of the edge from z_out to z_in is
    [[1, d], [mu delta / d, 1]] with d = z_in - z_out.  Both products are
    affine in mu with equal mu^0 parts.  For the face at base spanning
    (+e_i, -e_j), with the edges a, b, c, e of _face_pass (a + b = c + e)
    and G = delta_i b c - delta_j a e, their entries differ by mu G / (b e),
    mu G (e - a) / (a b c e) and mu G / (a c).  As |delta_j| = 1, the gap is
    MU_MAX |a e - r b c| / (|b| |c|) max(|c|/|e|, |b|/|a|, |e - a| / (|a| |e|))
    with r = delta_i / delta_j, every modulus ratio one rounded quotient
    under a square root, on an extended field only where _face_pass does
    not rule the face out.  NaN when the field cannot be read; a zero edge
    raises DegenerateQuadError.
    """
    gap = _face_pass(zf, True)[1]
    if gap is None:
        raise DegenerateQuadError("degenerate edge in transport matrix")
    return gap
