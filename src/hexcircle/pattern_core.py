"""Cross-ratio route: evolve the discrete map z on the octant Q.

The map is pinned by z(0,0,0)=0 and the three unit-modulus initial values on
the axes; the non-autonomous constraint evolves the axes and the three
cross-ratio equations (one per face orientation, with prescribed values
exp(-2i*alpha_i)) fill the rest.  Verification operators check the face
cross-ratios, the constraint residual and the zero-curvature identity of the
2x2 transport matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, Mapping, Optional, Tuple

from .lattice import MultiIndex, generation, q_sites
from .numerics import Backend, ComplexNumber, DOUBLE, snapshot, worst_of

ANGLE_SUM_TOL = 1e-12


class DegenerateQuadError(ArithmeticError):
    """Cross-ratio or its inversion hit a vanishing denominator."""


class AxisDegeneracyError(ArithmeticError):
    """Axis evolution hit a vanishing denominator."""


class IncompleteStencilError(KeyError):
    """A verification stencil reaches outside the stored field."""


class UnsupportedExponentError(ValueError):
    """The cross-ratio route needs 0 < c < 2; c = 2 uses the radius route."""


@dataclass(frozen=True)
class PatternParams:
    """Intersection angles, exponent and working precision of one pattern."""

    alphas: Tuple[float, float, float]
    c: float
    precision: str = DOUBLE
    dps: int = 40
    alpha_pi_fracs: Optional[Tuple[Fraction, Fraction, Fraction]] = None

    def __post_init__(self):
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

    def backend(self) -> Backend:
        return Backend(self.precision, self.dps)

    def exact_angle(self, i: int, bk: Optional[Backend] = None):
        bk = bk or self.backend()
        frac = self.alpha_pi_fracs[i] if self.alpha_pi_fracs else None
        return bk.angle(self.alphas[i], frac)


def isotropic_params(c: float, precision: str = DOUBLE, dps: int = 40) -> PatternParams:
    third = Fraction(1, 3)
    return PatternParams(alphas=(math.pi / 3,) * 3, c=c, precision=precision,
                         dps=dps, alpha_pi_fracs=(third, third, third))


@dataclass
class ZField:
    """Discrete map on Q up to a generation bound."""

    params: PatternParams
    values: Dict[MultiIndex, ComplexNumber]
    generation: int
    meta: dict = field(default_factory=dict)

    def __contains__(self, site: MultiIndex) -> bool:
        return site in self.values

    def __getitem__(self, site: MultiIndex) -> ComplexNumber:
        try:
            return self.values[site]
        except KeyError:
            raise IncompleteStencilError(site) from None


def cross_ratio(z1, z2, z3, z4) -> ComplexNumber:
    den = (z2 - z3) * (z4 - z1)
    if den == 0:
        raise DegenerateQuadError("coincident points in cross-ratio")
    return (z1 - z2) * (z3 - z4) / den


def solve_fourth(z1, z2, z3, q_target) -> ComplexNumber:
    """Fourth vertex with cross_ratio(z1, z2, z3, result) == q_target."""
    if q_target == 0:
        raise DegenerateQuadError("cross-ratio target must be nonzero")
    a = z1 - z2
    b = z2 - z3
    den = a + q_target * b
    if den == 0:
        raise DegenerateQuadError("no finite fourth vertex for this target")
    return (a * z3 + q_target * b * z1) / den


def axis_next(n: int, z_prev, z_cur, c: float) -> ComplexNumber:
    """Next axis value from the constraint, n = index of z_cur (distance
    from the origin along the axis)."""
    d = z_cur - z_prev
    den = c * z_cur - 2 * n * d
    if den == 0:
        raise AxisDegeneracyError(f"axis step degenerate at n={n}")
    return z_cur * (c * z_prev - 2 * n * d) / den


# face orientations: (i, j) means the face {v, v+e_i, v+e_i-e_j, v-e_j};
# the plane span (in either order) determines the face type and so the
# prescribed angle.  FACE_SPAN is the orientation iter_faces enumerates.
_E = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}
FACE_SPAN = {1: (2, 1), 2: (3, 2), 3: (1, 3)}


def _shift(p: MultiIndex, d: Tuple[int, int, int], s: int = 1) -> MultiIndex:
    return (p[0] + s * d[0], p[1] + s * d[1], p[2] + s * d[2])


def face_sites(base: MultiIndex, i: int, j: int) -> Tuple[MultiIndex, ...]:
    """Corners (f1, f2, f3, f4) of the face at base spanning +e_i, -e_j."""
    f2 = _shift(base, _E[i])
    f3 = _shift(f2, _E[j], -1)
    f4 = _shift(base, _E[j], -1)
    return (base, f2, f3, f4)


def iter_faces(zf: ZField) -> Iterator[Tuple[int, Tuple[MultiIndex, ...]]]:
    """Every stored elementary face, once, as (type_index, corners).

    Enumerates the orientations of FACE_SPAN; the reversed spans describe
    the same faces.
    """
    for v in zf.values:
        for t, (i, j) in FACE_SPAN.items():
            sites = face_sites(v, i, j)
            if all(s in zf.values for s in sites):
                yield t, sites


def iter_slab_faces(stored: Mapping[MultiIndex, object]) -> Iterator[Tuple[MultiIndex, ...]]:
    """Corners of the faces of the hexagonal pattern, in the order of stored:
    the faces spanning (1,2), (1,3), (2,3) at every vertex with k+l+m = 0."""
    for v in stored:
        if v[0] + v[1] + v[2] != 0:
            continue
        for (i, j) in ((1, 2), (1, 3), (2, 3)):
            sites = face_sites(v, i, j)
            if all(s in stored for s in sites):
                yield sites


def face_targets(params: PatternParams, bk: Optional[Backend] = None):
    bk = bk or params.backend()
    return {t: bk.exp_i(-2 * params.exact_angle(t - 1, bk)) for t in (1, 2, 3)}


def generate_z(params: PatternParams, n_max: int,
               initial_override: Optional[dict] = None) -> ZField:
    """Fill Q up to generation n_max from the closed-form initial data.

    Axes come from the constraint, everything else from the cross-ratio
    equations, shell by shell.  A vertex reachable from several faces is
    solved once, from the first available orientation; the cross-ratio
    system is consistent, so the other orientations agree with it, and
    max_face_residual checks every one of those faces.
    """
    if params.c >= 2 or params.c <= 0:
        raise UnsupportedExponentError(
            "the evolved map needs 0 < c < 2; the c = 2 pattern and its "
            "dual are built through the renormalized radius route")
    if n_max < 1:
        raise ValueError("need at least generation 1")
    bk = params.backend()
    with bk.context():
        c = bk.real(params.c)
        one = bk.real(1.0)
        a2 = params.exact_angle(1, bk)
        a3 = params.exact_angle(2, bk)
        z: Dict[MultiIndex, ComplexNumber] = {
            (0, 0, 0): 0 * bk.exp_i(0),
            (1, 0, 0): one * bk.exp_i(0),
            (0, 1, 0): bk.exp_i(params.c * (a2 + a3)),
            (0, 0, -1): bk.exp_i(params.c * a3),
        }
        if initial_override:
            z.update(initial_override)
        for n in range(1, n_max):
            z[(n + 1, 0, 0)] = axis_next(n, z[(n - 1, 0, 0)], z[(n, 0, 0)], c)
            z[(0, n + 1, 0)] = axis_next(n, z[(0, n - 1, 0)], z[(0, n, 0)], c)
            z[(0, 0, -n - 1)] = axis_next(n, z[(0, 0, -n + 1)], z[(0, 0, -n)], c)

        targets = face_targets(params, bk)
        for site in q_sites(n_max):
            k, l, m = site
            if site in z or generation(site) < 2:
                continue
            # unknown as the top corner of a face of the first available
            # orientation
            if k >= 1 and l >= 1:
                z[site] = solve_fourth(z[(k - 1, l, m)], z[(k - 1, l - 1, m)],
                                       z[(k, l - 1, m)], targets[1])
            elif l >= 1 and m <= -1:
                z[site] = solve_fourth(z[(k, l - 1, m)], z[(k, l - 1, m + 1)],
                                       z[(k, l, m + 1)], targets[2])
            elif k >= 1 and m <= -1:
                z[site] = solve_fourth(z[(k, l, m + 1)], z[(k - 1, l, m + 1)],
                                       z[(k - 1, l, m)], targets[3])
            else:
                raise IncompleteStencilError(site)
    zf = ZField(params=params, values=z, generation=n_max)
    zf.meta["precision"] = params.precision
    return zf


def max_face_residual(zf: ZField) -> float:
    """Worst |q - exp(-2 i alpha)| over stored faces; faces collapsed onto a
    point-circle (the c = 2 branch point) carry no cross-ratio and are
    skipped.  An extended field is read exactly (numerics.snapshot), so the
    defects carry no rounding before their final conversion to double."""
    bk = zf.params.backend()
    with bk.context():
        values = snapshot(bk, zf.values)
        if values is None:
            return math.nan
        targets = snapshot(bk, face_targets(zf.params, bk))
        residuals = []
        for t, sites in iter_faces(zf):
            face = face_defect([values[s] for s in sites], targets[t])
            if face is not None:
                residuals.append(face[0])
    return worst_of(residuals)


def face_defect(corners, r):
    """Cross-ratio defect |q - r| of one face, and the face's edges.

    With the edges a = zb - za, b = za - zd, c = zb - zc, e = zc - zd of the
    corners (za, zb, zc, zd), the face cross-ratio is q = a e / (b c), so
    |q - r| = |a e - r b c| / (|b| |c|).  The numerator carries the
    cancellation the checks measure and is formed at the working precision
    of the corners, without a division; the moduli only scale it and are
    taken in double.  Returns (defect, (a, b, c, e)) with the edges at
    working precision, or None when an edge is zero.  Extended corners must
    be passed inside the caller's backend context, or as exact snapshot
    values (numerics.ExactComplex), on which nothing rounds.
    """
    za, zb, zc, zd = corners
    a, b, c, e = zb - za, za - zd, zb - zc, zc - zd
    if not (a and b and c and e):
        return None
    n = a * e - r * (b * c)
    return abs(complex(n)) / (abs(complex(b)) * abs(complex(c))), (a, b, c, e)


def constraint_residual(zf: ZField, p: MultiIndex) -> ComplexNumber:
    """LHS - RHS of the non-autonomous constraint at p (all six neighbors
    must be stored)."""
    k, l, m = p
    z0 = zf[p]
    res = zf.params.c * z0
    for j, up, dn in ((k, (k + 1, l, m), (k - 1, l, m)),
                      (l, (k, l + 1, m), (k, l - 1, m)),
                      (m, (k, l, m + 1), (k, l, m - 1))):
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


def constraint_defect(values: Mapping[MultiIndex, ComplexNumber], c,
                      p: MultiIndex) -> float:
    """|constraint_residual| at p with its three divisions cleared.

    With d_j = zu_j - zd_j and P_j = (zu_j - z0)(z0 - zd_j) for the stencil
    of each axis j (index n_j = k, l, m), the residual is N / (d_1 d_2 d_3)
    with N = c z0 d_1 d_2 d_3 - 2 sum_j n_j P_j prod_{i != j} d_i.  N is
    formed at the precision of the values (exactly on a snapshot) and the
    moduli in double.  Extended values must be passed inside the caller's
    backend context.
    """
    k, l, m = p
    try:
        z0 = values[p]
        u1, w1 = values[(k + 1, l, m)], values[(k - 1, l, m)]
        u2, w2 = values[(k, l + 1, m)], values[(k, l - 1, m)]
        u3, w3 = values[(k, l, m + 1)], values[(k, l, m - 1)]
    except KeyError as exc:
        raise IncompleteStencilError(exc.args[0]) from None
    d1, d2, d3 = u1 - w1, u2 - w2, u3 - w3
    if not (d1 and d2 and d3):
        raise DegenerateQuadError(f"collinear stencil degenerate at {p}")
    num = ((c * z0 * d1 - (u1 - z0) * (z0 - w1) * (2 * k)) * (d2 * d3)
           - ((u2 - z0) * (z0 - w2) * (2 * l) * d3
              + (u3 - z0) * (z0 - w3) * (2 * m) * d2) * d1)
    return abs(complex(num)) / (abs(complex(d1)) * abs(complex(d2)) * abs(complex(d3)))


def max_constraint_residual(zf: ZField) -> float:
    """Worst constraint_defect over the interior sites."""
    bk = zf.params.backend()
    with bk.context():
        values = snapshot(bk, zf.values)
        if values is None:
            return math.nan
        c = snapshot(bk, {"c": zf.params.c})["c"]
        return worst_of(constraint_defect(values, c, p) for p in interior_sites(zf))


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
        ratios = {t: 1 / r for t, r in face_targets(params, bk).items()}
        d1 = bk.exp_i(0)
        return {1: d1, 2: d1 / ratios[1], 3: d1 * ratios[3]}


def lax_matrix(delta, z_out, z_in, mu):
    """Edge transport matrix evaluated at the spectral value mu.

    Unit lower/upper triangular with determinant 1 at mu = 0.
    """
    d = z_in - z_out
    if d == 0:
        raise DegenerateQuadError("degenerate edge in transport matrix")
    return ((1, d), (mu * delta / d, 1))


DEFAULT_MU_SAMPLES = (0.731, -1.2 + 0.4j, 2.3j)


def _lax_gap(corners, r, mu_max: float) -> float:
    """Norm gap of the two transport products around one face, maximized
    over spectral values of modulus up to mu_max, with r = delta_i / delta_j
    for the face at base spanning (+e_i, -e_j); the caller holds the backend
    context.

    Both products of lax_matrix factors are affine in mu with equal mu^0
    parts.  With the edges a = zb - za, b = za - zd, c = zb - zc,
    e = zc - zd (so a + b = c + e) and G = delta_i b c - delta_j a e, their
    entries differ by mu G / (b e), mu G (e - a) / (a b c e) and
    mu G / (a c), which gives the gap in closed form.  Since |delta_j| = 1,
    |G| / (|b| |c|) is the face_defect of the face against r.
    """
    face = face_defect(corners, r)
    if face is None:
        raise DegenerateQuadError("degenerate edge in transport matrix")
    defect, edges = face
    a, b, c, e = (complex(x) for x in edges)
    la, lc, le = abs(a), abs(c), abs(e)
    return mu_max * defect * max(la * lc, abs(b) * le, abs(e - a)) / (la * le)


def max_zero_curvature_residual(zf: ZField,
                                mu_samples=DEFAULT_MU_SAMPLES) -> float:
    mu_max = max((abs(complex(mu)) for mu in mu_samples), default=0.0)
    bk = zf.params.backend()
    with bk.context():
        values = snapshot(bk, zf.values)
        if values is None:
            return math.nan
        deltas = lax_deltas(zf.params)
        ratios = snapshot(bk, {t: deltas[i] / deltas[j]
                               for t, (i, j) in FACE_SPAN.items()})
        return worst_of(_lax_gap([values[s] for s in sites], ratios[t], mu_max)
                        for t, sites in iter_faces(zf))
