"""Embedded patterns: reconstruction from radii, immersion reports, the
square-grid slice.

A center and one adjacent circle fix a kite; the angle under which the two
circles cross is the constant angle of the face between them.  Turning the
spoke direction wedge by wedge around each center (by q / conj(q), q = r_v +
r_w e^{ia}) lays the whole pattern out; closure of the turns around every
center is exactly the content of the radius equations and is verified
during the walk.  Immersion is certified through uniform orientation of the
elementary triangles plus a segment-crossing sweep over adjacent faces.

Two adjacent faces share a spoke u q.  When the four orientations of their
other corners against u -> q each exceed Shewchuk's stage-A orient2d error
bound (Adaptive precision floating-point arithmetic and fast robust
geometric predicates, 1997) and put the two faces on opposite sides, the
signs are exact and the faces cannot cross; only the other pairs, and every
pair with a non-finite coordinate, run the seven side-pair crossing tests.
"""
from __future__ import annotations

import cmath
import contextlib
import math
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from . import lattice
from .lattice import MultiIndex, SubIndex
from .numerics import Record, nearest_double
from .pattern_core import ZField, field_points
from .radius_system import RadiusField, extract_radii, is_pole


class ReconstructionError(ArithmeticError):
    """Wedge layout failed to close around a vertex."""


class ImmersionReport(Record):
    _fields = ("failures", "checked_triangles", "checked_quads")

    def __init__(self, failures: Optional[List[Tuple[MultiIndex, str]]] = None,
                 checked_triangles: int = 0, checked_quads: int = 0):
        self.failures = [] if failures is None else failures
        self.checked_triangles, self.checked_quads = checked_triangles, checked_quads

    @property
    def ok(self) -> bool:
        return not self.failures


def orientation(z1: complex, z2: complex, z3: complex) -> float:
    """Twice the signed area of the triangle."""
    return ((z2.real - z1.real) * (z3.imag - z1.imag)
            - (z2.imag - z1.imag) * (z3.real - z1.real))


# ---------------------------------------------------------------------------
# wedge layout
# ---------------------------------------------------------------------------

#: largest |product of the six wedge turns - 1| accepted around a center
CLOSURE_TOL = 1e-6

# counterclockwise spoke cycle around a center (lattice steps to its
# intersection points); wedge k lies between spokes k and k + 1
_SPOKES = ((1, 0, 0), (0, 0, -1), (0, 1, 0), (-1, 0, 0), (0, 0, 1), (0, -1, 0))
# (neighbor offset, angle index) of each wedge
_WEDGES = (((1, 0, -1), 3), ((0, 1, -1), 2), ((-1, 1, 0), 1),
           ((-1, 0, 1), 3), ((0, -1, 1), 2), ((1, -1, 0), 1))
# the face between a center and its neighbor spans +e_i and -e_j, so the
# center's +e_i spoke is the neighbor's +e_j spoke: per wedge the offset,
# the angle's position in alphas and those two spoke indices
_WALK = tuple((off, a - 1, _SPOKES.index(tuple(int(d == 1) for d in off)),
               _SPOKES.index(tuple(int(d == -1) for d in off)))
              for off, a in _WEDGES)


def reconstruct(rf: RadiusField) -> ZField:
    """Lay the circles out in the plane and return the vertex map.

    A center of radius r_c and a neighbor of radius r_n crossing at angle a
    form a kite: with q = r_c + r_n e^{ia} and u the spoke direction that
    starts their wedge, the neighbor's center is z_c + u q and the next
    spoke is u q / conj(q) (u e^{2ia} past a pole).  A placed neighbor's
    reference spoke is the unit vector to the point it shares with the
    center that placed it: one abs per neighbor, no angle anywhere.

    Around a complete ring the turns q / conj(q) = e^{2i arg q} must
    multiply to 1 within CLOSURE_TOL, which is the radius equations' angle
    sum of 2 pi: each arg q lies in [0, a], so the six turns sum to at most
    4 pi (and to 0 or 4 pi only if the center or all six neighbors are
    point circles, or all six are poles), and a product of 1 means 2 pi.

    The origin circle sits at 0 with its first k-spoke along the positive
    real axis (a pole there moves the anchor to the next boundary circle).
    Each intersection point is placed once; the worst mismatch of its
    re-derivations and the worst closure defect go into the metadata.  Each
    radius is read as a float once (numerics.nearest_double): the layout is
    a double one.
    """
    radii = {site: nearest_double(r) for site, r in rf.values.items()}
    pole = {s for s, r in radii.items() if r == math.inf and is_pole(rf.values[s])}
    rot = [cmath.exp(1j * a) for a in rf.params.alphas]
    anchor = (0, 0, 0)
    if anchor in pole or anchor not in radii:
        anchor = (1, 0, -1)
    if anchor not in radii:
        raise ReconstructionError("no anchor circle available")
    values: Dict[MultiIndex, complex] = {}
    center_pos: Dict[SubIndex, complex] = {anchor: 0j}
    ref_spoke: Dict[SubIndex, Tuple[int, complex]] = {anchor: (0, 1 + 0j)}
    worst_mismatch = worst_closure = 0.0
    order = [anchor]
    for site in order:  # grows breadth first as neighbors are placed
        r_c = radii[site]
        z_c = center_pos[site]
        vertex = lattice.sub_to_vertex(site)
        values[vertex] = z_c
        qs, turns = [], []
        for off, a, _, _ in _WALK:
            nb = (site[0] + off[0], site[1] + off[1], site[2] + off[2])
            q = None
            if nb in pole:
                turn = rot[a] * rot[a]
            elif nb in radii:
                q = r_c + radii[nb] * rot[a]
                turn = q / q.conjugate()
            else:
                turn = None
            qs.append(q)
            turns.append(turn)
        # spoke directions reachable from the reference through known
        # wedges: forward over wedge k to spoke k + 1, back over it to k
        i0, u0 = ref_spoke[site]
        spokes = {i0: u0}
        for sign in (1, -1):
            u, k = u0, i0
            for _ in range(5):
                turn = turns[k if sign > 0 else (k - 1) % 6]
                if turn is None:
                    break
                u *= turn if sign > 0 else turn.conjugate()
                k = (k + sign) % 6
                spokes.setdefault(k, u)
        if None not in turns:
            defect = abs(math.prod(turns) - 1)
            worst_closure = max(worst_closure, defect)
            if defect > CLOSURE_TOL:
                raise ReconstructionError(
                    f"wedge turns around {site} close up to {defect:.3e}")
        # place intersection points
        for k, u in spokes.items():
            step = _SPOKES[k]
            odd = (vertex[0] + step[0], vertex[1] + step[1], vertex[2] + step[2])
            if not (odd[0] >= 0 and odd[1] >= 0 and odd[2] <= 0):
                continue  # outside the octant Q
            z_p = z_c + r_c * u
            if odd in values:
                worst_mismatch = max(worst_mismatch, abs(values[odd] - z_p))
            else:
                values[odd] = z_p
        # place adjacent centers
        for idx, ((off, _, shared, back), q) in enumerate(zip(_WALK, qs)):
            nb = (site[0] + off[0], site[1] + off[1], site[2] + off[2])
            if q is None or nb in center_pos or idx not in spokes:
                continue
            z_n = center_pos[nb] = z_c + spokes[idx] * q
            step = _SPOKES[shared]
            d = values.get((vertex[0] + step[0], vertex[1] + step[1],
                            vertex[2] + step[2]))
            if d is None:
                raise ReconstructionError(f"missing shared spoke for {nb}")
            d -= z_n
            ref_spoke[nb] = (back, d / abs(d))
            order.append(nb)

    zf = ZField(params=rf.params, values=values, generation=rf.generation)
    zf.meta["placement_mismatch"] = worst_mismatch
    zf.meta["wedge_closure"] = worst_closure
    return zf


# ---------------------------------------------------------------------------
# immersion
# ---------------------------------------------------------------------------

#: relative guard of the triangle test: collapsed edges and clearly negative
#: orientations are measured against the longest edge
EPS_SCALE = 1e-12

# the spokes S_j (0-5) of a center u and its rims (6-11): the far corner
# u + S_j + S_j+1 of kite j is the neighbor across wedge j.  Per spoke j,
# the corners (p, c, q, c', p') of the kites (u, p, c, q), (u, q, c', p')
# that share it
_RING = _SPOKES + tuple(off for off, _ in _WEDGES)
_KITE_PAIRS = tuple(itemgetter((j - 1) % 6, 6 + (j - 1) % 6, j, 6 + j, (j + 1) % 6)
                    for j in range(6))
#: Shewchuk's stage-A error bound of orient2d, relative to |detleft| +
#: |detright|: a computed orientation larger than this has the exact sign
CCW_BOUND = (3 + 16 * 2.0 ** -53) * 2.0 ** -53
# absolute slack of the bound for a product that underflows
_CCW_TINY = 2.0 ** -960
# side pairs (i, j) of the hexagon (u, p, c, q, c', p') of two kites that
# share the spoke u q, side i running from corner i to i + 1: each side of
# the first kite but u q with each side of the second that it does not touch
_HEX_PAIRS = ((0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5))


def _flipped(a: complex, b: complex, c: complex) -> bool:
    """A triangle fails when it is clearly negatively oriented or has a
    collapsed edge.  Triangles whose edges all fall below the guard (the
    branch point of the c = 2 pattern) pass; a straight angle (zero area
    with three distinct corners) passes too."""
    edges = (abs(b - a), abs(c - a), abs(c - b))
    edge = max(edges)
    if edge <= EPS_SCALE:
        return False
    return (min(edges) <= EPS_SCALE * edge
            or orientation(a, b, c) <= -EPS_SCALE * edge * edge)


def _double_points(zf: ZField) -> Dict[MultiIndex, complex]:
    """complex(z) of every vertex: x / one of the field_points read, rounded
    once to nearest as mpmath rounds a normal double, where one <= 2**1022
    leaves no subnormal (mpmath rounds those twice); else complex(z)."""
    pts, one = field_points(zf) or (None, None)
    with contextlib.suppress(OverflowError):
        if pts is not None and one <= 2 ** 1022:
            return {site: complex(x / one, y / one) for site, (x, y) in pts.items()}
    return {site: complex(z) for site, z in zf.values.items()}


def immersion_check(zf: ZField) -> ImmersionReport:
    """Uniform positive orientation of the three elementary triangles at
    every stored site, plus pairwise interior-disjointness of adjacent
    pattern faces; see _flipped for the triangle test.  Both sweeps run in
    double on one copy of the field, and a vertex that is not finite there
    is one failure more (non-finite-vertex, as in sg_immersion_check).  A
    pair of adjacent faces that the line of their shared spoke separates
    (_spoke_separates) passes; every other pair is tested side by side
    (_kites_cross)."""
    report = ImmersionReport()
    pts = _double_points(zf)
    for (k, l, m), z0 in pts.items():
        if not cmath.isfinite(z0):
            report.failures.append(((k, l, m), "non-finite-vertex"))
        zk = pts.get((k + 1, l, m))
        zl = pts.get((k, l + 1, m))
        zm = pts.get((k, l, m - 1))
        # the k-l fan spans two face corners; it reads as a face orientation
        # only where the spoke ring is complete (+e3 still inside the
        # domain).  At the branch-point corner it measures the full image
        # sector, which legitimately exceeds pi for large exponents.
        triangles = [((zk, zm), "k-m"), ((zm, zl), "m-l")]
        if m <= -1:
            triangles.append(((zk, zl), "k-l"))
        for (b, c_), name in triangles:
            if b is None or c_ is None:
                continue
            report.checked_triangles += 1
            if _flipped(z0, b, c_):
                report.failures.append(((k, l, m), f"orientation-flip:{name}"))
    # adjacent-face overlap sweep around each center u: kite j of its spoke
    # ring is (u, u + S_j, u + S_j + S_j+1, u + S_j+1), and kites j - 1 and
    # j share spoke j.  Every face edge has one center end and lies in at
    # most two faces, so each pair of faces sharing an edge is met once.
    get = pts.get
    for (k, l, m), zu in pts.items():
        if k + l + m:
            continue
        ring = [get((k + a, l + b, m + c)) for a, b, c in _RING]
        for corners in _KITE_PAIRS:
            h = corners(ring)
            if None in h:
                continue
            report.checked_quads += 1
            if not _spoke_separates(zu, *h) and _kites_cross((zu, *h)):
                report.failures.append(((k, l, m), "overlapping-quads"))
    # radius positivity (a zero radius, the branch point of z^2, is allowed)
    for sub, r in extract_radii(zf).items():
        if math.isnan(r) or r < 0:
            report.failures.append((lattice.sub_to_vertex(sub), "nonpositive-radius"))
    return report


def _spoke_separates(u: complex, p: complex, c: complex, q: complex,
                     c2: complex, p2: complex) -> bool:
    """Whether the line of the shared spoke u q certainly separates the
    kites (u, p, c, q) and (u, q, c2, p2): p and c strictly on one side of
    it, c2 and p2 strictly on the other, each of the four orientations
    against u -> q certified by CCW_BOUND (plus _CCW_TINY for underflow).
    Then every side but u q lies in one open half plane but for its end on
    the line, so no side pair crosses properly in exact arithmetic.  A
    non-finite coordinate is never certified: NaN and inf fail the bound."""
    ux, uy = u.real, u.imag
    wx, wy = q.real - ux, q.imag - uy
    l1, r1 = wx * (p.imag - uy), wy * (p.real - ux)
    l2, r2 = wx * (c.imag - uy), wy * (c.real - ux)
    l3, r3 = wx * (c2.imag - uy), wy * (c2.real - ux)
    l4, r4 = wx * (p2.imag - uy), wy * (p2.real - ux)
    d1, d2, d3, d4 = l1 - r1, l2 - r2, l3 - r3, l4 - r4
    return (abs(d1) > CCW_BOUND * (abs(l1) + abs(r1)) + _CCW_TINY
            and abs(d2) > CCW_BOUND * (abs(l2) + abs(r2)) + _CCW_TINY
            and abs(d3) > CCW_BOUND * (abs(l3) + abs(r3)) + _CCW_TINY
            and abs(d4) > CCW_BOUND * (abs(l4) + abs(r4)) + _CCW_TINY
            and (d1 > 0) == (d2 > 0) != (d3 > 0) == (d4 > 0))


def _kites_cross(h) -> bool:
    """Whether the kites (u, p, c, q) and (u, q, c', p') of the hexagon h
    overlap: a side pair of _HEX_PAIRS crosses properly, each side having
    both ends strictly on opposite sides of the other's line.  Sides that
    share a corner are not paired: one of their orientations is exactly 0
    (or NaN)."""
    for a, b in _HEX_PAIRS:
        (px, py), (qx, qy) = (h[a].real, h[a].imag), (h[a + 1].real, h[a + 1].imag)
        (rx, ry), (sx, sy) = (h[b].real, h[b].imag), (h[b - 5].real, h[b - 5].imag)
        ux, uy, vx, vy = qx - px, qy - py, sx - rx, sy - ry
        if ((ux * (ry - py) - uy * (rx - px)) * (ux * (sy - py) - uy * (sx - px)) < 0
                and (vx * (py - ry) - vy * (px - rx)) * (vx * (qy - ry) - vy * (qx - rx)) < 0):
            return True
    return False


# ---------------------------------------------------------------------------
# square-grid slice
# ---------------------------------------------------------------------------

def sg_slice(zf: ZField) -> ZField:
    """Restrict the field to the l = 0 plane, at its own precision: a
    square-grid pattern whose circles cross at the third angle and its
    supplement."""
    return ZField(params=zf.params, generation=zf.generation,
                  values={s: z for s, z in zf.values.items() if s[1] == 0})


def sg_immersion_check(sg: ZField) -> ImmersionReport:
    """Orientation sweep of consecutive-neighbor triangles in the l = 0
    plane, with the triangle test of immersion_check; a vertex that is not
    finite in double is one failure more (the triangle test reads NaN as
    not flipped)."""
    report = ImmersionReport()
    cycle = ((1, 0), (0, -1), (-1, 0), (0, 1))   # counterclockwise images
    pts = _double_points(sg)
    for (k, l, m), z in pts.items():
        if not cmath.isfinite(z):
            report.failures.append(((k, l, m), "non-finite-vertex"))
        for idx in range(4):
            d1, d2 = cycle[idx], cycle[(idx + 1) % 4]
            p1 = pts.get((k + d1[0], l, m + d1[1]))
            p2 = pts.get((k + d2[0], l, m + d2[1]))
            if p1 is None or p2 is None:
                continue
            report.checked_triangles += 1
            if _flipped(z, p1, p2):
                report.failures.append(((k, l, m), "orientation-flip:sg"))
    return report

