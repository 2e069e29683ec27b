"""Embedded patterns: kites, reconstruction from radii, immersion reports.

A center and one adjacent circle fix a kite; the angle under which the two
circles cross is the constant angle of the face between them.  Walking the
six wedges around each center (half-angle nu = atan2(r_w sin a, r_v +
r_w cos a)) lays the whole pattern out; closure of the wedge angles around
every center is exactly the content of the radius equations and is verified
during the walk.  Immersion is certified through uniform orientation of the
elementary triangles plus a segment-crossing sweep over adjacent faces.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import lattice
from .lattice import MultiIndex, SubIndex
from .pattern_core import (PatternParams, ZField, axis_distances, cross_ratio,
                           face_sites, iter_slab_faces)
from .radius_system import RadiusField, extract_radii

POLE = math.inf


class NotAKiteError(ValueError):
    """The quadrilateral fits none of the four kite cases."""


class ReconstructionError(ArithmeticError):
    """Wedge layout failed to close around a vertex."""


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float
    site: SubIndex


@dataclass
class CirclePattern:
    circles: List[Circle]
    intersections: Dict[MultiIndex, complex]
    adjacency: List[Tuple[SubIndex, SubIndex, int]]   # (site, site, angle index)
    params: PatternParams


@dataclass
class ImmersionReport:
    failures: List[Tuple[MultiIndex, str]] = field(default_factory=list)
    checked_triangles: int = 0
    checked_quads: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def orientation(z1: complex, z2: complex, z3: complex) -> float:
    """Twice the signed area of the triangle."""
    return ((z2.real - z1.real) * (z3.imag - z1.imag)
            - (z2.imag - z1.imag) * (z3.real - z1.real))


def _angle_between(za: complex, zb: complex) -> float:
    """Unsigned angle between two directions, in [0, pi]."""
    return abs(cmath.phase(zb / za))


def kite_classify(z1: complex, z2: complex, z3: complex, z4: complex,
                  alpha: float, tol: float = 1e-9) -> int:
    """Which of the four kite cases the face realizes (1..4).

    Precondition: the cross-ratio of (z1..z4) is exp(-2 i alpha).  Each case
    asserts its side equalities; inconsistent input raises NotAKiteError.
    """
    q = cross_ratio(z1, z2, z3, z4)
    target = cmath.exp(-2j * alpha)
    scale = max(abs(z1 - z2), abs(z2 - z3), abs(z3 - z4), abs(z4 - z1))
    if abs(q - target) > 1e-6 * max(1.0, 1.0 / max(scale, 1e-30)) + 1e-6:
        raise NotAKiteError("cross-ratio does not match the prescribed angle")
    d12, d14 = abs(z1 - z2), abs(z1 - z4)
    d32, d34 = abs(z3 - z2), abs(z3 - z4)
    orient124 = orientation(z1, z2, z4)
    apex_tol = tol * max(scale, 1e-30)
    if abs(d12 - d14) <= apex_tol:
        case = 1 if orient124 >= 0 else 2
        if abs(d32 - d34) > 10 * apex_tol:
            raise NotAKiteError("opposite sides fail the kite equality")
        # angle between the segments [z1,z2] and [z2,z3] at their shared
        # endpoint: directions away from z2
        ang = _angle_between(z1 - z2, z3 - z2)
        want = math.pi - alpha if case == 1 else alpha
        if abs(ang - want) > 1e-6:
            raise NotAKiteError("hinge angle does not match the case")
        return case
    ang14 = _angle_between(z2 - z1, z4 - z1)
    if abs(ang14 - alpha) <= 1e-6 and orient124 >= 0:
        case = 3
    elif abs(ang14 - (math.pi - alpha)) <= 1e-6 and orient124 < 0:
        case = 4
    else:
        raise NotAKiteError("no kite case matches")
    if abs(d32 - d12) > 10 * apex_tol or abs(d34 - d14) > 10 * apex_tol:
        raise NotAKiteError("side equalities fail for the angle cases")
    return case


# ---------------------------------------------------------------------------
# wedge layout
# ---------------------------------------------------------------------------

# counterclockwise spoke cycle around a center and the face (neighbor offset,
# angle index) found after each spoke
_SPOKES = ("+1", "-3", "+2", "-1", "+3", "-2")
_SPOKE_STEP = {"+1": (1, 0, 0), "-1": (-1, 0, 0), "+2": (0, 1, 0),
               "-2": (0, -1, 0), "+3": (0, 0, 1), "-3": (0, 0, -1)}
_WEDGES = (((1, 0, -1), 3), ((0, 1, -1), 2), ((-1, 1, 0), 1),
           ((-1, 0, 1), 3), ((0, -1, 1), 2), ((1, -1, 0), 1))


def wedge_half_angle(r_center: float, r_neighbor: float, alpha: float) -> float:
    """Half of the angle the face subtends at the center circle."""
    if math.isinf(r_neighbor):
        return alpha
    return math.atan2(r_neighbor * math.sin(alpha),
                      r_center + r_neighbor * math.cos(alpha))


def center_distance(r_a: float, r_b: float, alpha: float) -> float:
    return math.sqrt(r_a * r_a + r_b * r_b + 2 * r_a * r_b * math.cos(alpha))


def _sub_center_sites(rf: RadiusField) -> List[SubIndex]:
    sites = [s for s in rf.values
             if s[0] + s[1] + s[2] == 0 and lattice.sub_generation(s) <= rf.generation]
    sites.sort(key=lambda s: (s[0] + s[1], s))
    return sites


def reconstruct(rf: RadiusField, closure_tol: float = 1e-6) -> ZField:
    """Lay the circles out in the plane and return the vertex map.

    Anchor: the origin circle sits at 0 with its first k-spoke along the
    positive real axis (a pole at the origin moves the anchor to the next
    boundary circle).  Every odd vertex reachable from several centers is
    placed once and re-derivations are compared; the worst mismatch and the
    worst wedge-closure defect are recorded in the metadata.
    """
    centers = _sub_center_sites(rf)
    alphas = rf.params.alphas
    values: Dict[MultiIndex, complex] = {}
    center_pos: Dict[SubIndex, complex] = {}
    ref_spoke: Dict[SubIndex, Tuple[str, float]] = {}
    worst_mismatch = 0.0
    worst_closure = 0.0

    pole = {s for s in centers if math.isinf(rf.values[s])}
    anchor = (0, 0, 0)
    if anchor in pole or anchor not in rf.values:
        anchor = (1, 0, -1)
    if anchor not in rf.values:
        raise ReconstructionError("no anchor circle available")
    center_pos[anchor] = 0j
    ref_spoke[anchor] = ("+1", 0.0)

    def spoke_angles(site: SubIndex) -> Dict[str, float]:
        """All spoke directions derivable from the reference by walking
        wedges whose neighbor radius is known."""
        nonlocal worst_closure
        r_c = rf.values[site]
        name0, theta0 = ref_spoke[site]
        i0 = _SPOKES.index(name0)
        out = {name0: theta0}
        wedges: List[Optional[float]] = []
        for off, aidx in _WEDGES:
            nb = (site[0] + off[0], site[1] + off[1], site[2] + off[2])
            if nb in rf.values:
                wedges.append(2 * wedge_half_angle(r_c, rf.values[nb],
                                                   alphas[aidx - 1]))
            else:
                wedges.append(None)
        theta = theta0
        for step in range(1, 6):
            w = wedges[(i0 + step - 1) % 6]
            if w is None:
                break
            theta += w
            out[_SPOKES[(i0 + step) % 6]] = theta
        theta = theta0
        for step in range(1, 6):
            w = wedges[(i0 - step) % 6]
            if w is None:
                break
            theta -= w
            name = _SPOKES[(i0 - step) % 6]
            out.setdefault(name, theta)
        if all(w is not None for w in wedges):
            defect = abs(sum(wedges) - 2 * math.pi)
            worst_closure = max(worst_closure, defect)
            if defect > closure_tol:
                raise ReconstructionError(
                    f"wedge angles around {site} sum to 2*pi + {defect:.3e}")
        return out

    queue = [anchor]
    seen = {anchor}
    while queue:
        site = queue.pop(0)
        r_c = float(rf.values[site])
        vertex = lattice.sub_to_vertex(site)
        z_c = center_pos[site]
        values[vertex] = z_c
        angles = spoke_angles(site)
        # place intersection points
        for name, theta in angles.items():
            step = _SPOKE_STEP[name]
            odd = (vertex[0] + step[0], vertex[1] + step[1], vertex[2] + step[2])
            if not lattice.region_contains(lattice.Region.Q, odd):
                continue
            z_p = z_c + r_c * cmath.exp(1j * theta)
            if odd in values:
                worst_mismatch = max(worst_mismatch, abs(values[odd] - z_p))
            else:
                values[odd] = z_p
        # place adjacent centers
        for idx, (off, aidx) in enumerate(_WEDGES):
            nb = (site[0] + off[0], site[1] + off[1], site[2] + off[2])
            if nb not in rf.values or nb in pole or nb in seen:
                continue
            first = _SPOKES[idx]
            if first not in angles:
                continue
            alpha = alphas[aidx - 1]
            r_n = float(rf.values[nb])
            nu = wedge_half_angle(r_c, r_n, alpha)
            z_n = z_c + center_distance(r_c, r_n, alpha) * cmath.exp(
                1j * (angles[first] + nu))
            center_pos[nb] = z_n
            # face between site and nb spans (+e_i, -e_j); the shared
            # intersection point v+e_i is the +e_j spoke of the neighbor
            i_dir = [d for d in (1, 2, 3) if off[d - 1] == 1][0]
            j_dir = [d for d in (1, 2, 3) if off[d - 1] == -1][0]
            shared_vertex = face_sites(vertex, i_dir, j_dir)[1]
            back = cmath.phase(values[shared_vertex] - z_n) if shared_vertex in values else None
            if back is None:
                raise ReconstructionError(f"missing shared spoke for {nb}")
            ref_spoke[nb] = (f"+{j_dir}", back)
            seen.add(nb)
            queue.append(nb)

    zf = ZField(params=rf.params, values=values, generation=rf.generation)
    zf.meta["route"] = "reconstructed"
    zf.meta["placement_mismatch"] = worst_mismatch
    zf.meta["wedge_closure"] = worst_closure
    zf.meta["pole_sites"] = tuple(pole)
    return zf


def circumcircle(z1: complex, z2: complex, z3: complex) -> Tuple[complex, float]:
    """Center and radius of the circle through three points."""
    d = 2 * ((z1.real * (z2.imag - z3.imag)) + (z2.real * (z3.imag - z1.imag))
             + (z3.real * (z1.imag - z2.imag)))
    if d == 0:
        raise ValueError("collinear points have no circumcircle")
    u1, u2, u3 = (abs(z1) ** 2, abs(z2) ** 2, abs(z3) ** 2)
    ux = (u1 * (z2.imag - z3.imag) + u2 * (z3.imag - z1.imag)
          + u3 * (z1.imag - z2.imag)) / d
    uy = (u1 * (z3.real - z2.real) + u2 * (z1.real - z3.real)
          + u3 * (z2.real - z1.real)) / d
    center = complex(ux, uy)
    return center, abs(z1 - center)


def pattern_radii(zf: ZField, n_max: Optional[int] = None) -> Dict[SubIndex, float]:
    """Radius extraction that also covers sublattice sites whose center
    vertex is absent (reconstructed fields): those radii are circumradii of
    the three stored intersection points."""
    out = extract_radii(zf, n_max)
    for entry in lattice.fill_order(n_max if n_max is not None else zf.generation):
        q = entry.site
        if q in out:
            continue
        if q[0] + q[1] + q[2] != 1:
            continue
        k, l, m = lattice.sub_to_vertex(q)
        pts = [(k + 1, l, m), (k, l + 1, m), (k, l, m + 1)]
        if all(p in zf.values for p in pts):
            _, radius = circumcircle(*(complex(zf[p]) for p in pts))
            out[q] = radius
    return out


def circle_pattern(zf: ZField, n_max: Optional[int] = None) -> CirclePattern:
    """Circles, intersection points and adjacency of the hexagonal pattern
    carried by a field."""
    radii = extract_radii(zf, n_max)
    circles = []
    for sub, r in sorted(radii.items()):
        if sub[0] + sub[1] + sub[2] != 0:
            continue
        vertex = lattice.sub_to_vertex(sub)
        if vertex in zf.values:
            circles.append(Circle(center=complex(zf[vertex]), radius=r, site=sub))
    inter = {}
    for site, z in zf.values.items():
        if lattice.parity(site) == 1 and abs(site[0] + site[1] + site[2]) == 1:
            inter[site] = complex(z)
    adjacency = []
    have = {c.site for c in circles}
    for c in circles:
        for off, aidx in _WEDGES:
            nb = (c.site[0] + off[0], c.site[1] + off[1], c.site[2] + off[2])
            if nb in have and c.site < nb:
                adjacency.append((c.site, nb, aidx))
    return CirclePattern(circles=circles, intersections=inter,
                         adjacency=adjacency, params=zf.params)


# ---------------------------------------------------------------------------
# immersion
# ---------------------------------------------------------------------------

def _proper_crossing(a1: complex, a2: complex, b1: complex, b2: complex) -> bool:
    d1 = orientation(a1, a2, b1)
    d2 = orientation(a1, a2, b2)
    d3 = orientation(b1, b2, a1)
    d4 = orientation(b1, b2, a2)
    return (d1 * d2 < 0) and (d3 * d4 < 0)


def _flipped(a: complex, b: complex, c: complex, eps_scale: float) -> bool:
    """A triangle fails when it is clearly negatively oriented or has a
    collapsed edge.  Triangles whose edges all fall below the guard (the
    branch point of the c = 2 pattern) pass; a straight angle (zero area
    with three distinct corners) passes too."""
    edges = (abs(b - a), abs(c - a), abs(c - b))
    edge = max(edges)
    if edge <= eps_scale:
        return False
    return (min(edges) <= eps_scale * edge
            or orientation(a, b, c) <= -eps_scale * edge * edge)


def immersion_check(zf: ZField, slab_only: bool = False,
                    eps_scale: float = 1e-12) -> ImmersionReport:
    """Uniform positive orientation of the three elementary triangles at
    every stored site, plus pairwise interior-disjointness of adjacent
    pattern faces; see _flipped for the triangle test."""
    report = ImmersionReport()
    vals = zf.values
    for (k, l, m), z0 in vals.items():
        if slab_only and abs(k + l + m) > 1:
            continue
        zk = vals.get((k + 1, l, m))
        zl = vals.get((k, l + 1, m))
        zm = vals.get((k, l, m - 1))
        z0c = complex(z0)
        # the k-l fan spans two face corners; it reads as a face orientation
        # only where the spoke ring is complete (+e3 still inside the
        # domain).  At the branch-point corner it measures the full image
        # sector, which legitimately exceeds pi for large exponents.
        triangles = [((z0c, zk, zm), "k-m"), ((z0c, zm, zl), "m-l")]
        if m <= -1:
            triangles.append(((z0c, zk, zl), "k-l"))
        for tri in triangles:
            (a, b, c_), name = tri
            if b is None or c_ is None:
                continue
            b, c_ = complex(b), complex(c_)
            report.checked_triangles += 1
            if _flipped(a, b, c_, eps_scale):
                report.failures.append(((k, l, m), f"orientation-flip:{name}"))
    # radius positivity (degenerate zero radii at a flagged pole are allowed)
    for sub, r in extract_radii(zf).items():
        if math.isnan(r) or r < 0:
            report.failures.append((lattice.sub_to_vertex(sub), "nonpositive-radius"))
    # adjacent-face overlap sweep
    h_faces = list(iter_slab_faces(vals))
    by_edge: Dict[frozenset, List[int]] = {}
    for idx, sites in enumerate(h_faces):
        for a in range(4):
            edge = frozenset((sites[a], sites[(a + 1) % 4]))
            by_edge.setdefault(edge, []).append(idx)
    for edge, members in by_edge.items():
        for ii in range(len(members)):
            for jj in range(ii + 1, len(members)):
                fa, fb = h_faces[members[ii]], h_faces[members[jj]]
                report.checked_quads += 1
                if _quads_overlap(zf, fa, fb, edge):
                    report.failures.append((fa[0], "overlapping-quads"))
    return report


def _quads_overlap(zf: ZField, fa, fb, shared: frozenset) -> bool:
    def edges(face):
        pts = [complex(zf[s]) for s in face]
        out = []
        for a in range(4):
            pair = frozenset((face[a], face[(a + 1) % 4]))
            if pair != shared:
                out.append((pts[a], pts[(a + 1) % 4]))
        return out
    for a1, a2 in edges(fa):
        for b1, b2 in edges(fb):
            if _proper_crossing(a1, a2, b1, b2):
                return True
    return False


# ---------------------------------------------------------------------------
# square-grid slice and the error-function pattern
# ---------------------------------------------------------------------------

@dataclass
class SquareGridPattern:
    values: Dict[Tuple[int, int], complex]
    params: PatternParams
    generation: int

    def circles(self) -> List[Circle]:
        lifted = {(k, 0, m): z for (k, m), z in self.values.items()}
        out = []
        for site, z in sorted(lifted.items()):
            if lattice.parity(site) == 0:
                dists = axis_distances(lifted, site)
                if dists:
                    out.append(Circle(center=complex(z), radius=sum(dists) / len(dists),
                                      site=site))
        return out


def sg_slice(zf: ZField) -> SquareGridPattern:
    """Restrict the field to the l = 0 plane: a square-grid pattern whose
    circles cross at the third angle and its supplement."""
    values = {(k, m): complex(zf[(k, l, m)])
              for (k, l, m) in zf.values if l == 0}
    return SquareGridPattern(values=values, params=zf.params,
                             generation=zf.generation)


def sg_immersion_check(sg: SquareGridPattern, eps_scale: float = 1e-12) -> ImmersionReport:
    """Orientation sweep of consecutive-neighbor triangles in the plane,
    with the triangle test of immersion_check."""
    report = ImmersionReport()
    cycle = ((1, 0), (0, -1), (-1, 0), (0, 1))   # counterclockwise images
    for (k, m), z in sg.values.items():
        z = complex(z)
        for idx in range(4):
            d1, d2 = cycle[idx], cycle[(idx + 1) % 4]
            p1 = sg.values.get((k + d1[0], m + d1[1]))
            p2 = sg.values.get((k + d2[0], m + d2[1]))
            if p1 is None or p2 is None:
                continue
            p1, p2 = complex(p1), complex(p2)
            report.checked_triangles += 1
            if _flipped(z, p1, p2, eps_scale):
                report.failures.append(((k, 0, m), "orientation-flip:sg"))
    return report


def erf_radius(n: int, m: int) -> float:
    """Radius function exp(n*m) of the square-grid error-function pattern."""
    return math.exp(n * m)


def sg_radius_residual(big_r: float, r1: float, r2: float, r3: float,
                       r4: float, alpha: float) -> float:
    """Square-grid radius equation residual; reduces to the orthogonal
    equation at alpha = pi/2."""
    return (big_r * big_r * (r1 + r2 + r3 + r4)
            - (r2 * r3 * r4 + r1 * r3 * r4 + r1 * r2 * r4 + r1 * r2 * r3)
            + 2 * big_r * math.cos(alpha) * (r1 * r3 - r2 * r4))
