"""Embedded patterns: reconstruction from radii, immersion reports, the
square-grid slice.

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
from .pattern_core import ZField, face_sites, iter_slab_faces
from .radius_system import RadiusField, extract_radii

POLE = math.inf


class ReconstructionError(ArithmeticError):
    """Wedge layout failed to close around a vertex."""


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
    worst wedge-closure defect are recorded in the metadata.  Each radius is
    read as a float once: the layout is a double one, whatever the digits.
    """
    radii = {site: float(r) for site, r in rf.values.items()}
    centers = _sub_center_sites(rf)
    alphas = rf.params.alphas
    values: Dict[MultiIndex, complex] = {}
    center_pos: Dict[SubIndex, complex] = {}
    ref_spoke: Dict[SubIndex, Tuple[str, float]] = {}
    worst_mismatch = 0.0
    worst_closure = 0.0

    pole = {s for s in centers if math.isinf(radii[s])}
    anchor = (0, 0, 0)
    if anchor in pole or anchor not in radii:
        anchor = (1, 0, -1)
    if anchor not in radii:
        raise ReconstructionError("no anchor circle available")
    center_pos[anchor] = 0j
    ref_spoke[anchor] = ("+1", 0.0)

    def spoke_angles(site: SubIndex) -> Dict[str, float]:
        """All spoke directions derivable from the reference by walking
        wedges whose neighbor radius is known."""
        nonlocal worst_closure
        r_c = radii[site]
        name0, theta0 = ref_spoke[site]
        i0 = _SPOKES.index(name0)
        out = {name0: theta0}
        wedges: List[Optional[float]] = []
        for off, aidx in _WEDGES:
            nb = (site[0] + off[0], site[1] + off[1], site[2] + off[2])
            if nb in radii:
                wedges.append(2 * wedge_half_angle(r_c, radii[nb],
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
        r_c = radii[site]
        vertex = lattice.sub_to_vertex(site)
        z_c = center_pos[site]
        values[vertex] = z_c
        angles = spoke_angles(site)
        # place intersection points
        for name, theta in angles.items():
            step = _SPOKE_STEP[name]
            odd = (vertex[0] + step[0], vertex[1] + step[1], vertex[2] + step[2])
            if not (odd[0] >= 0 and odd[1] >= 0 and odd[2] <= 0):
                continue  # outside the octant Q
            z_p = z_c + r_c * cmath.exp(1j * theta)
            if odd in values:
                worst_mismatch = max(worst_mismatch, abs(values[odd] - z_p))
            else:
                values[odd] = z_p
        # place adjacent centers
        for idx, (off, aidx) in enumerate(_WEDGES):
            nb = (site[0] + off[0], site[1] + off[1], site[2] + off[2])
            if nb not in radii or nb in pole or nb in seen:
                continue
            first = _SPOKES[idx]
            if first not in angles:
                continue
            alpha = alphas[aidx - 1]
            r_n = radii[nb]
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


# ---------------------------------------------------------------------------
# immersion
# ---------------------------------------------------------------------------

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
    pattern faces; see _flipped for the triangle test.  Both sweeps run in
    double on one snapshot of the field."""
    report = ImmersionReport()
    pts = {site: complex(z) for site, z in zf.values.items()}
    for (k, l, m), z0 in pts.items():
        if slab_only and abs(k + l + m) > 1:
            continue
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
            if _flipped(z0, b, c_, eps_scale):
                report.failures.append(((k, l, m), f"orientation-flip:{name}"))
    # radius positivity (degenerate zero radii at a flagged pole are allowed)
    for sub, r in extract_radii(zf).items():
        if math.isnan(r) or r < 0:
            report.failures.append((lattice.sub_to_vertex(sub), "nonpositive-radius"))
    # adjacent-face overlap sweep: faces that share an edge must not cross
    # along their other sides
    sites = list(pts)
    ids = {site: i for i, site in enumerate(sites)}
    xs = [z.real for z in pts.values()]
    ys = [z.imag for z in pts.values()]
    sides = []  # per face, per side: its site ids and direction
    by_edge: Dict[Tuple[int, int], List[int]] = {}  # members 4 * face + side
    for face in iter_slab_faces(pts):
        f = [ids[site] for site in face]
        ends = list(zip(f, f[1:] + f[:1]))
        for a, (p, q) in enumerate(ends):
            by_edge.setdefault((p, q) if p < q else (q, p), []).append(4 * len(sides) + a)
        sides.append(tuple((p, q, xs[q] - xs[p], ys[q] - ys[p]) for p, q in ends))
    for members in by_edge.values():
        for ii, ma in enumerate(members):
            fa, a = divmod(ma, 4)
            for mb in members[ii + 1:]:
                fb, b = divmod(mb, 4)
                report.checked_quads += 1
                if _sides_cross(xs, ys, sides[fa], a, sides[fb], b):
                    report.failures.append((sites[sides[fa][0][0]], "overlapping-quads"))
    return report


def _sides_cross(xs, ys, sa, a, sb, b) -> bool:
    """Whether a side of one face other than its side a properly crosses a
    side of the other face other than its side b: each side has both ends
    strictly on opposite sides of the other's line.  Sides sharing a site
    are skipped, because one of their orientations is exactly 0 (or NaN)."""
    for k, (p, q, ux, uy) in enumerate(sa):
        if k == a:
            continue
        px, py = xs[p], ys[p]
        for kk, (r, s, vx, vy) in enumerate(sb):
            if kk == b or r == p or r == q or s == p or s == q:
                continue
            rx, ry = xs[r], ys[r]
            if (ux * (ry - py) - uy * (rx - px)) * (ux * (ys[s] - py) - uy * (xs[s] - px)) < 0:
                if (vx * (py - ry) - vy * (px - rx)) * (vx * (ys[q] - ry) - vy * (xs[q] - rx)) < 0:
                    return True
    return False


# ---------------------------------------------------------------------------
# square-grid slice and the error-function pattern
# ---------------------------------------------------------------------------

def sg_slice(zf: ZField) -> ZField:
    """Restrict the field to the l = 0 plane, at its own precision: a
    square-grid pattern whose circles cross at the third angle and its
    supplement."""
    return ZField(params=zf.params, generation=zf.generation,
                  values={s: z for s, z in zf.values.items() if s[1] == 0})


def sg_immersion_check(sg: ZField, eps_scale: float = 1e-12) -> ImmersionReport:
    """Orientation sweep of consecutive-neighbor triangles in the l = 0
    plane, with the triangle test of immersion_check."""
    report = ImmersionReport()
    cycle = ((1, 0), (0, -1), (-1, 0), (0, 1))   # counterclockwise images
    for (k, l, m), z in sg.values.items():
        z = complex(z)
        for idx in range(4):
            d1, d2 = cycle[idx], cycle[(idx + 1) % 4]
            p1 = sg.values.get((k + d1[0], l, m + d1[1]))
            p2 = sg.values.get((k + d2[0], l, m + d2[1]))
            if p1 is None or p2 is None:
                continue
            p1, p2 = complex(p1), complex(p2)
            report.checked_triangles += 1
            if _flipped(z, p1, p2, eps_scale):
                report.failures.append(((k, l, m), "orientation-flip:sg"))
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
