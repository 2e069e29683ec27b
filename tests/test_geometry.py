import cmath
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import mpmath as mp
import pytest

from hexcircle import lattice
from hexcircle.geometry import (_WEDGES, ReconstructionError, _spoke_separates,
                                immersion_check, orientation, reconstruct,
                                sg_immersion_check, sg_slice)
from hexcircle.pattern_core import (PatternParams, ZField, generate_z, iter_slab_faces,
                                    max_constraint_residual, max_face_residual)
from hexcircle.radius_system import RadiusField, dual, extract_radii, generate_radii
from hexcircle.verify import max_kite_residual
from oracle import cross_ratio, isotropic_params
from test_acceptance import sg_radius_residual
from test_lattice import sub_generation

ISO = (math.pi / 3,) * 3
ANISO = (math.pi / 4, math.pi / 4, math.pi / 2)


# -- references: kite cases, circumcircles and circle lists ------------------

class NotAKiteError(ValueError):
    """The quadrilateral fits none of the four kite cases."""


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


def radii_to(zf: ZField, n_max: int):
    """extract_radii on the sublattice sites of generation up to n_max."""
    return {s: r for s, r in extract_radii(zf).items()
            if sub_generation(s) <= n_max}


def pattern_radii(zf: ZField, n_max: int):
    """radii_to, plus the sublattice sites whose center vertex is absent
    (reconstructed fields): those radii are circumradii of the three stored
    intersection points."""
    out = radii_to(zf, n_max)
    for entry in lattice.fill_order(n_max):
        q = entry.site
        if q in out or q[0] + q[1] + q[2] != 1:
            continue
        k, l, m = lattice.sub_to_vertex(q)
        pts = [(k + 1, l, m), (k, l + 1, m), (k, l, m + 1)]
        if all(p in zf.values for p in pts):
            out[q] = circumcircle(*(complex(zf[p]) for p in pts))[1]
    return out


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float
    site: Tuple[int, int, int]


@dataclass
class CirclePattern:
    circles: List[Circle]
    intersections: Dict[Tuple[int, int, int], complex]
    adjacency: List[Tuple[Tuple[int, int, int], Tuple[int, int, int], int]]


def circle_pattern(zf: ZField, n_max: int) -> CirclePattern:
    """Circles, intersection points and adjacency (site, site, angle index)
    of the hexagonal pattern carried by a field."""
    circles = []
    for sub, r in sorted(radii_to(zf, n_max).items()):
        vertex = lattice.sub_to_vertex(sub)
        if sub[0] + sub[1] + sub[2] == 0 and vertex in zf.values:
            circles.append(Circle(center=complex(zf[vertex]), radius=float(r), site=sub))
    inter = {site: complex(z) for site, z in zf.values.items()
             if lattice.parity(site) == 1 and abs(site[0] + site[1] + site[2]) == 1}
    have = {c.site for c in circles}
    adjacency = []
    for c in circles:
        for off, aidx in _WEDGES:
            nb = (c.site[0] + off[0], c.site[1] + off[1], c.site[2] + off[2])
            if nb in have and c.site < nb:
                adjacency.append((c.site, nb, aidx))
    return CirclePattern(circles=circles, intersections=inter, adjacency=adjacency)


def test_kite_classify_unit_square():
    case = kite_classify(0, 1, 1 + 1j, 1j, math.pi / 2)
    assert case == 1


def test_kite_classify_reflected():
    case = kite_classify(0, 1, 1 - 1j, -1j, math.pi / 2)
    assert case == 2


def test_kite_classify_rejects_garbage():
    with pytest.raises(NotAKiteError):
        kite_classify(0, 1, 2.5 + 0.3j, 1j, math.pi / 2)


def test_kite_classify_generated_faces():
    from hexcircle.pattern_core import iter_faces
    params = PatternParams(alphas=ISO, c=1.5)
    zf = generate_z(params, 7)
    seen = set()
    for t, sites in iter_faces(zf):
        corners = [complex(zf[s]) for s in sites]
        case = kite_classify(*corners, alpha=params.alphas[t - 1])
        seen.add(case)
        assert case in (1, 2, 3, 4)
    assert seen  # at least one face classified


def test_circumcircle():
    center, radius = circumcircle(1, 1j, -1)
    assert abs(center) <= 1e-12
    assert radius == pytest.approx(1.0)


def test_reconstruct_regular_pattern():
    rf = generate_radii(isotropic_params(1.0), 6)
    zf = reconstruct(rf)
    assert zf.meta["wedge_closure"] <= 1e-9
    # all edges have unit length
    for r in extract_radii(zf).values():
        assert r == pytest.approx(1.0, abs=1e-10)


def test_reconstruct_matches_evolution():
    params = isotropic_params(1.5)
    rf = generate_radii(params, 6)
    zr = reconstruct(rf)
    zf = generate_z(params, 12)
    worst = max(abs(complex(zr[s]) - complex(zf[s]))
                for s in zr.values if s in zf.values)
    assert worst <= 1e-8
    from hexcircle.pattern_core import max_face_residual
    assert max_face_residual(zr) <= 1e-9


def test_reconstruct_roundtrip_radii():
    params = PatternParams(alphas=(0.7, 1.1, math.pi - 1.8), c=1.3)
    rf = generate_radii(params, 6)
    zr = reconstruct(rf)
    got = pattern_radii(zr, 6)
    for site, val in got.items():
        assert val == pytest.approx(rf.values[site], abs=1e-9)
    # every circle is recovered; rim sites of the extra layer may lack one
    # of their three intersection points and are the only permitted gaps
    for site, want in rf.values.items():
        K, L, M = site
        if K + L + M == 0 or sub_generation(site) < rf.generation:
            assert site in got


def test_reconstruct_refuses_radii_that_do_not_close():
    rf = generate_radii(isotropic_params(1.5), 6)
    rf.values[(1, 1, -2)] *= 1.01  # an interior center, complete ring
    with pytest.raises(ReconstructionError, match=re.escape("(1, 1, -2)")):
        reconstruct(rf)


def test_reconstruct_never_drops_a_nan_radius():
    # one NaN radius at each site in turn: the layout refuses it, or its
    # metadata reads NaN; never NaN vertices under finite worsts
    rf = generate_radii(isotropic_params(1.5), 6)
    refused = 0
    for site in rf.values:
        values = {**rf.values, site: math.nan}
        try:
            zf = reconstruct(RadiusField(params=rf.params, values=values,
                                         generation=rf.generation))
        except ReconstructionError:
            refused += 1
            continue
        if not all(map(cmath.isfinite, zf.values.values())):
            assert math.isnan(zf.meta["placement_mismatch"]) or math.isnan(
                zf.meta["wedge_closure"]), site
    assert refused >= 20


@pytest.mark.parametrize("field", ["z2", "log", "c1.5"])
def test_reconstructed_points_lie_on_their_circles(field):
    """Every placed intersection point lies on the circle of each placed
    center that spokes to it, whichever center placed it."""
    if field == "c1.5":
        rf = generate_radii(isotropic_params(1.5), 8)
    else:
        rf = generate_radii(PatternParams(alphas=ISO, c=2.0), 8)
        rf = dual(rf) if field == "log" else rf
    zf = reconstruct(rf)
    checked = 0
    for site, r in rf.values.items():
        vertex = lattice.sub_to_vertex(site)
        if sum(site) != 0 or vertex not in zf.values:
            continue
        for odd in lattice.axis_neighbors(vertex):
            if odd in zf.values:
                dist = abs(complex(zf[odd]) - complex(zf[vertex]))
                assert abs(dist - r) <= 1e-9 * r, (site, odd)
                checked += 1
    assert checked > 200


def test_reconstruct_z2_and_log():
    params = PatternParams(alphas=ISO, c=2.0)
    rf = generate_radii(params, 6)
    z2 = reconstruct(rf)
    assert z2.meta["wedge_closure"] <= 1e-9
    assert z2[(1, 0, 0)] == pytest.approx(0)  # point circle at the origin
    lg = dual(rf)
    zlog = reconstruct(lg)
    assert zlog.meta["wedge_closure"] <= 1e-9
    from hexcircle.pattern_core import max_face_residual
    assert max_face_residual(zlog) <= 1e-9
    assert lattice.sub_to_vertex((0, 0, 0)) not in zlog.values


def test_immersion_positive_cases():
    for c in (1.0, 1.5):
        rep = immersion_check(generate_z(isotropic_params(c), 8))
        assert rep.ok
        assert rep.checked_triangles > 100


def test_immersion_negative_control():
    params = isotropic_params(1.5)
    bad = {(0, 0, -1): cmath.exp(1j * (1.5 * math.pi / 3 + 0.05))}
    zf = generate_z(params, 8, initial_override=bad)
    rep = immersion_check(zf)
    assert not rep.ok
    assert any("orientation-flip" in kind for _, kind in rep.failures)


def test_immersion_detects_displaced_intersection_point():
    params = isotropic_params(1.25)
    zf = generate_z(params, 7)
    assert immersion_check(zf).ok
    # drag one intersection point across its quad: flips orientations and
    # makes adjacent faces overlap
    site = (2, 2, -3)
    here = complex(zf.values[site])
    there = complex(zf.values[(1, 2, -3)])
    zf.values[site] = here + 1.4 * (there - here)
    rep = immersion_check(zf)
    assert not rep.ok


def test_circle_pattern_incidence_and_angles():
    params = PatternParams(alphas=(0.7, 1.1, math.pi - 1.8), c=1.3)
    zf = generate_z(params, 9)
    cp = circle_pattern(zf, 4)
    assert cp.circles
    by_site = {c.site: c for c in cp.circles}
    # every stored intersection point lies on the circles it touches
    checked = 0
    for site, z in cp.intersections.items():
        for nb in lattice.axis_neighbors(site):
            if (nb[0] + nb[1] + nb[2]) % 2 == 0 and lattice.parity(nb) == 0:
                sub = lattice.to_sub(nb)
                if sub in by_site:
                    c = by_site[sub]
                    checked += 1
                    assert abs(abs(z - c.center) - c.radius) <= 1e-9
    assert checked > 20
    # adjacency angles
    for sa, sb, aidx in cp.adjacency:
        ca, cb = by_site[sa], by_site[sb]
        d2 = abs(ca.center - cb.center) ** 2
        cos_phi = (d2 - ca.radius ** 2 - cb.radius ** 2) / (2 * ca.radius * cb.radius)
        assert cos_phi == pytest.approx(math.cos(params.alphas[aidx - 1]), abs=1e-9)


def test_sg_slice_immersed_and_angles():
    for c in (0.5, 1.0, 1.5):
        params = PatternParams(alphas=ANISO, c=c)
        sg = sg_slice(generate_z(params, 10))
        rep = sg_immersion_check(sg)
        assert rep.ok
        assert rep.checked_triangles > 50
    # orthogonal case: neighboring circles meet at right angles
    params = PatternParams(alphas=ANISO, c=1.5)
    sg = sg_slice(generate_z(params, 10))
    radii = {lattice.sub_to_vertex(sub): r for sub, r in extract_radii(sg).items()}
    checked = 0
    for (k, l, m), r in radii.items():
        nb = (k + 1, 0, m - 1)
        if nb in radii:
            d2 = abs(sg[(k, l, m)] - sg[nb]) ** 2
            assert d2 == pytest.approx(r ** 2 + radii[nb] ** 2, rel=1e-8)
            checked += 1
    assert checked > 10


def test_sg_slice_c1_regular():
    params = PatternParams(alphas=ANISO, c=1.0)
    radii = extract_radii(sg_slice(generate_z(params, 8)))
    assert len(radii) > 20
    for r in radii.values():
        assert r == pytest.approx(1.0, abs=1e-12)


def test_sg_radius_residual_constant_and_negative_control():
    assert sg_radius_residual(2.0, 2.0, 2.0, 2.0, 2.0, 0.7) == pytest.approx(0.0)
    rng = random.Random(41)
    nonzero = 0
    for _ in range(20):
        vals = [rng.uniform(0.5, 2.0) for _ in range(5)]
        if abs(sg_radius_residual(*vals, alpha=0.9)) > 1e-6:
            nonzero += 1
    assert nonzero >= 15


def test_sg_immersion_fails_collapsed_edge():
    sg = sg_slice(generate_z(isotropic_params(1.5), 6))
    assert sg_immersion_check(sg).ok
    sg.values[(2, 0, 0)] = sg.values[(1, 0, 0)]
    assert not sg_immersion_check(sg).ok


def test_straight_angle_at_origin_is_not_a_flip():
    # with c * alpha_i = pi the two origin triangles spanning that angle have
    # zero area but three distinct corners; only a collapsed edge fails
    for alphas in ((math.pi / 6, math.pi / 6, 2 * math.pi / 3),
                   (math.pi / 6, 2 * math.pi / 3, math.pi / 6)):
        zf = generate_z(PatternParams(alphas=alphas, c=1.5), 6)
        assert (0, 0, 0) not in [site for site, _ in immersion_check(zf).failures]
        assert sg_immersion_check(sg_slice(zf)).ok


def test_immersion_on_extended_radius_document_matches_complex_copy(tmp_path):
    from hexcircle import cli
    from hexcircle.document import load_document
    from hexcircle.pattern_core import ZField
    path = str(tmp_path / "z2.txt")
    assert cli.main(["generate", "--c", "2", "--mode", "z2", "--n", "8",
                     "--precision", "ext", "--dps", "80", "--out", path]) == 0
    zf = load_document(path).zfield()
    # drag one intersection point across its quad so that there is
    # something to report
    site, other = (2, 2, -3), (1, 2, -3)
    with zf.params.backend().context():
        zf.values[site] += 1.4 * (zf.values[other] - zf.values[site])
    copy = ZField(params=zf.params, generation=zf.generation,
                  values={s: complex(z) for s, z in zf.values.items()})
    rep, ref = (immersion_check(f) for f in (zf, copy))
    assert rep.failures and rep.failures == ref.failures
    assert (rep.checked_triangles, rep.checked_quads) == (
        ref.checked_triangles, ref.checked_quads)
    assert rep.checked_quads > 100


def test_double_copy_of_the_read_is_complex_of_every_vertex(tmp_path):
    # immersion_check takes its double copy from field_points as x / one,
    # rounded once to nearest as mpmath rounds a normal double; a read that
    # could hold a subnormal, or overflows, falls back to complex(z)
    from hexcircle import cli, geometry, pattern_core
    from hexcircle.document import load_document
    path = str(tmp_path / "z2.txt")
    assert cli.main(["generate", "--c", "2", "--mode", "z2", "--n", "8",
                     "--precision", "ext", "--dps", "80", "--out", path]) == 0
    fields = [load_document(path).zfield(),
              generate_z(isotropic_params(1.5, precision="ext", dps=40), 6),
              generate_z(isotropic_params(1.5), 6)]
    # halfway between two subnormals plus 2**-1150: mpmath rounds it to 53
    # bits, onto the tie, then in ldexp to even, one unit below x / one
    with mp.workdps(40):
        tie = mp.ldexp((2 ** 52 + 1) * 2 ** 75 + 1, -1150)
        top = mp.ldexp(2 ** 136 - 1, 888)  # rounds to 2**1024
        for value in (mp.mpc(1, tie), mp.mpc(top, 1)):
            zf = generate_z(isotropic_params(1.5, precision="ext", dps=40), 4)
            zf.values[(1, 1, -1)] = value
            fields.append(zf)
    (pts, one), (top_pts, top_one) = (pattern_core.field_points(zf) for zf in fields[-2:])
    assert pts[(1, 1, -1)][1] / one != complex(fields[-2].values[(1, 1, -1)]).imag
    with pytest.raises(OverflowError):
        top_pts[(1, 1, -1)][0] / top_one
    for zf in fields:
        want = {s: complex(z) for s, z in zf.values.items()}
        assert repr(geometry._double_points(zf)) == repr(want)
    assert not immersion_check(fields[-1]).ok


def test_immersion_detects_overlapping_quads_on_extended_field():
    params = isotropic_params(1.25, precision="ext", dps=40)
    zf = generate_z(params, 7)
    assert immersion_check(zf).ok
    site = (2, 2, -3)
    with params.backend().context():
        here, there = zf.values[site], zf.values[(1, 2, -3)]
        zf.values[site] = here + 1.4 * (there - here)
    assert any(kind == "overlapping-quads"
               for _, kind in immersion_check(zf).failures)


# -- the quad-overlap sweep against its reference --------------------------

def _proper_crossing(a1, a2, b1, b2):
    d1 = orientation(a1, a2, b1)
    d2 = orientation(a1, a2, b2)
    d3 = orientation(b1, b2, a1)
    d4 = orientation(b1, b2, a2)
    return (d1 * d2 < 0) and (d3 * d4 < 0)


def _quads_overlap(pts, fa, fb, shared):
    def edges(face):
        return [(pts[face[a]], pts[face[(a + 1) % 4]]) for a in range(4)
                if frozenset((face[a], face[(a + 1) % 4])) != shared]
    return any(_proper_crossing(a1, a2, b1, b2)
               for a1, a2 in edges(fa) for b1, b2 in edges(fb))


def reference_quad_sweep(zf):
    """The quad-overlap sweep tested edge pair by edge pair, every side
    against every side: (failures, checked_quads), each failure at the
    center end of the shared edge, sorted."""
    pts = {site: complex(z) for site, z in zf.values.items()}
    faces = list(iter_slab_faces(pts))
    by_edge = {}
    for idx, sites in enumerate(faces):
        for a in range(4):
            edge = frozenset((sites[a], sites[(a + 1) % 4]))
            by_edge.setdefault(edge, []).append(idx)
    failures, checked = [], 0
    for edge, members in by_edge.items():
        for ii in range(len(members)):
            for jj in range(ii + 1, len(members)):
                fa, fb = faces[members[ii]], faces[members[jj]]
                checked += 1
                if _quads_overlap(pts, fa, fb, edge):
                    center = next(site for site in edge if sum(site) == 0)
                    failures.append((center, "overlapping-quads"))
    return sorted(failures), checked


def assert_quad_sweep_matches_reference(zf):
    rep = immersion_check(zf)
    quads = sorted(f for f in rep.failures if f[1] == "overlapping-quads")
    assert (quads, rep.checked_quads) == reference_quad_sweep(zf)
    return quads


def _dragged(zf, site=(2, 2, -3), other=(1, 2, -3)):
    with zf.params.backend().context():
        zf.values[site] += 1.4 * (zf.values[other] - zf.values[site])
    return zf


def test_quad_sweep_matches_reference_on_negative_controls():
    seed = {(0, 0, -1): cmath.exp(1j * (1.5 * math.pi / 3 + 0.05))}
    controls = [
        generate_z(isotropic_params(1.5), 8, initial_override=seed),
        _dragged(generate_z(isotropic_params(1.25), 7)),
        _dragged(generate_z(isotropic_params(1.25, precision="ext", dps=40), 7)),
    ]
    collapsed = generate_z(isotropic_params(1.5), 6)
    collapsed.values[(2, 1, -1)] = collapsed.values[(1, 1, -1)]
    controls.append(collapsed)
    found = [assert_quad_sweep_matches_reference(zf) for zf in controls]
    assert all(found[:3])


def _perturbed(zf, rng, amplitude):
    """Every vertex moved by a random offset of about amplitude times its
    distance from the origin (plus amplitude), a few snapped onto another
    vertex and one set to NaN."""
    sites = sorted(zf.values)
    with zf.params.backend().context():
        for site in sites:
            z = zf.values[site]
            step = amplitude * (abs(z) + 1)
            zf.values[site] = z + complex(rng.gauss(0, step), rng.gauss(0, step))
        for site in rng.sample(sites, 4):
            zf.values[site] = zf.values[rng.choice(sites)]
        zf.values[rng.choice(sites)] = complex(math.nan, 0)
    return zf


@pytest.mark.parametrize("amplitude", [0.01, 0.05, 0.2])
def test_quad_sweep_matches_reference_on_perturbed_double_fields(amplitude):
    rng = random.Random(int(amplitude * 1000))
    found = 0
    for c in (0.5, 1.25, 1.9):
        zf = _perturbed(generate_z(isotropic_params(c), 8), rng, amplitude)
        found += len(assert_quad_sweep_matches_reference(zf))
    assert found


def test_quad_sweep_matches_reference_on_integer_grid_fields():
    # small integer coordinates: orientations are exact, so touching and
    # collinear sides (orientation exactly 0) are frequent
    rng = random.Random(7)
    found = 0
    for _ in range(20):
        zf = generate_z(isotropic_params(1.5), 6)
        for site in zf.values:
            zf.values[site] = complex(rng.randint(-2, 2), rng.randint(-2, 2))
        found += len(assert_quad_sweep_matches_reference(zf))
    assert found


def test_quad_sweep_matches_reference_on_loaded_extended_field(tmp_path):
    from hexcircle import cli
    from hexcircle.document import load_document
    path = str(tmp_path / "z2.txt")
    assert cli.main(["generate", "--c", "2", "--mode", "z2", "--n", "8",
                     "--precision", "ext", "--dps", "80", "--out", path]) == 0
    rng = random.Random(80)
    found = 0
    for amplitude in (0.0, 0.02, 0.1):
        zf = load_document(path).zfield()
        if amplitude:
            zf = _perturbed(zf, rng, amplitude)
        found += len(assert_quad_sweep_matches_reference(zf))
    assert found


@pytest.mark.parametrize("dual_of", [False, True])
def test_quad_sweep_matches_reference_on_radius_route_fields(dual_of):
    # z2 and log fields, whose interior centers have full rings of six kites
    rf = generate_radii(PatternParams(alphas=ISO, c=2.0, precision="ext", dps=40), 12)
    zf = reconstruct(dual(rf) if dual_of else rf)
    assert any(all((k + a, l + b, m + c) in zf.values for (a, b, c), _ in _WEDGES)
               for k, l, m in zf.values if k + l + m == 0)
    assert assert_quad_sweep_matches_reference(zf) == []
    assert immersion_check(zf).checked_quads > 400
    perturbed = _perturbed(zf, random.Random(12), 0.05)
    assert assert_quad_sweep_matches_reference(perturbed)


# -- the shared-spoke decision against exact arithmetic --------------------

def _exact_points(h):
    """The corners as integer pairs over one common denominator: each float
    coordinate is a Fraction with a power-of-two denominator."""
    xy = [(Fraction(z.real), Fraction(z.imag)) for z in h]
    den = max(f.denominator for pt in xy for f in pt)
    return [(int(x * den), int(y * den)) for x, y in xy]


def _exact_orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _exact_kites_cross(h):
    """Whether a side of (u, p, c, q) other than u q crosses a side of
    (u, q, c', p') other than u q properly, in exact arithmetic of the
    float coordinates."""
    pts = _exact_points(h)

    def proper(a1, a2, b1, b2):
        return (_exact_orient(a1, a2, b1) * _exact_orient(a1, a2, b2) < 0
                and _exact_orient(b1, b2, a1) * _exact_orient(b1, b2, a2) < 0)

    first = [(pts[i], pts[i + 1]) for i in range(3)]
    second = [(pts[i], pts[(i + 1) % 6]) for i in range(3, 6)]
    return any(proper(*a, *b) for a in first for b in second)


def _exact_spoke_sides(h):
    """The exact signs of p, c, c', p' against u -> q."""
    pts = _exact_points(h)
    return [(d > 0) - (d < 0) for d in
            (_exact_orient(pts[0], pts[3], pts[i]) for i in (1, 2, 4, 5))]


def _kite_pair(rng):
    """Corners (u, p, c, q, c', p') of two kites sharing the spoke u q,
    roughly as a pattern lays them out: three spokes counterclockwise, each
    rim near the far corner of its rhombus; sometimes wildly off."""
    u = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
    theta = rng.uniform(0, 2 * math.pi)
    gaps = [rng.uniform(0.05, 2.5) for _ in range(2)]
    p, q, p2 = (u + rng.uniform(0.1, 3) * cmath.exp(1j * t)
                for t in (theta, theta + gaps[0], theta + gaps[0] + gaps[1]))
    spread = rng.choice([0.0, 0.1, 1.0])
    c = p + q - u + spread * complex(rng.gauss(0, 1), rng.gauss(0, 1))
    c2 = q + p2 - u + spread * complex(rng.gauss(0, 1), rng.gauss(0, 1))
    return [u, p, c, q, c2, p2]


def _near_line(rng, h, idx):
    """Corner idx moved onto the line u q, or a few units off it."""
    u, q = h[0], h[3]
    off = rng.choice([0.0, 1e-17, 1e-16, 1e-15, 1e-12]) * rng.choice([-1, 1])
    h[idx] = u + rng.uniform(-1, 2) * (q - u) + off * 1j * (q - u)
    return h


def _flat(rng, h):
    """All four corners but u and q moved to within a few rounding units of
    the line u q, where the computed orientations lose their signs."""
    u, q = h[0], h[3]
    for idx in (1, 2, 4, 5):
        off = rng.choice([0.0, 1e-17, 1e-16, 3e-16, 1e-15, 1e-14]) * rng.choice([-1, 1])
        h[idx] = u + rng.uniform(-0.5, 1.5) * (q - u) + off * 1j * (q - u)
    return h


def _straddling(rng, off=1e-16):
    """c and c' about off |q - u| or less off the spoke line, p and p' far
    out on either side, so that the sides p c and c' p' cross whenever c'
    lies beyond c on its side: at off = 1e-16 only the computed signs of c
    and c' tell the two cases apart."""
    # u no farther out than q - u, or the differences are exact and the
    # computed signs seldom flip
    u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    q, n, t = u + w, 1j * w, rng.uniform(0.3, 0.7)
    c = u + t * w + rng.choice([0, 0, 0.1, -1, 1]) * off * n
    c2 = u + (t + rng.uniform(0, 10 * off)) * w + rng.choice([0, 0, 0.1, -1, 1]) * off * n
    size = rng.uniform(0.2, 2)
    return [u, c + size * (w + n), c, q, c2, c2 - size * (w + 0.1 * n)]


def _drawn_pairs(rng, count):
    kinds = ["pattern", "near-line", "flat", "straddling", "snapped", "grid",
             "random", "tiny", "huge", "non-finite"]
    for i in range(count):
        kind = kinds[i % len(kinds)]
        h = _kite_pair(rng)
        if kind == "near-line":
            h = _near_line(rng, h, rng.choice([1, 2, 4, 5]))
        elif kind == "flat":
            h = _flat(rng, h)
        elif kind == "straddling":
            h = _straddling(rng)
        elif kind == "snapped":
            i, j = rng.sample(range(6), 2)
            h[i] = h[j]
        elif kind == "grid":
            h = [complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(6)]
        elif kind == "random":
            h = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(6)]
        elif kind in ("tiny", "huge"):
            # products near and below the smallest normal double, where
            # they keep fewer bits, and past the largest
            scale = rng.choice([1e-140, 1e-150, 2.0 ** -515, 2.0 ** -530, 1e-300,
                                2.0 ** -1060] if kind == "tiny" else [1e150, 1e300])
            shape = rng.choice([list, lambda h: _near_line(rng, h, 2),
                                lambda h: _flat(rng, h), lambda h: _straddling(rng),
                                lambda h: _straddling(rng, 1e-13)])
            h = [z * scale for z in shape(h)]
        elif kind == "non-finite":
            idx, bad = rng.randrange(6), rng.choice([math.nan, math.inf, -math.inf])
            h[idx] = complex(bad, h[idx].imag) if rng.random() < 0.5 else complex(h[idx].real, bad)
        yield kind, tuple(h)


def test_spoke_separation_holds_in_exact_arithmetic():
    rng = random.Random(1997)
    passed, drawn = {}, {}
    for kind, h in _drawn_pairs(rng, 12000):
        drawn[kind] = drawn.get(kind, 0) + 1
        if _spoke_separates(*h):
            passed[kind] = passed.get(kind, 0) + 1
            # every certified sign is the exact one, so no side pair crosses
            assert _exact_spoke_sides(h) in ([1, 1, -1, -1], [-1, -1, 1, 1]), (kind, h)
            assert not _exact_kites_cross(h), (kind, h)
    assert sum(drawn.values()) >= 10 ** 4
    assert "non-finite" not in passed
    # the decision is not vacuous: most pattern-like pairs pass, and so do
    # some of every other finite kind
    assert passed["pattern"] > 0.6 * drawn["pattern"]
    assert all(passed.get(kind) for kind in drawn if kind != "non-finite"), passed


def test_spoke_separation_is_exact_on_collinear_and_straddling_corners():
    u, q = 0j, 1 + 1j
    kites = (u, 1 + 0j, 2 + 0.5j, q, 0.5 + 2j, 1j)
    assert _spoke_separates(*kites) and _spoke_separates(*reversed(kites))
    # a corner on the spoke line, however far out, is never certified
    for on_line in (0.5 + 0.5j, 3 + 3j, -1e-300 - 1e-300j):
        for idx in (1, 2, 4, 5):
            h = list(kites)
            h[idx] = on_line
            assert not _spoke_separates(*h)
    # p and c on different sides: left to the side-pair test
    assert not _spoke_separates(u, 1 + 0j, 0 + 2j, q, 0.5 + 2j, 1j)


def _turned_seed(turn):
    """The c = 1.5 iso field at dps 60, n = 32, with Z(0, 1, 0) turned by
    turn radians off the separatrix."""
    params = isotropic_params(1.5, precision="ext", dps=60)
    with mp.workdps(60):
        seed = mp.expj(mp.pi + mp.mpf(turn))  # Z(0, 1, 0) = exp(i c 2 pi / 3)
    return generate_z(params, 32, initial_override={(0, 1, 0): seed})


def test_seed_turn_passes_local_checks_and_fails_immersion():
    # a 1e-12 turn of one seed leaves every local residual far below its
    # tolerance; only the immersion check sees the pattern leave the
    # separatrix
    zf = _turned_seed("1e-12")
    assert max_face_residual(zf) < 1e-56
    assert max_constraint_residual(zf) < 1e-48
    assert max_kite_residual(zf) < 1e-48
    rep = immersion_check(zf)
    kinds = [kind.split(":")[0] for _, kind in rep.failures]
    assert (kinds.count("orientation-flip"), kinds.count("overlapping-quads")) == (499, 26)
    assert len(assert_quad_sweep_matches_reference(zf)) == 26
    assert immersion_check(_turned_seed("1e-20")).ok


# -- reconstruct reads the radii as doubles --------------------------------

@pytest.mark.parametrize("dual_of", [False, True])
def test_reconstruct_gives_the_same_vertices_from_float_radii(dual_of):
    params = PatternParams(alphas=ISO, c=2.0, precision="ext", dps=80)
    rf = generate_radii(params, 8)
    if dual_of:
        rf = dual(rf)
    copy = RadiusField(params=rf.params, generation=rf.generation,
                       values={s: float(r) for s, r in rf.values.items()})
    zf, ref = reconstruct(rf), reconstruct(copy)
    assert zf.values == ref.values
    assert zf.meta == ref.meta
