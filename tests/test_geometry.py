import cmath
import math
import random

import pytest

from hexcircle import lattice
from hexcircle.geometry import (NotAKiteError, circle_pattern, circumcircle,
                                erf_radius, immersion_check, kite_classify,
                                pattern_radii, reconstruct, sg_immersion_check,
                                sg_radius_residual, sg_slice)
from hexcircle.pattern_core import PatternParams, generate_z, isotropic_params
from hexcircle.radius_system import dual, generate_radii

ISO = (math.pi / 3,) * 3
ANISO = (math.pi / 4, math.pi / 4, math.pi / 2)


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
    from hexcircle.radius_system import extract_radii
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
        if K + L + M == 0 or lattice.sub_generation(site) < rf.generation:
            assert site in got


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
    circles = {c.site: c for c in sg.circles()}
    checked = 0
    for (k, l, m), c in circles.items():
        nb = (k + 1, 0, m - 1)
        if nb in circles:
            other = circles[nb]
            d2 = abs(c.center - other.center) ** 2
            assert d2 == pytest.approx(c.radius ** 2 + other.radius ** 2, rel=1e-8)
            checked += 1
    assert checked > 10


def test_sg_slice_c1_regular():
    params = PatternParams(alphas=ANISO, c=1.0)
    sg = sg_slice(generate_z(params, 8))
    for c in sg.circles():
        assert c.radius == pytest.approx(1.0, abs=1e-12)


def test_erf_radius():
    assert erf_radius(0, 5) == 1.0
    assert erf_radius(2, 3) == pytest.approx(math.exp(6))
    assert erf_radius(3, 2) == erf_radius(2, 3)
    assert erf_radius(-1, 4) == pytest.approx(math.exp(-4))


def test_sg_radius_residual_erf_identity():
    for alpha in (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2):
        for n in range(-3, 4):
            for m in range(-3, 4):
                res = sg_radius_residual(
                    erf_radius(n, m), erf_radius(n + 1, m), erf_radius(n, m + 1),
                    erf_radius(n - 1, m), erf_radius(n, m - 1), alpha)
                scale = max(erf_radius(n, m) ** 3, 1.0)
                assert abs(res) <= 1e-12 * scale


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
    sg.values[(2, 0)] = sg.values[(1, 0)]
    assert not sg_immersion_check(sg).ok


def test_straight_angle_at_origin_is_not_a_flip():
    # with c * alpha_i = pi the two origin triangles spanning that angle have
    # zero area but three distinct corners; only a collapsed edge fails
    for alphas in ((math.pi / 6, math.pi / 6, 2 * math.pi / 3),
                   (math.pi / 6, 2 * math.pi / 3, math.pi / 6)):
        zf = generate_z(PatternParams(alphas=alphas, c=1.5), 6)
        assert (0, 0, 0) not in [site for site, _ in immersion_check(zf).failures]
        assert sg_immersion_check(sg_slice(zf)).ok
