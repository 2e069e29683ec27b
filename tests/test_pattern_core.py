import cmath
import math
import random

import pytest

from hexcircle import pattern_core
from hexcircle.pattern_core import (DEFAULT_MU_SAMPLES, DegenerateQuadError,
                                    PatternParams, UnsupportedExponentError,
                                    axis_next, constraint_residual,
                                    cross_ratio, face_sites, generate_z,
                                    isotropic_params, lax_deltas, lax_matrix,
                                    solve_fourth, zero_curvature_residual)

ISO = (math.pi / 3,) * 3
ANISO = (math.pi / 4, math.pi / 4, math.pi / 2)


def test_cross_ratio_unit_square():
    assert cross_ratio(0, 1, 1 + 1j, 1j) == pytest.approx(-1)


def test_cross_ratio_collinear():
    assert cross_ratio(0, 1, 2, 3) == pytest.approx(-1 / 3)


def test_cross_ratio_degenerate_raises():
    with pytest.raises(DegenerateQuadError):
        cross_ratio(0, 1, 1, 2)


def test_cross_ratio_moebius_invariance():
    rng = random.Random(7)
    for _ in range(50):
        pts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
        a, b, c, d = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4))
        if abs(a * d - b * c) < 1e-3:
            continue
        moved = [(a * z + b) / (c * z + d) for z in pts]
        try:
            q0 = cross_ratio(*pts)
            q1 = cross_ratio(*moved)
        except DegenerateQuadError:
            continue
        assert abs(q0 - q1) <= 1e-12 * max(1.0, abs(q0))


def test_solve_fourth_examples():
    assert solve_fourth(0, 1, 1 + 1j, -1) == pytest.approx(1j)
    assert solve_fourth(0, 1, 2, -1 / 3) == pytest.approx(3)


def test_solve_fourth_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        pts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
        try:
            q = cross_ratio(*pts)
            back = solve_fourth(pts[0], pts[1], pts[2], q)
        except DegenerateQuadError:
            continue
        assert abs(back - pts[3]) <= 1e-10 * max(1.0, abs(pts[3]))


def test_axis_next_identity_map():
    assert axis_next(1, 0, 1, 1.0) == pytest.approx(2)
    zs = [float(n) for n in range(10)]
    for n in range(1, 9):
        assert axis_next(n, zs[n - 1], zs[n], 1.0) == pytest.approx(zs[n + 1])


def test_axis_next_general_first_step():
    for c in (0.3, 0.9, 1.5, 1.9):
        assert axis_next(1, 0, 1, c) == pytest.approx(2 / (2 - c))


def test_generate_z_origin_and_initial_modulus():
    for alphas in (ISO, ANISO):
        params = PatternParams(alphas=alphas, c=1.3)
        zf = generate_z(params, 3)
        assert zf[(0, 0, 0)] == 0
        for site in ((1, 0, 0), (0, 1, 0), (0, 0, -1)):
            assert abs(zf[site]) == pytest.approx(1.0, abs=1e-15)


def test_generate_z_c1_is_unit_radius_pattern():
    for alphas in (ISO, ANISO, (0.7, 1.1, math.pi - 1.8)):
        params = PatternParams(alphas=alphas, c=1.0)
        zf = generate_z(params, 7)
        from hexcircle.radius_system import extract_radii
        radii = extract_radii(zf)
        assert radii, "no radii extracted"
        for r in radii.values():
            assert r == pytest.approx(1.0, abs=1e-12)


def test_generate_z_face_cross_ratios():
    params = isotropic_params(1.5)
    zf = generate_z(params, 8)
    target = cmath.exp(-2j * math.pi / 3)
    worst = 0.0
    for t, sites in pattern_core.iter_faces(zf):
        q = cross_ratio(*(zf[s] for s in sites))
        worst = max(worst, abs(q - target))
    assert worst <= 1e-9


def test_generate_z_rejects_c2():
    with pytest.raises(UnsupportedExponentError):
        generate_z(PatternParams(alphas=ISO, c=2.0), 4)


def test_constraint_residual_small_on_generated_fields():
    for c in (1.0, 1.5):
        zf = generate_z(isotropic_params(c), 8)
        assert pattern_core.max_constraint_residual(zf) <= 1e-9


def test_constraint_residual_detects_corruption():
    zf = generate_z(isotropic_params(1.5), 8)
    site = (2, 2, -2)
    zf.values[site] = zf.values[site] + 0.01
    worst = 0.0
    for p in ((2, 2, -2), (1, 2, -2), (2, 1, -2), (2, 2, -1)):
        try:
            worst = max(worst, abs(complex(constraint_residual(zf, p))))
        except KeyError:
            pass
    assert worst >= 1e-3


def test_kite_property():
    zf = generate_z(PatternParams(alphas=ANISO, c=1.4), 8)
    from hexcircle.lattice import parity
    for site in zf.values:
        if parity(site) == 0:
            mean, spread = pattern_core.kite_spread(zf, site)
            if mean > 0:
                assert spread / mean <= 1e-9


def test_zero_curvature_on_generated_field():
    zf = generate_z(PatternParams(alphas=ANISO, c=0.8), 6)
    assert pattern_core.max_zero_curvature_residual(zf) <= 1e-9


def test_zero_curvature_negative_control():
    zf = generate_z(isotropic_params(1.5), 6)
    zf.values[(2, 1, -1)] = zf.values[(2, 1, -1)] + 1e-3
    res = zero_curvature_residual(zf, (1, 1, -1), 1, 3)
    assert res >= 1e-5


def test_zero_curvature_mu_zero_any_values():
    rng = random.Random(3)
    params = isotropic_params(1.5)
    zf = generate_z(params, 3)
    for site in list(zf.values):
        zf.values[site] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    res = zero_curvature_residual(zf, (0, 0, -1), 1, 3, mu_samples=(0.0,))
    assert res == 0.0


def _mat_mul(p, q):
    return (
        (p[0][0] * q[0][0] + p[0][1] * q[1][0],
         p[0][0] * q[0][1] + p[0][1] * q[1][1]),
        (p[1][0] * q[0][0] + p[1][1] * q[1][0],
         p[1][0] * q[0][1] + p[1][1] * q[1][1]),
    )


def _explicit_gaps(zf):
    """Per face, the largest entrywise gap of the two multiplied-out
    transport products over DEFAULT_MU_SAMPLES."""
    deltas = lax_deltas(zf.params)
    gaps = {}
    for v in zf.values:
        for (i, j) in ((2, 1), (3, 2), (1, 3)):
            sites = face_sites(v, i, j)
            if not all(s in zf.values for s in sites):
                continue
            za, zb, zc, zd = (zf[s] for s in sites)
            worst = 0.0
            for mu in DEFAULT_MU_SAMPLES:
                p1 = _mat_mul(lax_matrix(deltas[i], za, zb, mu),
                              lax_matrix(deltas[j], zd, za, mu))
                p2 = _mat_mul(lax_matrix(deltas[j], zc, zb, mu),
                              lax_matrix(deltas[i], zd, zc, mu))
                worst = max([worst] + [abs(complex(p1[r][s] - p2[r][s]))
                                       for r in range(2) for s in range(2)])
            gaps[(v, i, j)] = worst
    return gaps


def test_zero_curvature_closed_form_matches_matrix_products():
    rng = random.Random(5)
    zf = generate_z(isotropic_params(1.5), 4)
    for site in list(zf.values):
        zf.values[site] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    gaps = _explicit_gaps(zf)
    for (v, i, j), gap in gaps.items():
        assert zero_curvature_residual(zf, v, i, j) == pytest.approx(gap, rel=1e-9)
    assert pattern_core.max_zero_curvature_residual(zf) == pytest.approx(
        max(gaps.values()), rel=1e-9)

    params = isotropic_params(1.5, precision="ext", dps=40)
    zf = generate_z(params, 6)
    zf.values[(2, 1, -1)] = zf.values[(2, 1, -1)] + 1e-3
    with params.backend().context():
        worst = max(_explicit_gaps(zf).values())
    assert worst >= 1e-5
    assert pattern_core.max_zero_curvature_residual(zf) == pytest.approx(
        worst, rel=1e-9)


def test_lax_delta_calibration_matches_field_reference():
    params = PatternParams(alphas=(0.7, 1.1, math.pi - 1.8), c=1.2)
    zf = generate_z(params, 5)
    from_field = lax_deltas(params, zf)
    closed = lax_deltas(params)
    for key in (1, 2, 3):
        assert abs(from_field[key] - closed[key]) <= 1e-9
    assert from_field["closure"] <= 1e-9


def test_extended_precision_tightens_residuals():
    params = isotropic_params(1.25, precision="ext", dps=30)
    zf = generate_z(params, 5)
    assert pattern_core.max_face_residual(zf) <= 1e-25


def test_angle_validation():
    with pytest.raises(ValueError):
        PatternParams(alphas=(1.0, 1.0, 1.0), c=1.0)
    with pytest.raises(ValueError):
        PatternParams(alphas=ISO, c=2.5)


def test_lax_matrix_mu_zero_unit_triangular():
    from hexcircle.pattern_core import lax_matrix
    m = lax_matrix(cmath.exp(0.4j), 1 + 2j, -0.5j, 0.0)
    assert m[0][0] == 1 and m[1][1] == 1 and m[1][0] == 0
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assert det == 1


def test_every_face_generate_z_could_solve_from_is_a_stored_face():
    # generate_z solves a vertex from its first available face; the other
    # faces it could have used are stored faces of the same type, so
    # max_face_residual checks their consistency
    zf = generate_z(PatternParams(alphas=(0.7, 1.1, math.pi - 1.8), c=1.2), 7)
    faces = {frozenset(sites): t for t, sites in pattern_core.iter_faces(zf)}
    checked = 0
    for (k, l, m) in zf.values:
        candidates = []
        if k >= 1 and l >= 1:
            candidates.append((1, [(k - 1, l, m), (k - 1, l - 1, m), (k, l - 1, m)]))
        if l >= 1 and m <= -1:
            candidates.append((2, [(k, l - 1, m), (k, l - 1, m + 1), (k, l, m + 1)]))
        if k >= 1 and m <= -1:
            candidates.append((3, [(k, l, m + 1), (k - 1, l, m + 1), (k - 1, l, m)]))
        for t, known in candidates:
            assert faces[frozenset(known + [(k, l, m)])] == t
            checked += 1
    assert checked > len(zf.values)
    assert pattern_core.max_face_residual(zf) <= 1e-12


def test_zero_curvature_residual_runs_at_field_precision():
    # called outside any backend context, the per-face residual still
    # works at the field's 40 digits
    zf = generate_z(isotropic_params(1.5, precision="ext", dps=40), 6)
    assert zero_curvature_residual(zf, (1, 1, -1), 1, 3) <= 1e-30
    assert lax_deltas(zf.params, zf)["closure"] <= 1e-30
