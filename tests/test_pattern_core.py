import cmath
import decimal
import functools
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from hexcircle import cli, geometry, pattern_core, verify
from hexcircle.numerics import (aligned_points, fixed_bits, fixed_real, fixed_unit, parse_angles,
                                quotient, root_quotient, worse, worst_of)
from hexcircle.pattern_core import (MU_MAX, DegenerateQuadError, PatternParams,
                                    UnsupportedExponentError, ZField,
                                    axis_next, face_sites, generate_z,
                                    solve_fourth)
from hexcircle.document import PatternDocument
from hexcircle.verify import max_kite_residual
from oracle import axis_stencil, constraint_residual, cross_ratio, isotropic_params, lax_deltas

ISO = (math.pi / 3,) * 3
ANISO = (math.pi / 4, math.pi / 4, math.pi / 2)
#: spectral values of the reference transport products; the largest modulus
#: is MU_MAX, where the affine gap in mu is largest
MU_SAMPLES = (0.731, -1.2 + 0.4j, 2.3j)


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
    assert max_kite_residual(zf) <= 1e-9


def _kite_reference(zf, dps):
    """max hi/lo - 1 of the mpmath distances from each center to its stored
    axis neighbors, at dps digits, by the rules of max_kite_residual."""
    from hexcircle.lattice import axis_neighbors, parity
    worst = mp.mpf(0)
    with mp.workdps(dps):
        for site, z in zf.values.items():
            d = [abs(mp.mpc(zf.values[nb]) - mp.mpc(z)) for nb in axis_neighbors(site)
                 if nb in zf.values]
            if any(mp.isnan(x) for x in d):
                return mp.nan
            if parity(site) or len(d) < 2 or max(d) == 0:
                continue
            worst = max(worst, mp.inf if min(d) == 0 else max(d) / min(d) - 1)
    return worst


def test_extended_kite_equals_reference_at_twice_the_precision():
    params = isotropic_params(1.5, precision="ext", dps=40)
    zf = generate_z(params, 8)
    # stretch one edge by a relative 1e-20, far below double roundoff
    center, nb = (1, 1, -2), (2, 1, -2)
    with mp.workdps(40):
        zf.values[nb] = zf[center] + (zf[nb] - zf[center]) * (1 + mp.mpf("1e-20"))
    want = _kite_reference(zf, 80)
    assert 1e-21 < want < 1e-19
    assert max_kite_residual(zf) == pytest.approx(float(want), rel=1e-14)
    with mp.workdps(40):
        zf.values[(3, 2, -1)] = mp.mpc(mp.nan, 1)
    assert mp.isnan(_kite_reference(zf, 80)) and math.isnan(max_kite_residual(zf))


# -- the per-face and per-site formulas of the sweeps, as references --------
# They run on complex or mpc values at the current precision; the sweeps
# compute the same quantities on one aligned read of the field.

def face_defect(corners, r):
    """Cross-ratio defect |q - r| = |a e - r b c| / (|b| |c|) of one face,
    and its edges a = zb - za, b = za - zd, c = zb - zc, e = zc - zd; None
    when an edge is zero."""
    za, zb, zc, zd = corners
    a, b, c, e = zb - za, za - zd, zb - zc, zc - zd
    if not (a and b and c and e):
        return None
    return abs(a * e - r * (b * c)) / (abs(b) * abs(c)), (a, b, c, e)


def lax_gap(corners, r, mu_max):
    """Closed-form norm gap of the two transport products around one face,
    with r = delta_i / delta_j for the face spanning (+e_i, -e_j)."""
    face = face_defect(corners, r)
    if face is None:
        raise DegenerateQuadError("degenerate edge in transport matrix")
    defect, (a, b, c, e) = face
    la, lc, le = abs(a), abs(c), abs(e)
    return mu_max * defect * max(la * lc, abs(b) * le, abs(e - a)) / (la * le)


def constraint_defect(values, c, p):
    """|constraint_residual| at p with its three divisions cleared:
    |c z0 d1 d2 d3 - 2 sum_j n_j P_j prod_{i != j} d_i| / (|d1| |d2| |d3|)."""
    k, l, m = p
    z0 = values[p]
    u1, w1 = values[(k + 1, l, m)], values[(k - 1, l, m)]
    u2, w2 = values[(k, l + 1, m)], values[(k, l - 1, m)]
    u3, w3 = values[(k, l, m + 1)], values[(k, l, m - 1)]
    d1, d2, d3 = u1 - w1, u2 - w2, u3 - w3
    if not (d1 and d2 and d3):
        raise DegenerateQuadError(f"collinear stencil degenerate at {p}")
    num = ((c * z0 * d1 - (u1 - z0) * (z0 - w1) * (2 * k)) * (d2 * d3)
           - ((u2 - z0) * (z0 - w2) * (2 * l) * d3
              + (u3 - z0) * (z0 - w3) * (2 * m) * d2) * d1)
    return abs(num) / (abs(d1) * abs(d2) * abs(d3))


def _face_field(zf, sites):
    """The field restricted to the corners of one face, whose only face it
    is: a sweep over it gives that face's term."""
    return ZField(params=zf.params, values={s: zf.values[s] for s in sites},
                  generation=zf.generation)


def _per_face(check, zf):
    return {sites: check(_face_field(zf, sites))
            for _, sites in pattern_core.iter_faces(zf)}


def _per_site(zf, monkeypatch):
    """max_constraint_residual's term at each interior site."""
    out = {}
    for p in list(pattern_core.interior_sites(zf)):
        monkeypatch.setattr(pattern_core, "interior_sites", lambda _, p=p: iter([p]))
        out[p] = pattern_core.max_constraint_residual(zf)
    monkeypatch.undo()
    return out


def zero_curvature_residual(zf, base, i, j):
    """Norm gap of the two transport products around the face at base
    spanning (+e_i, -e_j), maximized over |mu| <= MU_MAX: the per-face term
    of max_zero_curvature_residual."""
    return pattern_core.max_zero_curvature_residual(
        _face_field(zf, face_sites(base, i, j)))


def test_zero_curvature_on_generated_field():
    zf = generate_z(PatternParams(alphas=ANISO, c=0.8), 6)
    assert pattern_core.max_zero_curvature_residual(zf) <= 1e-9


def test_zero_curvature_negative_control():
    zf = generate_z(isotropic_params(1.5), 6)
    zf.values[(2, 1, -1)] = zf.values[(2, 1, -1)] + 1e-3
    res = zero_curvature_residual(zf, (1, 1, -1), 1, 3)
    assert res >= 1e-5


def test_zero_curvature_mu_zero_any_values():
    # distinct Gaussian integers keep every sum of edges exact
    rng = random.Random(3)
    zf = generate_z(isotropic_params(1.5), 3)
    grid = [complex(x, y) for x in range(-9, 10) for y in range(-9, 10)]
    zf.values = dict(zip(zf.values, rng.sample(grid, len(zf.values))))
    gaps = _explicit_gaps(zf, mus=(0.0,))
    assert gaps and all(gap == 0.0 for gap in gaps.values())


def lax_matrix(delta, z_out, z_in, mu):
    """Edge transport matrix evaluated at the spectral value mu.

    Unit lower/upper triangular with determinant 1 at mu = 0.
    """
    d = z_in - z_out
    if d == 0:
        raise DegenerateQuadError("degenerate edge in transport matrix")
    return ((1, d), (mu * delta / d, 1))


def _mat_mul(p, q):
    return (
        (p[0][0] * q[0][0] + p[0][1] * q[1][0],
         p[0][0] * q[0][1] + p[0][1] * q[1][1]),
        (p[1][0] * q[0][0] + p[1][1] * q[1][0],
         p[1][0] * q[0][1] + p[1][1] * q[1][1]),
    )


def _explicit_gaps(zf, mus=MU_SAMPLES):
    """Per face, the largest entrywise gap of the two multiplied-out
    transport products over the spectral values mus."""
    deltas = lax_deltas(zf.params)
    gaps = {}
    for v in zf.values:
        for (i, j) in ((2, 1), (3, 2), (1, 3)):
            sites = face_sites(v, i, j)
            if not all(s in zf.values for s in sites):
                continue
            za, zb, zc, zd = (zf[s] for s in sites)
            worst = 0.0
            for mu in mus:
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


def _field_deltas(zf):
    """Edge constants read off the inverse cross-ratio of the first stored
    face of each type, with delta_1 = 1, and the gap by which the third
    ratio fails to close up."""
    ratios = {}
    for t, sites in pattern_core.iter_faces(zf):
        if t not in ratios:
            f1, f2, f3, f4 = (zf[s] for s in sites)
            ratios[t] = ((f1 - f4) * (f2 - f3)) / ((f2 - f1) * (f3 - f4))
    d2, d3 = 1 / ratios[1], ratios[3]
    return {1: 1, 2: d2, 3: d3}, abs(d2 / d3 - ratios[2])


def test_lax_delta_calibration_matches_field_reference():
    for params, n, tol in (
            (PatternParams(alphas=(0.7, 1.1, math.pi - 1.8), c=1.2), 5, 1e-9),
            (isotropic_params(1.5, precision="ext", dps=40), 6, 1e-30)):
        zf = generate_z(params, n)
        closed = lax_deltas(params)
        with params.backend().context():
            from_field, closure = _field_deltas(zf)
            for key in (1, 2, 3):
                assert abs(from_field[key] - closed[key]) <= tol
            assert closure <= tol


@pytest.mark.parametrize("precision", ["double", "ext"])
def test_face_pass_computes_the_face_targets_once(monkeypatch, precision):
    # float angles, so the laxzc ratio of type 2 carries the angle-sum
    # calibration of lax_deltas rather than the type-2 target
    params = PatternParams(alphas=(0.7, 1.1, math.pi - 1.8), c=1.2,
                           precision=precision, dps=40)
    zf = generate_z(params, 5)
    calls, targets = [], pattern_core.face_targets
    monkeypatch.setattr(pattern_core, "face_targets",
                        lambda *args: calls.append(1) or targets(*args))
    snap = pattern_core.FieldSnapshot(zf, lax=True)
    assert pattern_core.max_face_residual(snap) <= 1e-9
    assert pattern_core.max_zero_curvature_residual(snap) <= 1e-9
    assert len(calls) == 1


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
    assert pattern_core.max_zero_curvature_residual(zf) <= 1e-30


def _corrupted_ext_field():
    params = isotropic_params(1.5, precision="ext", dps=40)
    zf = generate_z(params, 6)
    with params.backend().context():
        zf.values[(2, 1, -1)] += params.backend().real("1e-3")
    return zf


def _random_double_field(n=4):
    rng = random.Random(11)
    zf = generate_z(isotropic_params(1.5), n)
    for site in list(zf.values):
        zf.values[site] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return zf


def test_face_defect_matches_cross_ratio_reference():
    # per face, the sweep's |a e - r b c| / (|b||c|) is |cross_ratio - r|;
    # faces away from the corrupted vertex sit at the 40-digit roundoff level
    for zf in (_random_double_field(), _corrupted_ext_field()):
        got = _per_face(pattern_core.max_face_residual, zf)
        bk = zf.params.backend()
        with bk.context():
            targets = pattern_core.face_targets(zf.params)
            ref = {sites: float(abs(cross_ratio(*(zf[s] for s in sites)) - targets[t]))
                   for t, sites in pattern_core.iter_faces(zf)}
        for sites, want in ref.items():
            assert got[sites] == pytest.approx(want, rel=1e-9, abs=1e-36)
        assert max(ref.values()) >= 1e-5
        assert pattern_core.max_face_residual(zf) == pytest.approx(
            max(ref.values()), rel=1e-9)


def test_face_defect_skips_collapsed_faces():
    for precision in ("double", "ext"):
        params = isotropic_params(1.5, precision=precision, dps=40)
        with params.backend().context():
            one = params.backend().exp_i(0)
            corners = [0 * one, 1 * one, 1 * one, 1j * one]
        assert face_defect(corners, 1) is None
        # the one face of this field has a zero edge
        zf = ZField(params=params, generation=2,
                    values=dict(zip(face_sites((0, 0, 0), 2, 1), corners)))
        assert [t for t, _ in pattern_core.iter_faces(zf)] == [1]
        assert pattern_core.max_face_residual(zf) == 0.0
        with pytest.raises(DegenerateQuadError):
            pattern_core.max_zero_curvature_residual(zf)
    zf = generate_z(isotropic_params(1.5), 4)
    zf.values[(2, 0, 0)] = zf.values[(1, 0, 0)]
    assert pattern_core.max_face_residual(zf) > 1e-3


def test_zero_curvature_matches_matrix_products_per_face_ext():
    # shrunk by 1e-3, the |e - a| / (|a| |e|) term of the shape factor
    # dominates on 102 of the 105 faces (on none at scale 1)
    for scale in ("1", "1e-3"):
        zf = _corrupted_ext_field()
        with zf.params.backend().context():
            for site in zf.values:
                zf.values[site] *= mp.mpf(scale)
            gaps = _explicit_gaps(zf)
        for (v, i, j), gap in gaps.items():
            assert zero_curvature_residual(zf, v, i, j) == pytest.approx(
                gap, rel=1e-9, abs=1e-36)
        assert max(gaps.values()) >= 1e-5


def test_params_reject_non_finite_angles_and_bad_precision():
    for alphas in ((1.0, 1.0, math.nan), (math.inf, 1.0, 1.0)):
        with pytest.raises(ValueError):
            PatternParams(alphas=alphas, c=1.0)
    for dps in (0, -3):
        with pytest.raises(ValueError):
            isotropic_params(1.5, precision="ext", dps=dps)
    with pytest.raises(ValueError):
        isotropic_params(1.5, precision="quad")


def test_kite_residual_sees_defects_below_double_roundoff():
    from hexcircle import verify
    params = isotropic_params(1.5, precision="ext", dps=40)
    zf = generate_z(params, 6)
    assert verify.max_kite_residual(zf) <= 1e-35
    center, nb = (2, 1, -1), (3, 1, -1)
    with params.backend().context():
        stretch = 1 + params.backend().real("1e-25")
        zf.values[nb] = zf.values[center] + (zf.values[nb] - zf.values[center]) * stretch
    assert 1e-26 <= verify.max_kite_residual(zf) <= 1e-24
    # radii are the working-precision means of the distances: their
    # relations hold far below double roundoff, up to the stretched edge
    import mpmath as mp
    from hexcircle.radius_system import RadiusField, extract_radii, max_equation_residual
    radii = extract_radii(zf)
    assert all(isinstance(r, mp.mpf) for r in radii.values())
    assert max_equation_residual(RadiusField(params=params, values=radii,
                                             generation=6)) <= 1e-25


def test_snapshot_kernels_match_mpmath_at_twice_the_precision(monkeypatch):
    # the crossratio, laxzc and constraint sweeps, per face and per site,
    # against their formulas in mpmath at twice the working digits (32 for
    # a double field), on a field with a corrupted vertex (ext) or on
    # random points (double, where no face sits at roundoff level)
    for precision in ("double", "ext"):
        _check_kernels_against_mpmath(precision, monkeypatch)


def _check_kernels_against_mpmath(precision, monkeypatch):
    zf = _corrupted_ext_field() if precision == "ext" else _random_double_field(6)
    bk = zf.params.backend()
    dps = 2 * (zf.params.dps if precision == "ext" else 16)
    with bk.context():
        targets = pattern_core.face_targets(zf.params)
        deltas = lax_deltas(zf.params)
        ratios = {t: deltas[i] / deltas[j]
                  for t, (i, j) in pattern_core.FACE_SPAN.items()}
    mu_max = max(abs(complex(mu)) for mu in MU_SAMPLES)
    assert mu_max == MU_MAX
    faces = _per_face(pattern_core.max_face_residual, zf)
    gaps = _per_face(pattern_core.max_zero_curvature_residual, zf)
    sites = _per_site(zf, monkeypatch)
    face_refs, gap_refs, site_refs = [], [], []
    with mp.workdps(dps):
        values = {s: mp.mpc(z) for s, z in zf.values.items()}
        for t, corners in pattern_core.iter_faces(zf):
            points = [values[s] for s in corners]
            ref = float(face_defect(points, mp.mpc(targets[t]))[0])
            assert faces[corners] == pytest.approx(ref, rel=1e-9)
            face_refs.append(ref)
            ref = float(lax_gap(points, mp.mpc(ratios[t]), mu_max))
            assert gaps[corners] == pytest.approx(ref, rel=1e-9)
            gap_refs.append(ref)
        for p, got in sites.items():
            ref = float(constraint_defect(values, mp.mpf(zf.params.c), p))
            assert got == pytest.approx(ref, rel=1e-9)
            site_refs.append(ref)
    assert len(face_refs) >= 100 and len(site_refs) >= 10
    refs = (face_refs, gap_refs, site_refs)
    if precision == "ext":
        # both the corrupted faces and the ones at roundoff level were compared
        for r in refs:
            assert max(r) >= 1e-5 and min(r) <= 1e-30
    for check, r in zip((pattern_core.max_face_residual,
                         pattern_core.max_zero_curvature_residual,
                         pattern_core.max_constraint_residual), refs):
        assert check(zf) == pytest.approx(max(r), rel=1e-9)


def test_constraint_defect_stencil_errors():
    zf = generate_z(isotropic_params(1.5, precision="ext", dps=40), 6)
    with zf.params.backend().context():
        assert constraint_defect(zf.values, zf.params.c, (1, 1, -1)) <= 1e-30
    moved = zf.values.pop((2, 1, -1))
    with pytest.raises(pattern_core.IncompleteStencilError):
        pattern_core.max_constraint_residual(zf)
    zf.values[(2, 1, -1)] = zf.values[(0, 1, -1)]
    with pytest.raises(DegenerateQuadError):
        pattern_core.max_constraint_residual(zf)
    with pytest.raises(DegenerateQuadError):
        constraint_defect(zf.values, zf.params.c, (1, 1, -1))
    zf.values[(2, 1, -1)] = moved
    assert pattern_core.max_constraint_residual(zf) <= 1e-27


def test_kite_residual_exact_at_80_digits():
    from hexcircle import verify
    params = isotropic_params(1.5, precision="ext", dps=80)
    zf = generate_z(params, 5)
    assert verify.max_kite_residual(zf) <= 1e-75
    center, nb = (2, 1, -1), (3, 1, -1)
    with params.backend().context():
        stretch = 1 + params.backend().real("1e-60")
        zf.values[nb] = zf.values[center] + (zf.values[nb] - zf.values[center]) * stretch
    assert 1e-61 <= verify.max_kite_residual(zf) <= 1e-59


@pytest.mark.parametrize("precision", ["double", "ext"])
def test_kite_residual_is_max_over_min_minus_one(precision):
    # one center with neighbor distances 1.5 (the first), 1 and 2
    from hexcircle import verify
    from hexcircle.pattern_core import ZField
    params = isotropic_params(1.5, precision=precision, dps=40)
    bk = params.backend()
    with bk.context():
        one = bk.exp_i(0)
        values = {(0, 0, 0): 0 * one, (1, 0, 0): 1.5 * one, (0, 1, 0): 1j * one,
                  (0, 0, -1): -2 * one}
    zf = ZField(params=params, values=values, generation=1)
    assert verify.max_kite_residual(zf) == pytest.approx(1.0, rel=1e-15)
    # a NaN neighbor that is neither the first nor an extreme still counts
    with bk.context():
        values[(0, 1, 0)] = math.nan * one
    assert math.isnan(verify.max_kite_residual(zf))


# -- the exhaustive sweeps, the reference of the screened ones -----------------
# They round every face and every site; the screened sweeps must give their
# worsts bit for bit.

def exhaustive_face_pass(zf, lax):
    """Worst crossratio defect and, with lax, worst laxzc gap (None if a face
    has a zero edge), one rounded quotient per ratio at every face."""
    read = pattern_core.field_points(zf)
    if read is None:
        return math.nan, math.nan
    pts, one = read
    bk = zf.params.backend()
    with bk.context():
        targets = pattern_core.face_targets(zf.params)
        r, r_one = aligned_points(bk, targets)
        w, w_one = {}, 1
        if lax:
            d = pattern_core._deltas(targets, bk)
            w, w_one = aligned_points(bk, {t: d[i] / d[j]
                                           for t, (i, j) in pattern_core.FACE_SPAN.items()})
    scale, w_scale, one_sq = r_one * r_one, w_one * w_one, one * one
    worst, gap, degenerate = 0.0, 0.0, False
    for t, _, ((xa, ya), (xb, yb), (xc, yc), (xd, yd)) in pattern_core._faces(pts):
        ax, ay, bx, by = xb - xa, yb - ya, xa - xd, ya - yd
        cx, cy, ex, ey = xb - xc, yb - yc, xc - xd, yc - yd
        if not ((ax or ay) and (bx or by) and (cx or cy) and (ex or ey)):
            degenerate = True
            continue
        aex, aey = ax * ex - ay * ey, ax * ey + ay * ex
        px, py = bx * cx - by * cy, bx * cy + by * cx
        bsq, csq = bx * bx + by * by, cx * cx + cy * cy
        rx, ry = r[t]
        nx, ny = r_one * aex - (rx * px - ry * py), r_one * aey - (rx * py + ry * px)
        worst = worse(worst, root_quotient(nx * nx + ny * ny, scale * bsq * csq))
        if lax:
            rx, ry = w[t]
            gx, gy = w_one * aex - (rx * px - ry * py), w_one * aey - (rx * py + ry * px)
            asq, esq = ax * ax + ay * ay, ex * ex + ey * ey
            shape = max(quotient(csq, esq), quotient(bsq, asq),
                        quotient(one_sq * ((ex - ax) ** 2 + (ey - ay) ** 2), asq * esq))
            d = MU_MAX * root_quotient(gx * gx + gy * gy, w_scale * bsq * csq)
            gap = worse(gap, d * math.sqrt(shape))
    return worst, None if degenerate else gap


def exhaustive_constraint(zf):
    """max_constraint_residual with one rounded quotient at every site."""
    read = pattern_core.field_points(zf)
    if read is None:
        return math.nan
    pts, one = read
    k, k_one = aligned_points(zf.params.backend(), {0: zf.params.c})
    cc, scale = k[0][0], k_one * k_one * one * one
    def mul(p, q):
        (x, y), (u, v) = p, q
        return x * u - y * v, x * v + y * u
    out = []
    for p in pattern_core.interior_sites(zf):
        try:
            ends = [(2 * n * k_one, pts[up], pts[dn])
                    for n, up, dn in axis_stencil(p)]
        except KeyError as exc:
            raise pattern_core.IncompleteStencilError(exc.args[0]) from None
        if any(u == w for _, u, w in ends):
            raise DegenerateQuadError(f"collinear stencil degenerate at {p}")
        x0, y0 = pts[p]
        d1, d2, d3 = d = [(ux - wx, uy - wy) for _, (ux, uy), (wx, wy) in ends]
        P = [mul((ux - x0, uy - y0), (x0 - wx, y0 - wy)) for _, (ux, uy), (wx, wy) in ends]
        q1, q2, q3 = [(f * px, f * py) for (f, _, _), (px, py) in zip(ends, P)]
        sx, sy = mul((cc * x0, cc * y0), d1)
        sx, sy = mul((sx - q1[0], sy - q1[1]), mul(d2, d3))
        t2, t3 = mul(q2, d3), mul(q3, d2)
        tx, ty = mul((t2[0] + t3[0], t2[1] + t3[1]), d1)
        dsq = math.prod(dx * dx + dy * dy for dx, dy in d)
        out.append(root_quotient((sx - tx) ** 2 + (sy - ty) ** 2, scale * dsq))
    return worst_of(out)


def _outcome(sweep, *args):
    """repr of what sweep(*args) returns (so NaN equals NaN), or the type
    and message of the error it raises."""
    try:
        return repr(sweep(*args))
    except (ArithmeticError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _dragged(dps, by):
    """The c = 1.5 iso field at dps, n = 10, with one vertex moved by the
    relative amount by: the vertex whose first face comes last in _faces
    order."""
    zf = generate_z(isotropic_params(1.5, precision="ext", dps=dps), 10)
    first = {}
    for i, (_, sites) in enumerate(pattern_core.iter_faces(zf)):
        for s in sites:
            first.setdefault(s, i)
    site = max(first, key=first.get)
    with mp.workdps(dps):
        zf.values[site] *= 1 + mp.mpf(by)
    return zf


def _screen_fields():
    from test_geometry import _turned_seed
    iso40 = generate_z(isotropic_params(1.5, precision="ext", dps=40), 10)
    zero_edge = generate_z(isotropic_params(1.5, precision="ext", dps=40), 6)
    zero_edge.values[(2, 1, -1)] = zero_edge.values[(1, 1, -1)]
    nan = generate_z(isotropic_params(1.5, precision="ext", dps=40), 6)
    with mp.workdps(40):
        nan.values[(3, 2, -1)] = mp.mpc(mp.nan, 1)
    fields = {"iso40": iso40,
              "iso80": generate_z(isotropic_params(0.7, precision="ext", dps=80), 10),
              "dragged-1e-20": _dragged(40, "1e-20"),
              "dragged-3e-39": _dragged(40, "3e-39"),
              "dragged-80": _dragged(80, "1e-70"),
              "seed-turn-1e-12": _turned_seed("1e-12"),
              "zero-edge": zero_edge,
              "dps400": generate_z(isotropic_params(1.5, precision="ext", dps=400), 4),
              "dps200": _dragged(200, "1e-100"),  # its estimates overflow a float
              "iso120": generate_z(isotropic_params(1.5, precision="ext", dps=120), 10),
              "dragged-120": _dragged(120, "1e-60"),
              "iso200": generate_z(isotropic_params(1.5, precision="ext", dps=200), 10),
              # its unit one, 2**1034, passes the float range
              "iso305": generate_z(isotropic_params(1.5, precision="ext", dps=305), 10),
              "nan": nan,
              "double": generate_z(PatternParams(alphas=ANISO, c=0.8), 8),
              "double-random": _random_double_field(6)}
    for dps in (40, 80):
        fields[f"pi-fracs-{dps}"] = generate_z(PatternParams(
            alphas=ANISO, c=1.2, precision="ext", dps=dps,
            alpha_pi_fracs=(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))), 10)
        fields[f"float-angles-{dps}"] = generate_z(PatternParams(
            alphas=(1.0, 1.2, math.pi - 2.2), c=1.5, precision="ext", dps=dps), 10)
    for dps in (16, 40, 120):  # laxzc targets 1e-13 off the crossratio ones
        fields[f"angle-sum-defect-{dps}"] = generate_z(PatternParams(
            alphas=(1.0, 1.2, math.pi - 2.2 + 1e-13), c=1.5, precision="ext", dps=dps), 10)
    return {**fields, **_double_screen_fields()}


def _double_image(zf, k):
    """zf with every vertex times 2**k, exactly."""
    return ZField(params=zf.params, generation=zf.generation, values={
        s: complex(math.ldexp(z.real, k), math.ldexp(z.imag, k)) for s, z in zf.values.items()})


def _double_screen_fields():
    iso = isotropic_params(1.5)
    fields = {"double-sg": geometry.sg_slice(generate_z(iso, 12)),
              "double-angle-sum-defect": generate_z(PatternParams(
                  alphas=(1.0, 1.2, math.pi - 2.2 + 1e-13), c=1.5), 10),
              "double-seed-turn-1e-12": generate_z(iso, 12, initial_override={
                  (0, 1, 0): cmath.exp(1j * (math.pi + 1e-12))})}
    for c in (0.5, 1.9):
        for a in SWEEP_ALPHAS:
            alphas, fracs = parse_angles(a)
            fields[f"double-c{c}-{a}"] = generate_z(
                PatternParams(alphas=alphas, c=c, alpha_pi_fracs=fracs), 12)
    dragged = generate_z(iso, 10)
    dragged.values[(5, 3, -2)] *= 1 + 1e-9
    zero_edge, shrunk = generate_z(iso, 6), generate_z(iso, 10)
    zero_edge.values[(2, 1, -1)] = zero_edge.values[(1, 1, -1)]
    shrunk.values[(1, 0, 0)] *= 2.0 ** -600  # its edge to z(0, 0, 0) = 0
    fields.update({"double-dragged-1e-9": dragged, "double-zero-edge": zero_edge,
                   "double-shrunk-edge": shrunk})
    for k in (-400, 400):
        fields[f"double-2**{k}"] = _double_image(generate_z(iso, 12), k)
    return fields


def test_screened_sweeps_equal_the_exhaustive_ones_bit_for_bit():
    fields = _screen_fields()
    for name, zf in fields.items():
        for lax in (False, True):
            assert (_outcome(pattern_core._face_pass, zf, lax)
                    == _outcome(exhaustive_face_pass, zf, lax)), name
        assert (_outcome(pattern_core.max_constraint_residual, zf)
                == _outcome(exhaustive_constraint, zf)), name
        if name == "double-shrunk-edge":  # its rounding divides by a square that underflows
            continue
        ref = exhaustive_face_pass(zf, False), exhaustive_face_pass(zf, True)
        assert _outcome(pattern_core.max_face_residual, zf) == repr(ref[0][0]), name
        assert _outcome(pattern_core.max_zero_curvature_residual, zf) == (
            "DegenerateQuadError: degenerate edge in transport matrix"
            if ref[1][1] is None else repr(ref[1][1])), name
    # the cases do what they are named for
    worst_at = [exhaustive_face_pass(_face_field(fields["dragged-1e-20"], sites), False)[0]
                for _, sites in pattern_core.iter_faces(fields["dragged-1e-20"])]
    assert worst_at.index(max(worst_at)) >= 0.9 * len(worst_at)
    assert max(worst_at) >= 1e-21
    assert 1e-40 < exhaustive_face_pass(fields["dragged-3e-39"], False)[0] < 1e-37
    assert exhaustive_face_pass(fields["zero-edge"], True)[1] is None
    with pytest.raises(OverflowError):
        float(pattern_core.field_points(fields["dps400"])[1])
    assert exhaustive_face_pass(fields["dps400"], False)[0] <= 1e-300
    assert 1e-102 < exhaustive_face_pass(fields["dps200"], False)[0] < 1e-98
    assert pattern_core.field_points(fields["nan"]) is None
    assert math.isnan(exhaustive_constraint(fields["nan"]))
    assert exhaustive_face_pass(fields["double-zero-edge"], True)[1] is None
    assert "ZeroDivisionError" in _outcome(exhaustive_face_pass, fields["double-shrunk-edge"], True)
    assert 1e-13 < exhaustive_face_pass(fields["double-angle-sum-defect"], True)[1] < 1e-10
    # a double image is read as the field it scales, to the bit
    plain = exhaustive_face_pass(generate_z(isotropic_params(1.5), 12), True)
    for k in (-400, 400):
        assert exhaustive_face_pass(fields[f"double-2**{k}"], False)[0] == plain[0]


def test_double_slack_bound_on_random_faces():
    # faces near each target, in a read below 1: |g/w_one - n/r_one| /
    # (|b| |c|), from the float n and g, stays within delta_t + 4 sqrt(2) u
    # + u (N + G), u = 2**-53, taken exactly (decimal at 60 digits); the
    # slack DOUBLE_SLACK = 8 u covers the middle term
    params = PatternParams(alphas=(1.0, 1.2, math.pi - 2.2 + 1e-13), c=1.5)
    bk, rng = params.backend(), random.Random(5)
    targets = pattern_core.face_targets(params)
    d = pattern_core._deltas(targets, bk)
    r, r_one = aligned_points(bk, targets)
    w, w_one = aligned_points(bk, {t: d[i] / d[j]
                                   for t, (i, j) in pattern_core.FACE_SPAN.items()})
    D = decimal.Decimal

    def mod(x, y):
        return (D(x) * D(x) + D(y) * D(y)).sqrt()
    worst, checked = 0, 0
    with decimal.localcontext(decimal.Context(prec=60)):
        u = D(2) ** -53
        for t in (1, 2, 3):
            q = targets[t]
            (rx, ry), (wx, wy) = r[t], w[t]
            delta = mod(D(wx) / D(w_one) - D(rx) / D(r_one), D(wy) / D(w_one) - D(ry) / D(r_one))
            for _ in range(10 ** 4):
                b, e = (cmath.rect(rng.uniform(0.05, 0.4), rng.uniform(0, 2 * math.pi))
                        for _ in range(2))
                a = q * b * (b - e) / (e - q * b) * (
                    1 + complex(rng.gauss(0, 1e-9), rng.gauss(0, 1e-9)))
                if max(abs(b), abs(a + b), abs(e)) >= 1:  # za, zb, zc; zd = 0
                    continue
                c = (a + b) - e
                (ax, ay), (bx, by), (cx, cy), (ex, ey) = ((z.real, z.imag) for z in (a, b, c, e))
                aex, aey = ax * ex - ay * ey, ax * ey + ay * ex
                px, py = bx * cx - by * cy, bx * cy + by * cx
                nx, ny = r_one * aex - (rx * px - ry * py), r_one * aey - (rx * py + ry * px)
                gx, gy = w_one * aex - (wx * px - wy * py), w_one * aey - (wx * py + wy * px)
                bc = mod(bx, by) * mod(cx, cy)
                n, g = mod(nx, ny) / D(r_one) / bc, mod(gx, gy) / D(w_one) / bc
                worst = max(worst, (abs(g - n) - delta - u * (n + g)) / u)
                checked += 1
        assert checked >= 0.9 * 3 * 10 ** 4
        assert 0 < worst <= 4 * D(2).sqrt()  # the rounding of n and g shows
    assert pattern_core.DOUBLE_SLACK == 8 * 2.0 ** -53 > 4 * math.sqrt(2) * 2.0 ** -53


SWEEP_ALPHAS = ("iso", "1/4pi,1/4pi,1/2pi", "1/6pi,1/3pi,1/2pi")


@functools.cache
def _sweep_documents():
    """The 24 double documents of the benchmark's sweep grid, n = 12."""
    docs = []
    for c in (0.5, 1.0, 1.5, 1.9):
        for a in SWEEP_ALPHAS:
            alphas, fracs = parse_angles(a)
            params = PatternParams(alphas=alphas, c=c, alpha_pi_fracs=fracs)
            docs += [cli._build_document(params, 12, mode, "crossratio") for mode in ("hex", "sg")]
    return docs


def test_double_sweeps_round_few_faces_and_sites(monkeypatch):
    # the screened sweeps round at most 2% of the faces and sites of a
    # double read: each rounding function, and the quotients under them
    calls = dict.fromkeys(("_face_defect", "_lax_gap", "_site_defect", "quotient"), 0)
    for name in calls:
        def counted(*args, fn=getattr(pattern_core, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(pattern_core, name, counted)
    faces = sites = 0
    for doc in _sweep_documents():
        verify.run_checks(doc, ["crossratio", "constraint", "laxzc"] if doc.mode == "hex"
                          else ["crossratio", "laxzc"])
        zf = doc.zfield()
        faces += sum(1 for _ in pattern_core.iter_faces(zf))
        sites += sum(1 for _ in pattern_core.interior_sites(zf)) if doc.mode == "hex" else 0
    assert faces > 10 ** 4 and sites > 10 ** 3
    assert calls["_face_defect"] <= 0.02 * faces and calls["_lax_gap"] <= 0.02 * faces
    assert calls["quotient"] <= 3 * 0.02 * faces and calls["_site_defect"] <= 0.02 * sites
    assert calls["_face_defect"] >= 24  # each sweep rounds its worst


def test_double_images_read_as_the_field_they_scale():
    # the exact 2**k images of a double document: crossratio and kite to the
    # bit, constraint times 2**k, laxzc (its shape weight has a 1/length
    # term) within 2% of the exact read of the same floats, and no check
    # raises where the exact read does not
    alphas, fracs = parse_angles("iso")
    doc = cli._build_document(PatternParams(alphas=alphas, c=1.5, alpha_pi_fracs=fracs),
                              12, "hex", "crossratio")
    base = verify.run_checks(doc)
    ext = PatternParams(alphas=alphas, c=1.5, precision="ext", dps=40, alpha_pi_fracs=fracs)
    for k in (-250, 250, -400, 400):
        image = PatternDocument(params=doc.params, n_max=doc.n_max, mode=doc.mode,
                                route=doc.route, vertices=_double_image(doc.zfield(), k).values,
                                radii={s: math.ldexp(v, k) for s, v in doc.radii.items()})
        got = verify.run_checks(image)
        assert got.notes == [], k
        for name in ("crossratio", "kite", "immersion", "radius_eq"):
            assert got.residuals[name] == base.residuals[name], (k, name)
        assert got.residuals["constraint"] == math.ldexp(base.residuals["constraint"], k)
        image.params = ext
        exact = verify.run_checks(image, ["laxzc"]).residuals["laxzc"]
        assert got.residuals["laxzc"] == pytest.approx(exact, rel=0.02), k


def _mp_residuals(zf, digits):
    """crossratio, laxzc and constraint of zf by their formulas in mpmath at
    digits, from the stored vertices and the targets read at the field's
    dps: |a e - r b c| / (|b| |c|) per face, MU_MAX |a e - w b c| / (|b| |c|)
    times its shape weight, |constraint_residual| per interior site."""
    bk = zf.params.backend()
    with bk.context():
        targets = pattern_core.face_targets(zf.params)
        d = pattern_core._deltas(targets, bk)
        w = {t: d[i] / d[j] for t, (i, j) in pattern_core.FACE_SPAN.items()}
    cr, lax = [], []
    with mp.workdps(digits):
        for t, sites in pattern_core.iter_faces(zf):
            za, zb, zc, zd = (zf.values[s] for s in sites)
            a, b, c, e = zb - za, za - zd, zb - zc, zc - zd
            cr.append(abs(a * e - targets[t] * b * c) / (abs(b) * abs(c)))
            shape = max(abs(c) / abs(e), abs(b) / abs(a), abs(e - a) / (abs(a) * abs(e)))
            lax.append(MU_MAX * abs(a * e - w[t] * b * c) / (abs(b) * abs(c)) * shape)
        sites = [abs(constraint_residual(zf, p)) for p in pattern_core.interior_sites(zf)]
        return max(cr), max(lax), max(sites)


def test_residuals_keep_their_value_below_the_square_root_of_the_double_range():
    # at dps 200 every residual is near 1e-200: its square, the quotient each
    # check rounds, lies below the doubles, but the residual does not; at
    # dps 305 the residuals near 1e-305 are read over a unit past the floats
    for dps, digits, low, high in ((200, 450, 1e-215, 1e-190), (305, 700, 1e-320, 1e-295)):
        zf = generate_z(isotropic_params(1.5, precision="ext", dps=dps), 10)
        got = (pattern_core.max_face_residual(zf), pattern_core.max_zero_curvature_residual(zf),
               pattern_core.max_constraint_residual(zf))
        want = _mp_residuals(zf, digits)
        for name, x, ref in zip(("crossratio", "laxzc", "constraint"), got, want):
            assert low < ref < high, (dps, name)
            assert abs(x / ref - 1) <= 1e-12, (dps, name, x, ref)


def _screened_calls(monkeypatch, zf):
    """Per sweep of zf: (kernel, exact evaluations, faces or sites, calls of
    _big_estimate), and the constraint sweep's result."""
    faces = sum(1 for _ in pattern_core.iter_faces(zf))
    sites = sum(1 for _ in pattern_core.interior_sites(zf))
    calls, out = {}, []
    for name in ("_face_defect", "_lax_gap", "_site_defect", "_big_estimate"):
        def counted(*args, kernel=getattr(pattern_core, name), name=name):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(pattern_core, name, counted)
    for sweep, name, total in ((pattern_core.max_face_residual, "_face_defect", faces),
                               (pattern_core.max_zero_curvature_residual, "_lax_gap", faces),
                               (pattern_core.max_constraint_residual, "_site_defect", sites)):
        calls.update(_face_defect=0, _lax_gap=0, _site_defect=0, _big_estimate=0)
        got = sweep(zf)
        out.append((name, calls[name], total, calls["_big_estimate"]))
    monkeypatch.undo()
    return out, got


def test_screened_sweeps_round_few_residuals(monkeypatch):
    # the exact quotients are the cost the screen saves: on a dps-40 field in
    # the order generate_z stores it, at most 2% of the faces and of the
    # interior sites take them, at least one each
    zf = generate_z(isotropic_params(1.5, precision="ext", dps=40), 12)
    calls, got = _screened_calls(monkeypatch, zf)
    assert [total for _, _, total, _ in calls] == [858, 858, 165]
    for name, exact, total, _ in calls:
        assert 1 <= exact <= 0.02 * total, (name, calls)
    assert got == exhaustive_constraint(zf)


@pytest.mark.parametrize("order", ["generated", "sorted"])
def test_laxzc_forms_few_numerators(monkeypatch, order):
    # the laxzc numerator g is formed only at the faces whose bounds from
    # the crossratio estimate leave them a chance to be the worst: at most
    # 1% of the faces, in the order generate_z stores them and in the
    # sorted order of a document
    zf = generate_z(isotropic_params(1.5, precision="ext", dps=40), 12)
    if order == "sorted":
        zf = ZField(params=zf.params, generation=zf.generation,
                    values=dict(sorted(zf.values.items())))
    formed, estimate = [], pattern_core._lax_estimate
    monkeypatch.setattr(pattern_core, "_lax_estimate",
                        lambda *args: formed.append(args) or estimate(*args))
    assert pattern_core.max_zero_curvature_residual(zf) == exhaustive_face_pass(zf, True)[1]
    assert sum(1 for _ in pattern_core.iter_faces(zf)) == 858
    assert 1 <= len(formed) <= 0.01 * 858


@pytest.mark.parametrize("dps", [120, 200])
def test_screens_hold_where_the_numerators_overflow_a_float(monkeypatch, dps):
    # the constraint numerators pass the float range from dps 90, the face
    # numerators from dps 150: their estimates, from the integers' top bits,
    # still screen all but at most 2% of the faces and interior sites
    zf = generate_z(isotropic_params(1.5, precision="ext", dps=dps), 10)
    calls, got = _screened_calls(monkeypatch, zf)
    assert [total for _, _, total, _ in calls] == [495, 495, 84]
    for name, exact, total, _ in calls:
        assert 1 <= exact <= 0.02 * total, (name, calls)
    assert [big > 0 for *_, big in calls] == [dps > 150] * 2 + [True]
    assert got == exhaustive_constraint(zf)


def test_big_estimate_is_the_quotient_of_moduli_within_the_screen_bound():
    # an estimate from the top bits meets the float estimates of the same
    # sweep, so it must keep their scale: within 2**-47 of |num| / unit /
    # prod |d|, for integers inside and past the float range
    rng = random.Random(26)

    def part(bits):
        return rng.choice((-1, 1)) * rng.randrange(2 ** bits)
    checked = past = 0
    for _ in range(2000):
        num, *dens = [(part(rng.randrange(1, 1600)), part(rng.randrange(1, 1600)) or 1)
                      for _ in range(rng.randrange(2, 5))]
        unit = 1 << rng.randrange(1200)
        with mp.workprec(120):
            want = mp.hypot(*num) / unit / mp.fprod(mp.hypot(*d) for d in dens)
        if 1e-300 < want < 1e300:
            got = pattern_core._big_estimate(unit, num, *dens)
            assert abs(got / want - 1) < 2 ** -47, (num, dens, unit)
            checked += 1
            past += max(abs(v) for p in (num, *dens) for v in p).bit_length() > 1024
    assert checked > 300 and past > 100


class _Overflowing(float):
    """A float unit that overflows when a modulus is divided by it."""
    def __rtruediv__(self, other):
        raise OverflowError


def test_top_bit_estimates_are_the_float_ones(monkeypatch):
    # forced on dps-40 fields, where both can be taken, the estimates from
    # the top bits are face by face and site by site the float ones within
    # twice the screen's 2**-47, and the sweeps' results stay; shrunk by
    # 2**-20, the field's laxzc shape weight is the one * |e - a| term
    zf = generate_z(isotropic_params(1.5, precision="ext", dps=40), 6)
    with mp.workdps(40):
        small = ZField(params=zf.params, generation=zf.generation,
                       values={p: mp.ldexp(z.real, -20) + 1j * mp.ldexp(z.imag, -20)
                               for p, z in zf.values.items()})
    seen, screens = [], pattern_core._ScreenedWorst.screens
    monkeypatch.setattr(pattern_core._ScreenedWorst, "screens",
                        lambda self, est: seen.append(est) or screens(self, est))
    runs = []
    for force in (False, True):
        if force:
            monkeypatch.setattr(pattern_core, "_float_units",
                                lambda bk, *ones: [_Overflowing()] * len(ones) + [0.0, 0.0])
        seen.clear()
        results = [sweep(field) for field in (zf, small)
                   for sweep in (pattern_core.max_zero_curvature_residual,
                                 pattern_core.max_constraint_residual)]
        runs.append((list(seen), results))
    (floats, want), (tops, got) = runs
    assert got == want and len(tops) == len(floats) > 0
    for a, b in zip(floats, tops):
        assert a == b or abs(b / a - 1) < 2 ** -46 or math.isnan(a) and math.isnan(b)


# -- the fixed-point kernels of an extended run --------------------------------

def _value(pair, bits):
    return mp.mpc(mp.ldexp(pair[0], -bits), mp.ldexp(pair[1], -bits))


def test_fixed_kernels_match_mpc_at_twice_the_digits():
    rng = random.Random(5)
    for k in range(80):
        dps = rng.choice((30, 40, 60, 150))
        bits = fixed_bits(dps)
        pts = [(rng.randrange(-4 << bits, 4 << bits), rng.randrange(-4 << bits, 4 << bits))
               for _ in range(3)]
        q = fixed_unit(rng.uniform(-math.pi, math.pi), bits)
        c = fixed_real(rng.uniform(0.05, 1.95), bits)
        n = k % 20 + 1
        got = (solve_fourth(*pts, q, bits), axis_next(n, pts[0], pts[1], c, bits))
        with mp.workdps(2 * dps):
            z1, z2, z3, r = (_value(p, bits) for p in (*pts, q))
            cc = mp.ldexp(c, -bits)
            want = (solve_fourth(z1, z2, z3, r), axis_next(n, z1, z2, cc))
            for g, w in zip(got, want):
                err = _value(g, bits) - w
                # half a unit of rounding, well inside 2**-(P - 4)
                assert max(abs(err.real), abs(err.imag)) <= mp.ldexp(1, -bits), (k, dps)


def test_fixed_kernels_raise_on_an_exact_zero_denominator():
    bits = fixed_bits(40)
    one, zero = (1 << bits, 0), (0, 0)
    with pytest.raises(DegenerateQuadError, match="nonzero"):
        solve_fourth(zero, one, (0, one[0]), zero, bits)
    # q = 1 and z1 = z3: D = a + b = z1 - z3 = 0
    with pytest.raises(DegenerateQuadError, match="no finite fourth vertex"):
        solve_fourth(zero, one, zero, one, bits)
    with pytest.raises(DegenerateQuadError, match="no finite fourth vertex"):
        solve_fourth(0j, 1 + 0j, 0j, 1.0)
    # c = 2 at n = 1 from 0 and 1: c z_cur - 2 n d = 0
    with pytest.raises(pattern_core.AxisDegeneracyError):
        axis_next(1, zero, one, 2 << bits, bits)
    with pytest.raises(pattern_core.AxisDegeneracyError):
        axis_next(1, 0j, 1 + 0j, 2.0)


def test_extended_field_is_within_1e_31_of_a_dps_80_run():
    zf = generate_z(isotropic_params(1.5, precision="ext", dps=40), 24)
    ref = generate_z(isotropic_params(1.5, precision="ext", dps=80), 24)
    assert zf.values.keys() == ref.values.keys()
    with mp.workdps(90):
        assert max(abs(z - ref.values[s]) for s, z in zf.values.items()) <= 1e-31
    # every coordinate is rounded once, to the 136 bits of dps 40
    assert all(isinstance(z, mp.mpc) for z in zf.values.values())
    assert max(t[3] for z in zf.values.values() for t in z._mpc_) <= 136


def test_extended_run_solves_each_site_once(monkeypatch):
    solve, calls = pattern_core.solve_fourth, []

    def counted(*args):
        calls.append(args[4])
        return solve(*args)

    monkeypatch.setattr(pattern_core, "solve_fourth", counted)
    zf = generate_z(isotropic_params(1.5, precision="ext", dps=40), 10)
    # every vertex off the three axes is solved, once, on integers
    assert len(calls) == len(zf.values) - (3 * 10 + 1)
    assert set(calls) == {fixed_bits(40)}


def test_extended_initial_override_is_read_into_the_same_integers():
    params = isotropic_params(1.5, precision="ext", dps=40)
    # the seed itself, given to P + 20 bits, rounds to the seed's integers
    with mp.workprec(fixed_bits(40) + 20):
        seed = mp.expj(mp.mpf(1.5) * mp.pi / 3)
    assert (generate_z(params, 8, initial_override={(0, 0, -1): seed}).values
            == generate_z(params, 8).values)
    bad = cmath.exp(1j * (1.5 * math.pi / 3 + 0.05))
    with mp.workdps(40):
        as_mpc = mp.mpc(bad)
    fields = [generate_z(params, 8, initial_override={(0, 0, -1): v})
              for v in (bad, as_mpc)]
    assert fields[0].values == fields[1].values
    assert fields[0].values[(0, 0, -1)] == as_mpc  # a double is read exactly
    assert fields[0].values != generate_z(params, 8).values
    with pytest.raises(ValueError, match="not finite"):
        generate_z(params, 3, initial_override={(0, 0, -1): complex(math.nan, 1)})
