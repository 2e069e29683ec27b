import math
import random

import pytest

from hexcircle import riccati
from hexcircle.riccati import (ParameterError, RiccatiParams, g, gamma_ratio,
                               hyp_f, linear_recurrence_residual, p0_closed,
                               p0_via_series, p_limit_check, riccati_step,
                               stirling_gamma, trajectory, y_basis, y_closed)

C_GRID = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
ALPHA_GRID = [math.pi / 6, math.pi / 4, math.pi / 3, 2 * math.pi / 5]


def test_g_values():
    assert g(0, 1.0) == pytest.approx(1.0)
    assert g(0, 1.5) == pytest.approx(3.0)
    assert abs(g(10 ** 6, 1.3) - 1) < 2e-6


def test_g_pole():
    with pytest.raises(ParameterError):
        g(0, 2.0)


def test_riccati_step_fixed_point_c1():
    rp = RiccatiParams(c=1.0, alpha=1.1)
    p = 1.0
    for n in range(40):
        p = riccati_step(p, n, rp)
        assert p == 1.0


def test_riccati_step_orthogonal_case():
    rp = RiccatiParams(c=1.3, alpha=math.pi / 2)
    rng = random.Random(5)
    for n in range(10):
        p = rng.uniform(0.2, 3.0)
        assert riccati_step(p, n, rp) == pytest.approx(g(n, 1.3) / p, rel=1e-13)


def test_riccati_cross_ratio_of_four_solutions_constant():
    rp = RiccatiParams(c=1.4, alpha=math.pi / 3)
    rng = random.Random(9)
    ps = [rng.uniform(0.3, 4.0) for _ in range(4)]
    def xr(vals):
        a, b, c_, d = vals
        return (a - b) * (c_ - d) / ((b - c_) * (d - a))
    ref = xr(ps)
    for n in range(12):
        ps = [riccati_step(p, n, rp) for p in ps]
        assert xr(ps) == pytest.approx(ref, rel=1e-8)


def test_p0_closed_values():
    assert p0_closed(RiccatiParams(c=1.0, alpha=0.8)) == pytest.approx(1.0)
    assert p0_closed(RiccatiParams(c=1.5, alpha=math.pi / 3)) == pytest.approx(
        math.sin(math.pi / 4) / math.sin(math.pi / 12))
    assert p0_closed(RiccatiParams(c=0.5, alpha=math.pi / 2)) == pytest.approx(
        0.41421356237309503)


def test_hyp_f_at_zero_and_degenerate_parameter():
    assert hyp_f(0.7, 0.2, 0.5, 0.0) == 1.0
    # numerator parameter zero: the series collapses to 1
    assert hyp_f(1.0, 0.0, 0.5, 0.3) == 1.0


def test_hyp_f_domain_guard():
    with pytest.raises(riccati.SeriesDomainError):
        hyp_f(0.5, 0.5, 0.5, 1.1)


def test_hyp_f_large_n_limit():
    c, t = 1.5, math.cos(math.pi / 3)
    z1 = (1 - t) / 2
    vals = [hyp_f((3 - c) / 2, (c - 1) / 2, 0.5 - n, z1) for n in (5, 20, 80)]
    gaps = [abs(v - 1) for v in vals]
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 1e-3


def test_hyp_f_satisfies_gauss_ode():
    import mpmath as mp
    a, b, cc = 0.8, -0.375, 0.5
    with mp.workdps(30):
        z = mp.mpf("0.41")
        f = lambda x: hyp_f(a, b, cc, x, tol=1e-25)
        f0 = f(z)
        fp = mp.diff(f, z)
        fpp = mp.diff(f, z, 2)
        res = z * (1 - z) * fpp + (cc - (a + b + 1) * z) * fp - a * b * f0
        assert abs(res) <= 1e-15 ** 0.5


def test_y_closed_recurrence_residual():
    rng = random.Random(17)
    for c, alpha in ((1.5, math.pi / 3), (0.6, math.pi / 4), (1.2, 2 * math.pi / 5)):
        rp = RiccatiParams(c=c, alpha=alpha)
        c1, c2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        ys = [y_closed(n, c1, c2, rp) for n in range(23)]
        for n in range(21):
            assert linear_recurrence_residual(ys[n], ys[n + 1], ys[n + 2], n, rp) <= 1e-10


def test_y_minimal_branch_positivity_and_p0():
    for c, alpha in ((1.5, math.pi / 3), (0.75, math.pi / 4)):
        rp = RiccatiParams(c=c, alpha=alpha)
        t = rp.t
        ys = [y_basis(n, rp, 2) for n in range(42)]
        ps = [ys[n + 1] / ys[n] + t * g(n, c) for n in range(41)]
        assert all(p > 0 for p in ps)
        assert ps[0] == pytest.approx(p0_closed(rp), rel=1e-9)
        assert ps[40] == pytest.approx(1.0, abs=0.05)


def test_y_basis_asymptotic_ratios():
    rp = RiccatiParams(c=1.5, alpha=math.pi / 3)
    t = rp.t
    r_min = y_basis(101, rp, 2) / y_basis(100, rp, 2)
    assert r_min == pytest.approx(1 - t, rel=0.01)
    r_dom = y_basis(101, rp, 1) / y_basis(100, rp, 1)
    assert r_dom == pytest.approx(-(1 + t), rel=0.01)


def test_ansatz_identity_against_forward_iteration():
    rp = RiccatiParams(c=1.3, alpha=math.pi / 3)
    t = rp.t
    traj = trajectory(rp, 20, dps=60)
    for n in range(20):
        y0, y1 = y_basis(n, rp, 2), y_basis(n + 1, rp, 2)
        assert y1 / y0 + t * g(n, rp.c) == pytest.approx(traj.values[n], rel=1e-8)


def test_p0_series_matches_closed_form_on_grid():
    worst = 0.0
    for c in C_GRID:
        for alpha in ALPHA_GRID:
            rp = RiccatiParams(c=c, alpha=alpha)
            worst = max(worst, abs(p0_via_series(rp) - p0_closed(rp)))
    assert worst <= 1e-10


def test_p0_series_limits():
    # z -> 0 corresponds to alpha -> pi
    rp = RiccatiParams(c=0.7, alpha=math.pi - 1e-5)
    assert p0_via_series(rp) == pytest.approx(1.0, abs=1e-4)
    # c = 1 gives exactly 1 for any angle
    for alpha in ALPHA_GRID:
        assert p0_via_series(RiccatiParams(c=1.0, alpha=alpha)) == pytest.approx(1.0, abs=1e-14)


def test_forward_separatrix_positive_at_extended_precision():
    for c in C_GRID:
        for alpha in ALPHA_GRID:
            rp = RiccatiParams(c=c, alpha=alpha)
            traj = trajectory(rp, 40, dps=riccati.separatrix_dps(rp, 40))
            assert traj.stayed_positive, (c, alpha, traj.first_nonpositive)


def test_perturbed_p0_loses_positivity():
    for c, alpha in ((1.5, math.pi / 3), (0.5, math.pi / 4)):
        rp = RiccatiParams(c=c, alpha=alpha)
        for fac in (1 + 1e-3, 1 - 1e-3):
            traj = trajectory(rp, 40, p_start=p0_closed(rp) * fac,
                              dps=riccati.separatrix_dps(rp, 40))
            assert traj.first_nonpositive is not None
            assert traj.first_nonpositive <= 40


def test_p_limit_check():
    rp = RiccatiParams(c=1.5, alpha=math.pi / 3)
    assert abs(p_limit_check(rp, 40) - 1.0) <= 0.05
    rp1 = RiccatiParams(c=1.0, alpha=math.pi / 3)
    assert p_limit_check(rp1, 40) == pytest.approx(1.0, abs=1e-12)


def test_perturbed_run_approaches_minus_one_region():
    rp = RiccatiParams(c=1.5, alpha=math.pi / 3)
    traj = trajectory(rp, 40, p_start=p0_closed(rp) * (1 - 1e-3),
                      dps=riccati.separatrix_dps(rp, 40))
    assert min(traj.values) < 0


def test_gamma_ratio_matches_stirling():
    for c in (0.5, 1.5):
        for n in (50, 80, 120):
            exact = gamma_ratio(n, c)
            approx = stirling_gamma(n + 0.5) / stirling_gamma(n + 1 - c / 2)
            assert abs(approx / exact - 1) <= 0.01


def test_consistency_triangle_with_pattern():
    from hexcircle.pattern_core import PatternParams
    from hexcircle.radius_system import seeds_from_pattern
    for c in (0.5, 1.5):
        for alpha in (math.pi / 3, 2 * math.pi / 5):
            rp = RiccatiParams(c=c, alpha=alpha)
            params = PatternParams(
                alphas=((math.pi - alpha) / 2, (math.pi - alpha) / 2, alpha), c=c)
            seeds = seeds_from_pattern(params)
            extracted = seeds[(1, 0, -1)] / seeds[(0, 0, 0)]
            assert extracted == pytest.approx(p0_closed(rp), abs=1e-8)
            assert p0_via_series(rp) == pytest.approx(p0_closed(rp), abs=1e-10)


def test_double_trajectory_is_the_iterated_step():
    for c, alpha in ((1.5, math.pi / 3), (0.5, 1.2), (1.0, math.pi / 2), (1.75, 2.5)):
        rp = RiccatiParams(c=c, alpha=alpha)
        p = p0_closed(rp)
        expected = [p]
        for n in range(40):
            p = riccati_step(p, n, rp)
            expected.append(p)
        assert trajectory(rp, 40).values == expected
