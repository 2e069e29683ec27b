import math
import random

import mpmath as mp
import pytest

from hexcircle import numerics
from hexcircle.numerics import required_dps
from hexcircle.riccati import (ParameterError, Boundary, g, p0_closed,
                               p0_via_series, ratio_run, separatrix_growth, trajectory)
from oracle import riccati_step, y_basis, y_closed
from test_acceptance import forward_separatrix, linear_recurrence_residual, planned_dps

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
    rp = Boundary(1.0, 1.1)
    p = 1.0
    for n in range(40):
        p = riccati_step(p, n, rp)
        assert p == 1.0


def test_riccati_step_orthogonal_case():
    rp = Boundary(1.3, math.pi / 2)
    rng = random.Random(5)
    for n in range(10):
        p = rng.uniform(0.2, 3.0)
        assert riccati_step(p, n, rp) == pytest.approx(g(n, 1.3) / p, rel=1e-13)


def test_extended_riccati_step_is_exact_to_the_working_precision():
    # an mpf p takes cos(alpha) at the working precision, not the double t
    rng = random.Random(12)
    for c, alpha in ((1.5, math.pi / 3), (0.5, 1.2), (1.75, 2.5)):
        rp = Boundary(c, alpha)
        for n in range(6):
            p = rng.uniform(0.2, 3.0)
            with mp.workdps(50):
                got = riccati_step(mp.mpf(p), n, rp)
            with mp.workdps(100):
                t, cc = mp.cos(mp.mpf(alpha)), mp.mpf(c)
                gn = (2 * n + cc) / (2 * (n + 1) - cc)
                want = (gn - t * p) / (p - t * gn)
                assert abs(got - want) <= 1e-45 * abs(want), (c, alpha, n)


def test_riccati_cross_ratio_of_four_solutions_constant():
    rp = Boundary(1.4, math.pi / 3)
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
    assert p0_closed(Boundary(1.0, 0.8)) == pytest.approx(1.0)
    assert p0_closed(Boundary(1.5, math.pi / 3)) == pytest.approx(
        math.sin(math.pi / 4) / math.sin(math.pi / 12))
    assert p0_closed(Boundary(0.5, math.pi / 2)) == pytest.approx(
        0.41421356237309503)


def test_y_closed_recurrence_residual():
    rng = random.Random(17)
    for c, alpha in ((1.5, math.pi / 3), (0.6, math.pi / 4), (1.2, 2 * math.pi / 5)):
        rp = Boundary(c, alpha)
        c1, c2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        ys = [y_closed(n, c1, c2, rp) for n in range(23)]
        for n in range(21):
            assert linear_recurrence_residual(ys[n], ys[n + 1], ys[n + 2], n, rp) <= 1e-10


def test_y_minimal_branch_positivity_and_p0():
    for c, alpha in ((1.5, math.pi / 3), (0.75, math.pi / 4)):
        rp = Boundary(c, alpha)
        t = rp.t()
        ys = [y_basis(n, rp, 2) for n in range(42)]
        ps = [ys[n + 1] / ys[n] + t * g(n, c) for n in range(41)]
        assert all(p > 0 for p in ps)
        assert ps[0] == pytest.approx(p0_closed(rp), rel=1e-9)
        assert ps[40] == pytest.approx(1.0, abs=0.05)


def test_y_basis_asymptotic_ratios():
    rp = Boundary(1.5, math.pi / 3)
    t = rp.t()
    r_min = y_basis(101, rp, 2) / y_basis(100, rp, 2)
    assert r_min == pytest.approx(1 - t, rel=0.01)
    r_dom = y_basis(101, rp, 1) / y_basis(100, rp, 1)
    assert r_dom == pytest.approx(-(1 + t), rel=0.01)


def test_ansatz_identity_against_forward_iteration():
    rp = Boundary(1.3, math.pi / 3)
    t = rp.t()
    traj = trajectory(rp, 20, dps=60)
    for n in range(20):
        y0, y1 = y_basis(n, rp, 2), y_basis(n + 1, rp, 2)
        assert y1 / y0 + t * g(n, rp.c) == pytest.approx(traj.values[n], rel=1e-8)
    # deep in the run, on both sides of the forward/backward rule of ratio_run
    for c in (0.5, 1.5, 1.9):
        for alpha in (math.pi / 3, math.pi / 2):
            rp = Boundary(c, alpha)
            p = y_basis(101, rp, 2) / y_basis(100, rp, 2) + rp.t() * g(100, c)
            assert p == pytest.approx(ratio_run(rp, 101)[100], rel=1e-13), (c, alpha)


@pytest.mark.parametrize("alpha", [math.pi / 3, math.pi / 2, 2.0])
@pytest.mark.parametrize("c", [0.5, 1.5, 1.9])
def test_both_bases_satisfy_the_recurrence_deep_in_the_run(c, alpha):
    rp = Boundary(c, alpha)
    for which in (1, 2):
        for n in (98, 248):
            ys = [y_basis(n + k, rp, which) for k in range(3)]
            assert linear_recurrence_residual(*ys, n, rp) <= 1e-12, (which, n)


def _admixture_separatrix(n, c, alpha):
    """The separatrix as the Gauss solution at z = (1+t)/2 plus the second
    solution there weighted by (2-c) cot(pi c/2), at 300 digits."""
    with mp.workdps(300):
        c, t, half = mp.mpf(c), mp.cos(mp.mpf(alpha)), mp.mpf(1) / 2
        a, b, z = (c - 1) / 2, (3 - c) / 2, (1 + t) / 2
        kappa = (2 - c) * mp.cot(mp.pi * c / 2)
        poch = (mp.rf(a + half, n) * mp.rf(b + half, n)
                / (mp.rf(half, n) * mp.rf(3 * half, n)))
        second = z ** (n + half) * mp.hyp2f1(a + n + half, b + n + half, n + 3 * half, z)
        return (mp.gamma(n + half) / mp.gamma(n + 1 - c / 2) * (1 - t) ** n
                * (mp.hyp2f1(a, b, half - n, z) + kappa * (-1) ** n * poch * second))


@pytest.mark.parametrize("alpha", [math.pi / 3, 2.0])
@pytest.mark.parametrize("c", [0.5, 1.5, 1.9])
def test_separatrix_basis_keeps_the_admixture_normalisation(c, alpha):
    rp = Boundary(c, alpha)
    for n in range(41):
        want = _admixture_separatrix(n, c, alpha)
        assert abs(y_basis(n, rp, 2) / want - 1) <= 1e-15, n


def test_p0_series_matches_closed_form_on_grid():
    worst = 0.0
    for c in C_GRID:
        for alpha in ALPHA_GRID:
            rp = Boundary(c, alpha)
            worst = max(worst, abs(p0_via_series(rp) - p0_closed(rp)))
    assert worst <= 1e-10


def test_p0_series_matches_closed_form_across_the_angle_range():
    # the separatrix series at s = sin(alpha/2)^2: near 0 at small angles,
    # near 1, where it converges slowest, as alpha nears pi
    for alpha in (0.001, 0.01, 0.1, 0.12, math.pi / 3, math.pi / 2, 3.1, 3.14):
        for c in (0.05, 0.5, 1.5, 1.99):
            rp = Boundary(c, alpha)
            closed = p0_closed(rp)
            assert abs(p0_via_series(rp) - closed) <= 1e-13 * abs(closed), (c, alpha)


@pytest.mark.parametrize("c", [0.001, 0.01, 0.5, 1.5, 1.9, 1.9999])
def test_p0_closed_keeps_its_digits_as_alpha_nears_pi(c):
    # sin((2 - c) alpha / 2) nears sin(pi) as c and pi - alpha shrink, and
    # sin(c alpha / 2) as c nears 2: an argument past pi/2 takes its sine
    # from its supplement, so the double quotient stays within two units of
    # the quotient at 100 digits, a pi-fraction of alpha taken exactly
    from fractions import Fraction
    for alpha, frac in ((2.0, None), (3.0, None), (3.1, None), (3.14, None),
                        (3.14159, None), (math.pi - 1e-9, None),
                        (0.999 * math.pi, Fraction(999, 1000)), (math.pi / 2, Fraction(1, 2))):
        got = Boundary(c, alpha, frac).p0()
        with mp.workdps(100):
            a = mp.pi * frac.numerator / frac.denominator if frac else mp.mpf(alpha)
            want = mp.sin(c * a / 2) / mp.sin((2 - mp.mpf(c)) * a / 2)
            assert abs(got / want - 1) <= 4.5e-16, (c, alpha, frac)


def test_p0_series_limits():
    # z -> 0 corresponds to alpha -> pi
    rp = Boundary(0.7, math.pi - 1e-5)
    assert p0_via_series(rp) == pytest.approx(1.0, abs=1e-4)
    # c = 1 gives exactly 1 for any angle
    for alpha in ALPHA_GRID:
        assert p0_via_series(Boundary(1.0, alpha)) == pytest.approx(1.0, abs=1e-14)


def test_forward_separatrix_positive_at_extended_precision():
    for c in C_GRID:
        for alpha in ALPHA_GRID:
            rp = Boundary(c, alpha)
            traj = forward_separatrix(rp, 40)
            assert traj.first_nonpositive is None, (c, alpha, traj.first_nonpositive)


def test_perturbed_p0_loses_positivity():
    for c, alpha in ((1.5, math.pi / 3), (0.5, math.pi / 4)):
        rp = Boundary(c, alpha)
        for fac in (1 + 1e-3, 1 - 1e-3):
            traj = trajectory(rp, 40, p_start=p0_closed(rp) * fac,
                              dps=planned_dps(rp, 40))
            assert traj.first_nonpositive is not None
            assert traj.first_nonpositive <= 40


def test_p_limit_check():
    # p_N of the separatrix run tends to 1
    for c, tol in ((1.5, 0.05), (1.0, 1e-12)):
        rp = Boundary(c, math.pi / 3)
        p_n = trajectory(rp, 40).values[-1]
        assert p_n == pytest.approx(1.0, abs=tol)


def test_perturbed_run_approaches_minus_one_region():
    rp = Boundary(1.5, math.pi / 3)
    traj = trajectory(rp, 40, p_start=p0_closed(rp) * (1 - 1e-3),
                      dps=planned_dps(rp, 40))
    assert min(traj.values) < 0


def test_consistency_triangle_with_pattern():
    from hexcircle.pattern_core import PatternParams
    from hexcircle.radius_system import seeds_from_pattern
    for c in (0.5, 1.5):
        for alpha in (math.pi / 3, 2 * math.pi / 5):
            rp = Boundary(c, alpha)
            params = PatternParams(
                alphas=((math.pi - alpha) / 2, (math.pi - alpha) / 2, alpha), c=c)
            seeds = seeds_from_pattern(params)
            extracted = seeds[(1, 0, -1)] / seeds[(0, 0, 0)]
            assert extracted == pytest.approx(p0_closed(rp), abs=1e-8)
            assert p0_via_series(rp) == pytest.approx(p0_closed(rp), abs=1e-10)


def test_double_trajectory_is_the_iterated_step():
    # the float values of the iterated step at dps 50, from the mpf sine quotient
    for c, alpha in ((1.5, math.pi / 3), (0.5, 1.2), (1.0, math.pi / 2), (1.75, 2.5)):
        rp = Boundary(c, alpha)
        with mp.workdps(50):
            cc = mp.mpf(c)
            p = mp.sin(cc * alpha / 2) / mp.sin((2 - cc) * alpha / 2)
            expected = [float(p)]
            for n in range(40):
                p = riccati_step(p, n, rp)
                expected.append(float(p))
        values = trajectory(rp, 40, dps=50).values
        assert all(type(p) is mp.mpf for p in values)
        assert [float(p) for p in values] == expected, (c, alpha)


# (c, alpha, n, backward): the sweep runs backward where a forward run from
# p0 would lose more than 4 bits, forward at and past pi/2
SWEEP_POINTS = [(1.5, math.pi / 3, 40, True), (0.5, math.pi / 3, 100, True),
                (1.9, 2 * math.pi / 5, 40, True), (1.5, 0.1, 100, True),
                (1.5, math.pi / 2, 100, False), (1.5, 2.0, 40, False)]


def _forward_reference(b, n, digits):
    """The step run forward from the exact p0 at digits, as mpf."""
    return ratio_run(b, n, b.p0(mp.libmp.dps_to_prec(digits)), dps=digits)


@pytest.mark.parametrize("c, alpha, n, backward", SWEEP_POINTS)
def test_separatrix_sweep_matches_the_planned_forward_run(c, alpha, n, backward):
    b = Boundary(c, alpha)
    assert (n * math.log2(separatrix_growth(b)) > 4) == backward
    # a forward run at planned digits is clean to about 1e-30, one 60 digits
    # deeper to about 1e-90
    for dps, digits, tol in ((None, planned_dps(b, n), 4e-15),
                             (60, required_dps(n, separatrix_growth(b), 90), 1e-58)):
        ref = _forward_reference(b, n, digits)
        got = ratio_run(b, n, dps=dps)
        assert len(got) == n + 1 and all(isinstance(p, mp.mpf) == bool(dps) for p in got)
        with mp.workdps(digits):
            gap = max(abs(p / r - 1) for p, r in zip(got, ref))
        assert gap <= tol, (c, alpha, dps, gap)
    assert trajectory(b, n).values == [float(p) for p in ratio_run(b, n)]


@pytest.mark.parametrize("dps", [None, 40])
def test_separatrix_at_a_tiny_angle_is_g(dps):
    # t = cos(1e-300) is 1 at either width and the growth inf: p_n = g_n
    b = Boundary(1.5, 1e-300)
    assert separatrix_growth(b) == math.inf
    traj = trajectory(b, 30, dps=dps)
    with mp.workdps(dps or 15):
        c = 1.5 if dps is None else mp.mpf(1.5)
        assert traj.values == [g(n, c) for n in range(31)]
    assert traj.first_nonpositive is None


def test_separatrix_sweep_runs_where_the_forward_plan_needed_2332_digits():
    # alpha = 0.01: a forward run of 500 steps loses cot(alpha/2)^2 = 4e4 per step
    b = Boundary(1.5, 0.01)
    traj = trajectory(b, 500)
    assert len(traj.values) == 501 and min(traj.values) > 0
    assert traj.first_nonpositive is None
    assert abs(traj.values[0] / p0_closed(b) - 1) <= 4e-16
    with mp.workdps(60):
        assert abs(ratio_run(b, 500, dps=60)[0] / b.p0(mp.mp.prec) - 1) <= 1e-58


def test_double_separatrix_enters_no_mpmath_context(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a double separatrix run entered mpmath")
    for name in ("workdps", "workprec"):
        monkeypatch.setattr(mp, name, refuse)
    monkeypatch.setattr(numerics, "required_dps", refuse)
    for c, alpha, n in ((1.5, math.pi / 3, 40), (1.5, 2.0, 40), (1.5, 0.01, 500)):
        values = trajectory(Boundary(c, alpha), n).values
        assert len(values) == n + 1 and all(type(p) is float and p > 0 for p in values)


def test_forward_run_stops_at_a_step_pole():
    # at c = 1, t = cos(alpha): p = t g_0 = t is the pole of the first step
    b = Boundary(1.0, math.pi / 3)
    traj = trajectory(b, 5, p_start=b.t())
    assert traj.values == [b.t()] and traj.first_nonpositive == 1
    assert trajectory(b, 5, p_start=-1.0).first_nonpositive == 0


BOUNDARY_GRID = [(c, alpha) for c in (0.25, 0.5, 1.0, 1.37, 1.5, 1.9)
                 for alpha in (0.1, math.pi / 3, 1.2, math.pi / 2, 2.5)]


@pytest.mark.parametrize("c, alpha", BOUNDARY_GRID)
def test_boundary_doubles_are_the_double_formulas_bit_for_bit(c, alpha):
    import cmath
    b = Boundary(c, alpha)
    assert b.angle() == alpha and b.t() == math.cos(alpha)
    assert b.beta0() == c * alpha / 2
    # p0 = sin(x) / sin(y), an argument past pi/2 by its supplement, from
    # pi - alpha with pi in two parts
    x, y, rest = c * alpha / 2, (2 - c) * alpha / 2, (math.pi - alpha) + 1.2246467991473532e-16
    assert b.p0() == ((math.sin(x) if x <= math.pi / 2 else math.sin(rest + y))
                      / (math.sin(y) if y <= math.pi / 2 else math.sin(rest + x)))
    assert b.eps() == cmath.exp(1j * alpha)
    assert b.x0() == cmath.exp(1j * c * alpha / 2)


@pytest.mark.parametrize("c, alpha", BOUNDARY_GRID)
def test_boundary_at_a_width_takes_the_float_angle_exactly(c, alpha):
    from hexcircle.numerics import ANGLE_GUARD_BITS, fixed_unit
    b, prec, bits = Boundary(c, alpha), 200, 180
    with mp.workprec(prec):
        cc = mp.mpf(c)
        assert b.angle(prec) == alpha
        assert b.t(prec) == mp.cos(mp.mpf(alpha))
        assert b.beta0(prec) == cc * alpha / 2
        assert b.p0(prec) == mp.sin(cc * alpha / 2) / mp.sin((2 - cc) * alpha / 2)
    assert b.eps(bits) == fixed_unit(alpha, bits)
    with mp.workprec(bits + ANGLE_GUARD_BITS):
        assert b.x0(bits) == fixed_unit(mp.mpf(c) * alpha / 2, bits)


def test_boundary_takes_a_pi_fraction_as_generation_does():
    from fractions import Fraction
    from hexcircle.pattern_core import PatternParams, guarded_angles
    params = PatternParams(alphas=(math.pi / 4, math.pi / 4, math.pi / 2), c=1.5,
                           alpha_pi_fracs=(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    bits = 150
    exact = guarded_angles(params, bits)
    for alpha, frac, want in zip(params.alphas, params.alpha_pi_fracs, exact):
        b = Boundary(1.5, alpha, frac)
        assert b.angle(bits + 20) == want
        assert b.angle() == alpha  # the double is the given float
    b = Boundary(1.5, math.pi / 3, Fraction(1, 3))
    with mp.workdps(60):
        assert abs(b.t(mp.mp.prec) - mp.mpf(1) / 2) <= mp.mpf(10) ** -59
        assert abs(Boundary(1.5, math.pi / 3).t(mp.mp.prec) - mp.mpf(1) / 2) > 1e-17


@pytest.mark.parametrize("c, alpha, name", [
    (0.0, 1.0, "exponent c"), (-1.0, 1.0, "exponent c"), (2.5, 1.0, "exponent c"),
    (math.nan, 1.0, "exponent c"), (1.5, 0.0, "angle alpha"),
    (1.5, math.pi, "angle alpha"), (1.5, 4.0, "angle alpha"),
    (1.5, math.nan, "angle alpha")])
def test_boundary_checks_the_domain_once(c, alpha, name):
    with pytest.raises(ParameterError, match=f"the {name} must satisfy"):
        Boundary(c, alpha)


def test_ratio_recurrence_refuses_c_2_everywhere():
    b = Boundary(2.0, math.pi / 3)  # in the Painleve domain
    calls = [lambda: p0_closed(b), lambda: p0_via_series(b),
             lambda: trajectory(b, 5), lambda: trajectory(b, 5, dps=40),
             lambda: trajectory(b, 5, p_start=1.0), lambda: y_basis(3, b, 2),
             lambda: riccati_step(1.0, 3, b), lambda: riccati_step(mp.mpf(1), 3, b)]
    for call in calls:
        with pytest.raises(ParameterError, match="needs c < 2"):
            call()
