import cmath
import math
import random

import mpmath as mp
import pytest

from hexcircle import painleve
from hexcircle.numerics import fixed_bits, fixed_unit, required_dps
from hexcircle.painleve import (BracketError, RunSetup, SectorTag, growth_rate,
                                run_trajectory, sector_of_signs, shoot, shoot_horizon)
from hexcircle.riccati import Boundary
from oracle import dpii_step, sector_of


def sector_of_beta(beta: float, alpha: float) -> SectorTag:
    """Reference sector test on the angle beta in (-pi, pi] of x."""
    if beta == 0:
        return SectorTag.BOUNDARY_LOW
    if beta == alpha:
        return SectorTag.BOUNDARY_HIGH
    if 0 < beta < alpha:
        return SectorTag.A_I
    if alpha < beta <= math.pi:
        return SectorTag.A_II
    if alpha - math.pi <= beta < 0:
        return SectorTag.A_IV
    return SectorTag.A_III


def test_x0_closed():
    assert Boundary(1.0, 1.1).x0() == pytest.approx(cmath.exp(1j * 0.55))
    assert Boundary(1.5, math.pi / 3).x0() == pytest.approx(cmath.exp(1j * math.pi / 4))
    for c in (0.1, 0.7, 1.3, 1.9):
        beta = cmath.phase(Boundary(c, 1.0).x0())
        assert 0 < beta < 1.0


def test_sector_of():
    alpha = math.pi / 3
    b = Boundary(1.0, alpha)
    assert sector_of(cmath.exp(1j * alpha / 2), b) is SectorTag.A_I
    assert sector_of(cmath.exp(1j * (alpha + 0.1)), b) is SectorTag.A_II
    assert sector_of(cmath.exp(-0.1j), b) is SectorTag.A_IV
    assert sector_of(cmath.exp(1j * (alpha - math.pi - 0.2)), b) is SectorTag.A_III
    assert sector_of(1.0, b) is SectorTag.BOUNDARY_LOW


def test_fixed_point_c1_per_step_residual():
    alpha = 2 * math.pi / 5
    u = cmath.exp(1j * alpha / 2)
    eps = cmath.exp(1j * alpha)
    for n in range(0, 30):
        out = dpii_step(n, u, u, 1.0, eps)
        assert abs(out - u) <= 1e-13


def test_boundary_continuity_values():
    alpha = math.pi / 3
    eps = cmath.exp(1j * alpha)
    rng = random.Random(2)
    for n in (1, 3, 7):
        u = cmath.exp(1j * rng.uniform(0.05, alpha - 0.05))
        hi = dpii_step(n, u, eps, 1.3, eps)
        assert abs(hi - (-1)) <= 1e-12
        lo = dpii_step(n, u, 1.0, 1.3, eps)
        assert abs(lo - (-eps)) <= 1e-12


def test_one_step_reachability_never_a_iii():
    rng = random.Random(13)
    for _ in range(300):
        alpha = rng.uniform(0.3, 2.6)
        c = rng.uniform(0.1, 1.9)
        n = rng.randint(1, 12)
        eps = cmath.exp(1j * alpha)
        u = cmath.exp(1j * rng.uniform(1e-6, alpha - 1e-6))
        v = cmath.exp(1j * rng.uniform(1e-6, alpha - 1e-6))
        try:
            out = dpii_step(n, u, v, c, eps)
        except painleve.StepSingularError:
            continue
        assert sector_of(out, Boundary(c, alpha)) is not SectorTag.A_III


def test_separatrix_stays_at_double_for_measured_horizon():
    # alpha = 3*pi/5 keeps the per-step amplification low enough for 25+
    # double-precision steps (smaller angles drift out earlier)
    c, alpha = 1.5, 3 * math.pi / 5
    traj = run_trajectory(Boundary(c, alpha), c * alpha / 2, 30)
    assert traj.steps_in_sector() >= 25
    assert traj.max_unitarity_drift <= 1e-12


def test_separatrix_extended_horizon():
    c, alpha = 1.5, 3 * math.pi / 5
    traj = run_trajectory(Boundary(c, alpha), c * alpha / 2, 60, dps=60)
    assert traj.steps_in_sector() >= 60
    assert 0 < traj.max_unitarity_drift <= 1e-58


def test_perturbed_start_exits_both_sides():
    c, alpha = 1.5, math.pi / 3
    up = run_trajectory(Boundary(c, alpha), c * alpha / 2 + 1e-3, 60)
    dn = run_trajectory(Boundary(c, alpha), c * alpha / 2 - 1e-3, 60)
    assert not up.stayed and not dn.stayed
    assert up.exit_sector is SectorTag.A_II
    assert dn.exit_sector is SectorTag.A_IV


def test_trajectory_against_pattern_boundary_ratio():
    # x_n^2 equals the ratio of boundary edge vectors of the evolved map
    import hexcircle as hc
    c, alpha = 1.4, math.pi / 3
    params = hc.PatternParams(alphas=((math.pi - alpha) / 2,) * 2 + (alpha,), c=c)
    zf = hc.generate_z(params, 9)
    traj = run_trajectory(Boundary(c, alpha), c * alpha / 2, 4)
    for n in range(4):
        num = complex(zf[(n, 0, -n - 1)] - zf[(n, 0, -n)])
        den = complex(zf[(n + 1, 0, -n)] - zf[(n, 0, -n)])
        x = cmath.sqrt(num / den)
        assert abs(x - cmath.exp(1j * traj.betas[n])) <= 1e-10


def test_shoot_bracket_contains_closed_form_angle():
    for c in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75):
        for alpha in (math.pi / 6, math.pi / 4, math.pi / 3, 2 * math.pi / 5):
            lo, hi = shoot(Boundary(c, alpha), 8, 1e-5)
            target = c * alpha / 2
            assert lo <= target <= hi
            assert hi - lo <= 1e-5 + 1e-12


def test_shoot_c1_collapses_on_alpha_half():
    lo, hi = shoot(Boundary(1.0, math.pi / 3), 10, 1e-6)
    assert lo <= math.pi / 6 <= hi
    assert hi - lo <= 1e-6 + 1e-12


def test_shoot_width_shrinks_with_stay_requirement():
    # with a loose width target the bracket size is driven by the nested
    # stay requirement alone and must shrink as the stay count grows
    c, alpha = 1.5, math.pi / 3
    widths = []
    for n_stay in (4, 8, 13):
        lo, hi = shoot(Boundary(c, alpha), n_stay, tol=1.0)
        widths.append(hi - lo)
    assert widths[0] > widths[1] > widths[2] > 0


def test_shoot_refuses_a_tolerance_below_the_angle_resolution(monkeypatch):
    # refused before a single trajectory runs or a run is set up
    monkeypatch.setattr(painleve, "run_trajectory", None)
    monkeypatch.setattr(painleve, "RunSetup", None)
    with pytest.raises(ValueError, match="double resolution"):
        shoot(Boundary(1.5, math.pi / 3), 5, 1e-300)


def test_run_trajectory_rejects_bad_start():
    with pytest.raises(ValueError):
        run_trajectory(Boundary(1.3, math.pi / 3), -0.5, 10)


def _mpc(point, bits):
    return mp.mpc(mp.ldexp(point[0], -bits), mp.ldexp(point[1], -bits))


def test_fixed_step_matches_the_mpc_step_at_twice_the_digits():
    rng = random.Random(11)
    for k in range(60):
        c, alpha = rng.uniform(0.05, 2.0), rng.uniform(0.2, 3.0)
        n, dps = k % 16, rng.choice((30, 60, 150))  # n = 0 included
        bits = fixed_bits(dps)
        consts = painleve._constants(Boundary(c, alpha), bits)
        prev, cur = (fixed_unit(rng.uniform(0.02, 0.98) * alpha, bits)
                     for _ in range(2))
        got, drift = painleve._fixed_step(n, prev, cur, consts, bits)
        with mp.workdps(2 * dps):
            want, _ = painleve._step_raw(n, _mpc(prev, bits), _mpc(cur, bits), mp.mpf(c),
                                         mp.expj(mp.mpf(alpha)))
            err = abs(_mpc(got, bits) - want)
        assert err <= 10.0 ** (5 - dps), (c, alpha, n, dps)
        assert drift <= 10.0 ** (5 - dps)


def test_fixed_step_raises_at_an_exact_previous_pair_pole():
    # x_prev x = -epsilon: D1 = epsilon + x_prev x is exactly zero
    bits = 200
    consts = painleve._constants(Boundary(1.3, math.pi / 3), bits)
    er, ei = consts[0]
    with pytest.raises(painleve.StepSingularError, match="previous-pair pole"):
        painleve._fixed_step(2, (1 << bits, 0), (-er, -ei), consts, bits)
    with mp.workdps(60):
        eps = _mpc(consts[0], bits)
        with pytest.raises(painleve.StepSingularError, match="previous-pair pole"):
            painleve._step_raw(2, mp.mpc(1), -eps, 1.3, eps)


def test_sector_of_signs_equals_sector_of_beta():
    bits = 120
    for alpha in (0.3, math.pi / 3, math.pi / 2, 2.5, 3.0):
        er, ei = fixed_unit(alpha, bits)
        rays = (0.0, alpha, alpha - math.pi, math.pi)
        for k in range(-180, 181):
            beta = k * math.pi / 180 + 1e-3
            if -math.pi < beta <= math.pi and min(abs(beta - r) for r in rays) > 1e-6:
                xr, xi = fixed_unit(beta, bits)
                got = sector_of_signs(xi, xi * er - xr * ei)
                assert got is sector_of_beta(beta, alpha), (alpha, beta)
        # the points 1, epsilon, -1 and -epsilon, exactly
        for (xr, xi), beta in (((1 << bits, 0), 0.0), ((er, ei), alpha),
                               ((-1 << bits, 0), math.pi),
                               ((-er, -ei), alpha - math.pi)):
            got = sector_of_signs(xi, xi * er - xr * ei)
            assert got is sector_of_beta(beta, alpha), (alpha, beta)


@pytest.mark.parametrize("call", [
    lambda: run_trajectory(Boundary(1.5, 4.0), 0.5, 3),
    lambda: run_trajectory(Boundary(1.5, math.pi), 0.5, 3, dps=40),
    lambda: growth_rate(Boundary(3.0, 1.0)),
    lambda: shoot(Boundary(math.nan, 1.0), 3, 1e-3),
    lambda: Boundary(0.0, 1.0).x0(),
])
def test_domain_errors_name_the_parameter(call):
    with pytest.raises(ValueError, match=r"(exponent c|angle alpha) must satisfy"):
        call()


def test_growth_rate_keeps_the_shoot_precision_plans():
    plans = [required_dps(20, max(growth_rate(Boundary(c, alpha)), 1.5), 30)
             for c in (0.5, 1.0, 1.5, 1.9) for alpha in (math.pi / 3, math.pi / 2)]
    assert plans == [52, 45, 52, 44, 52, 45, 53, 46]


# Brackets of the mpc implementation.  c/2 is not dyadic here, so no
# bisection midpoint is the target itself and no decision rests on rounding.
SHOOT_PINS = [
    (1.3, math.pi / 3, (0.6806784082716929, 0.6806784082869318)),
    (1.3, math.pi / 2, (1.0210175749659798, 1.0210176685927372)),
    (1.9, math.pi / 3, (0.9948376736356247, 0.9948376736375298)),
    (1.9, math.pi / 2, (1.4922565034331448, 1.4922565151364897)),
]


@pytest.mark.parametrize("c, alpha, bracket", SHOOT_PINS)
def test_shoot_brackets_are_pinned_where_c_half_is_not_dyadic(c, alpha, bracket):
    assert shoot(Boundary(c, alpha), 10, 1e-6) == bracket


# The brackets of the double-sweep benchmark's (c, alpha) points, as the
# shoot that set up a run per bisection start gave them.
DOUBLE_SWEEP_PINS = [
    (0.5, math.pi / 3, (0.26179938779914935, 0.2617993878067688)),
    (0.5, math.pi / 2, (0.3926990816987241, 0.39269912851210276)),
    (1.0, math.pi / 3, (0.5235987755906794, 0.5235987755982989)),
    (1.0, math.pi / 2, (0.7853981633974482, 0.7853982570242055)),
    (1.5, math.pi / 3, (0.7853981633898287, 0.7853981633974484)),
    (1.5, math.pi / 2, (1.1780971982827937, 1.1780972450961726)),
    (1.9, math.pi / 3, (0.9948376736356247, 0.9948376736375298)),
    (1.9, math.pi / 2, (1.4922565034331448, 1.4922565151364897)),
]


@pytest.mark.parametrize("c, alpha, bracket", DOUBLE_SWEEP_PINS)
def test_shoot_brackets_of_the_double_sweep_points_are_pinned(c, alpha, bracket):
    b = Boundary(c, alpha)
    assert shoot(b, 10, 1e-6) == bracket
    # their horizon is the floor 2 n_stay + 80
    assert shoot_horizon(alpha, growth_rate(b), 10, 1e-6) == 100


def test_shoot_sets_up_one_run_for_all_its_starts(monkeypatch):
    # _constants is built once by growth_rate and once for every bisection
    # start, where a set-up per start built it 27 to 42 times in all at the
    # double-sweep points
    calls = []
    constants = painleve._constants
    monkeypatch.setattr(painleve, "_constants", lambda *a: calls.append(a) or constants(*a))
    monkeypatch.setattr(painleve, "run_trajectory", None)
    walks = []
    walk = RunSetup.walk
    monkeypatch.setattr(RunSetup, "walk", lambda self, *a: walks.append(a) or walk(self, *a))
    assert shoot(Boundary(1.5, math.pi / 3), 10, 1e-6) == DOUBLE_SWEEP_PINS[4][2]
    assert len(calls) == 2 and len(walks) > 20
    assert calls[0][1] < calls[1][1]  # growth_rate's width, then the planned one


def test_walks_of_one_set_up_are_the_runs_of_their_own():
    for dps in (None, 40):
        b = Boundary(1.3, math.pi / 3)
        run = RunSetup(b, dps)
        for beta0 in (None, 0.0, 0.3, 0.6806784082716929, b.alpha):
            a, r = run.walk(beta0, 30), run_trajectory(b, beta0, 30, dps=dps)
            assert (a.points, a.sectors, a.exit_index, a.max_unitarity_drift) == (
                r.points, r.sectors, r.exit_index, r.max_unitarity_drift)


# Near alpha = pi the separatrix is only weakly unstable: a start 1e-6 off
# it needs ceil(ln(2 alpha / tol) / ln g) steps to exit (204 at c = 1.5,
# 0.95 pi; 1025 at 0.98 pi), past the floor of 100 steps.  With the floor
# alone, each of these brackets missed the separatrix angle.
@pytest.mark.parametrize("c, frac", [(0.5, 0.95), (0.5, 0.98), (1.5, 0.95), (1.5, 0.98),
                                     (1.9, 0.99)])
def test_shoot_brackets_the_separatrix_near_pi(c, frac):
    b = Boundary(c, frac * math.pi)
    lo, hi = shoot(b, 10, 1e-6)
    assert lo <= b.beta0() <= hi and hi - lo <= 1e-6 + 1e-12
    assert shoot_horizon(b.alpha, growth_rate(b), 10, 1e-6) > 100


def test_shoot_horizon_rule():
    assert shoot_horizon(math.pi / 3, 12.6, 10, 1e-6) == 100
    # ceil(ln(2 pi / 1e-6) / ln 1.1) = 165 steps to exit
    assert shoot_horizon(math.pi, 1.1, 10, 1e-6) == 165 + 10 + 20
    with pytest.raises(BracketError, match="MAX_HORIZON"):
        shoot_horizon(0.999 * math.pi, 1.0000407, 10, 1e-6)
    for growth in (1.0, 0.5):
        with pytest.raises(BracketError, match="growth rate"):
            shoot_horizon(math.pi / 2, growth, 10, 1e-6)


def test_shoot_refuses_a_horizon_past_the_cap_before_any_run(monkeypatch):
    b = Boundary(1.5, 0.999 * math.pi)
    growth = growth_rate(b)
    monkeypatch.setattr(painleve, "growth_rate", lambda b: growth)
    monkeypatch.setattr(painleve, "RunSetup", None)
    with pytest.raises(BracketError, match=r"horizon of 3\d{5} steps"):
        shoot(b, 10, 1e-6)


# Bracket widths of the mpc implementation where c alpha / 2 is itself a
# bisection midpoint of [0, alpha]: the run started on it leaves the sector
# on a side set by rounding, so only the width and the target are kept.
DYADIC_WIDTHS = [
    (0.5, math.pi / 3, 7.620e-12), (0.5, math.pi / 2, 4.681e-08),
    (1.0, math.pi / 3, 7.620e-12), (1.0, math.pi / 2, 9.363e-08),
    (1.5, math.pi / 3, 7.620e-12), (1.5, math.pi / 2, 4.681e-08),
]


@pytest.mark.parametrize("c, alpha, width", DYADIC_WIDTHS)
def test_shoot_on_a_dyadic_target_keeps_the_width_with_the_target_at_an_end(c, alpha, width):
    lo, hi = shoot(Boundary(c, alpha), 10, 1e-6)
    target = c * alpha / 2
    assert hi - lo == pytest.approx(width, rel=1e-3)
    assert lo <= target <= hi
    assert min(target - lo, hi - target) <= 4 * math.ulp(target)


def test_the_exact_start_holds_the_digits_of_its_width():
    # The exact-start tie the boundary check of a document builds on: from
    # the pi-fraction, a dps-60 run from the separatrix start stays within
    # 1e-44 of a dps-120 run through n = 19 (2.9e-67 at n = 0, 1.7e-46 at
    # n = 19, the separatrix growth of its rounding).  From the double angle
    # it follows the separatrix of that rounded angle, about 6e-17 away at
    # every n, which shows the tie can tell the two starts apart.
    from fractions import Fraction
    exact = Boundary(1.5, math.pi / 3, Fraction(1, 3))
    ref = run_trajectory(exact, None, 19, dps=120)
    runs = {"exact": run_trajectory(exact, None, 19, dps=60),
            "float": run_trajectory(Boundary(1.5, math.pi / 3), None, 19, dps=60)}
    with mp.workdps(150):
        gaps = {name: [abs(_mpc(p, t.bits) - _mpc(q, ref.bits))
                       for p, q in zip(t.points, ref.points)] for name, t in runs.items()}
    assert len(ref.points) == 20 and all(len(g) == 20 for g in gaps.values())
    assert max(gaps["exact"]) <= 1e-44 and gaps["exact"][0] <= 1e-66
    assert all(1e-17 <= g <= 1e-16 for g in gaps["float"])


@pytest.mark.parametrize("alpha", [0.7, 1.0, math.pi / 3, 2.0])
def test_c_2_from_epsilon_is_refused_at_every_precision(alpha):
    # the n = 0 solve is 0/0 there: rounding alone once picked A_II, A_III,
    # a singular solve or a zero image, a different one per precision
    from fractions import Fraction
    b = Boundary(2.0, alpha)
    exact = Boundary(2.0, math.pi / 3, Fraction(1, 3))
    for dps in (None, 40, 60, 100):
        width = None if dps is None else fixed_bits(dps) + painleve.ANGLE_GUARD_BITS
        for bd, beta0 in ((b, None), (b, alpha), (exact, None), (exact, exact.angle(width))):
            with pytest.raises(painleve.StepSingularError,
                               match=r"^Moebius solve singular at n=0$"):
                run_trajectory(bd, beta0, 3, dps=dps)
        # with no step there is no solve: the start is the ray x = epsilon
        assert run_trajectory(b, None, 0, dps=dps).sectors == [SectorTag.BOUNDARY_HIGH]
    for call in (lambda: growth_rate(b), lambda: shoot(b, 5, 1e-3)):
        with pytest.raises(painleve.StepSingularError,
                           match=r"^Moebius solve singular at n=0$"):
            call()


@pytest.mark.parametrize("c, alpha", [(1.5, math.pi / 3), (0.25, math.pi / 3),
                                      (1.9, 2 * math.pi / 5), (1.5, math.pi / 10)])
def test_separatrix_meets_the_painleve_law(c, alpha):
    # beta_n -> alpha / 2 with n (beta_n - alpha / 2) -> (c - 1) tan(alpha / 2) / 2:
    # the Richardson value from n = 80 and 160 matches to 2.7e-5 relative at
    # worst on these points
    run = run_trajectory(Boundary(c, alpha), None, 160, dps=400)
    assert run.exit_index is None and len(run.points) == 161
    gap = [run.beta(n) - alpha / 2 for n in (80, 160)]
    law = (c - 1) * math.tan(alpha / 2) / 2
    assert abs(2 * 160 * gap[1] - 80 * gap[0] - law) <= 1e-4 * abs(law)
