"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""
import cmath
import math
import random
import time

import pytest
from mpmath.libmp import dps_to_prec

from hexcircle import geometry, painleve, pattern_core, radius_system, riccati
from hexcircle.numerics import required_dps
from hexcircle.pattern_core import PatternParams, generate_z
from hexcircle.riccati import Boundary
from oracle import dpii_step, isotropic_params, riccati_step, y_basis, y_closed

ISO = (math.pi / 3,) * 3
ANISO = (math.pi / 4, math.pi / 4, math.pi / 2)
ANGLE_SETS = (ISO, ANISO)
C_FULL = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
ALPHA_GRID = [math.pi / 6, math.pi / 4, math.pi / 3, 2 * math.pi / 5]


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def grid_fields():
    fields = {}
    for c in (0.5, 1.0, 1.5):
        for alphas in ANGLE_SETS:
            params = PatternParams(alphas=alphas, c=c)
            fields[(c, alphas)] = generate_z(params, 10)
    return fields


def test_c01_cross_ratio_fidelity(grid_fields):
    t0 = time.time()
    worst = max(pattern_core.max_face_residual(zf) for zf in grid_fields.values())
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(1, "cross-ratio fidelity", ok,
            f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_c02_constraint_fidelity(grid_fields):
    worst = max(pattern_core.max_constraint_residual(zf)
                for zf in grid_fields.values())
    _report(2, "constraint fidelity", worst <= 1e-9, f"max residual {worst:.2e}")


def test_c03_zero_curvature(grid_fields):
    worst = max(pattern_core.max_zero_curvature_residual(zf)
                for zf in grid_fields.values())
    _report(3, "zero curvature", worst <= 1e-9, f"max residual {worst:.2e}")


def test_c04_immersion_with_negative_control():
    all_ok = True
    detail = []
    for c in C_FULL:
        for alphas in ANGLE_SETS:
            rep = geometry.immersion_check(generate_z(PatternParams(alphas=alphas, c=c), 10))
            if not rep.ok:
                all_ok = False
                detail.append(f"flip at c={c}")
    params = isotropic_params(1.5)
    bad = {(0, 0, -1): cmath.exp(1j * (1.5 * math.pi / 3 + 0.05))}
    neg = geometry.immersion_check(generate_z(params, 10, initial_override=bad))
    control_failed = not neg.ok
    _report(4, "immersion + negative control", all_ok and control_failed,
            f"{'; '.join(detail) or 'all immersed'}, control failures "
            f"{len(neg.failures)}")


def test_c05_route_oracle_equivalence():
    worst, count = radius_system.compare_routes(isotropic_params(1.5), 8)
    _report(5, "route oracle equivalence", worst <= 1e-8 and count >= 80,
            f"max sitewise gap {worst:.2e} over {count} sites")


def test_c06_p0_closed_vs_series_vs_pattern():
    worst_series = 0.0
    worst_pattern = 0.0
    for c in C_FULL:
        for alpha in ALPHA_GRID:
            rp = Boundary(c, alpha)
            closed = riccati.p0_closed(rp)
            worst_series = max(worst_series, abs(riccati.p0_via_series(rp) - closed))
            params = PatternParams(
                alphas=((math.pi - alpha) / 2, (math.pi - alpha) / 2, alpha), c=c)
            seeds = radius_system.seeds_from_pattern(params)
            extracted = seeds[(1, 0, -1)] / seeds[(0, 0, 0)]
            worst_pattern = max(worst_pattern, abs(extracted - closed))
    ok = worst_series <= 1e-10 and worst_pattern <= 1e-8
    _report(6, "closed-form p0 triangle", ok,
            f"series gap {worst_series:.2e}, pattern gap {worst_pattern:.2e}")


def test_c07_separatrix_uniqueness_probe():
    # Riccati: separatrix positive through n=40 at extended precision, and
    # +-1e-3 relative perturbations lose positivity by n=40
    ok_pos = True
    ok_pert = True
    for c in C_FULL:
        for alpha in ALPHA_GRID:
            rp = Boundary(c, alpha)
            dps = planned_dps(rp, 40)
            if forward_separatrix(rp, 40).first_nonpositive is not None:
                ok_pos = False
            for fac in (1 + 1e-3, 1 - 1e-3):
                t = riccati.trajectory(rp, 40, p_start=riccati.p0_closed(rp) * fac,
                                       dps=dps)
                if t.first_nonpositive is None or t.first_nonpositive > 40:
                    ok_pert = False
    # Painleve horizons at a parameter point whose measured per-step
    # amplification sustains 25 double-precision steps (alpha3 = 3*pi/5;
    # at alpha3 = pi/3 the measured amplification ~12.6/step caps double
    # precision near n ~ 15 for any implementation)
    c7, a7 = 1.5, 3 * math.pi / 5
    stay_double = painleve.run_trajectory(Boundary(c7, a7), c7 * a7 / 2, 30).steps_in_sector()
    stay_ext = painleve.run_trajectory(Boundary(c7, a7), c7 * a7 / 2, 60, dps=60).steps_in_sector()
    lo, hi = painleve.shoot(Boundary(1.5, math.pi / 3), 15, 1e-6)
    target = 1.5 * (math.pi / 3) / 2
    ok_shoot = (hi - lo) <= 1e-6 and lo <= target <= hi
    ok = ok_pos and ok_pert and stay_double >= 25 and stay_ext >= 60 and ok_shoot
    _report(7, "separatrix uniqueness probe", ok,
            f"riccati pos={ok_pos} pert={ok_pert}, stays {stay_double}/25 "
            f"double {stay_ext}/60 ext, bracket width {hi - lo:.1e}")


def planned_dps(b: Boundary, n: int) -> int:
    """Digits that keep a forward run of n steps from p0 clean: n log10 of the
    separatrix growth, plus 30."""
    return required_dps(n, riccati.separatrix_growth(b), 30)


def forward_separatrix(b: Boundary, n: int):
    """The step run forward from the exact p0 at planned_dps digits."""
    dps = planned_dps(b, n)
    return riccati.trajectory(b, n, p_start=b.p0(dps_to_prec(dps)), dps=dps)


def linear_recurrence_residual(y0: float, y1: float, y2: float, n: int,
                               params: Boundary) -> float:
    """Relative residual of y_{n+2} + t(g_{n+1}+1) y_{n+1} + (t^2-1) g_n y_n."""
    t = params.t()
    res = (y2 + t * (riccati.g(n + 1, params.c) + 1) * y1
           + (t * t - 1) * riccati.g(n, params.c) * y0)
    scale = max(abs(y0), abs(y1), abs(y2), 1e-300)
    return abs(res) / scale


def test_c08_linearization():
    rng = random.Random(271)
    ok_res = True
    for c, alpha in ((1.5, math.pi / 3), (0.75, math.pi / 4), (1.25, 2 * math.pi / 5)):
        rp = Boundary(c, alpha)
        c1, c2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        ys = [y_closed(n, c1, c2, rp) for n in range(23)]
        for n in range(21):
            if linear_recurrence_residual(ys[n], ys[n + 1], ys[n + 2], n, rp) > 1e-10:
                ok_res = False
    rp = Boundary(1.5, math.pi / 3)
    t = rp.t()
    ratio = y_basis(101, rp, 2) / y_basis(100, rp, 2)
    ok_ratio = abs(ratio / (1 - t) - 1) <= 0.01
    y40, y41 = y_basis(40, rp, 2), y_basis(41, rp, 2)
    p40 = y41 / y40 + t * riccati.g(40, rp.c)
    ok_limit = abs(p40 - 1) <= 0.05
    _report(8, "linearization", ok_res and ok_ratio and ok_limit,
            f"residuals ok={ok_res}, y-ratio {ratio:.4f} vs {1 - t:.4f}, "
            f"p_40 {p40:.4f}")


def test_c09_z2_and_log():
    params = PatternParams(alphas=ISO, c=2.0)
    rf = radius_system.generate_radii(params, 10)
    zeros = [s for s, v in rf.values.items() if v == 0]
    ok_pos = zeros == [(0, 0, 0)] and all(
        v > 0 for s, v in rf.values.items() if s != (0, 0, 0))
    lg = radius_system.dual(rf)
    res = radius_system.max_equation_residual(lg)
    back = radius_system.dual(lg)
    ok_invol = back.params.c == 2.0 and all(
        (math.isinf(v) and math.isinf(back.values[s]))
        or abs(back.values[s] - v) <= 1e-12 * max(1.0, abs(v))
        for s, v in rf.values.items())
    ok = ok_pos and res <= 1e-9 and ok_invol
    _report(9, "z^2 and logarithm patterns", ok,
            f"radii positive={ok_pos}, dual residual {res:.2e}, "
            f"involution={ok_invol}")


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


def test_c10_square_grid_and_erf():
    ok_sg = True
    for c in (0.5, 1.0, 1.5):
        for alphas in ANGLE_SETS:
            sg = geometry.sg_slice(generate_z(PatternParams(alphas=alphas, c=c), 10))
            if not geometry.sg_immersion_check(sg).ok:
                ok_sg = False
    worst_rel = 0.0
    for alpha in (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2):
        for n in range(-3, 4):
            for m in range(-3, 4):
                big_r = erf_radius(n, m)
                r1, r2 = erf_radius(n + 1, m), erf_radius(n, m + 1)
                r3, r4 = erf_radius(n - 1, m), erf_radius(n, m - 1)
                res = sg_radius_residual(big_r, r1, r2, r3, r4, alpha)
                scale = big_r * big_r * (r1 + r2 + r3 + r4)
                worst_rel = max(worst_rel, abs(res) / scale)
    ok = ok_sg and worst_rel <= 1e-12
    _report(10, "square grid + erf identity", ok,
            f"slices immersed={ok_sg}, erf residual {worst_rel:.2e} of scale")


def test_c11_c1_exactness():
    from fractions import Fraction
    fracs = {ISO: (Fraction(1, 3),) * 3,
             ANISO: (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))}
    worst_r = 0.0
    for alphas in ANGLE_SETS:
        # generation 10 of the radius fill sits at evolution depth 20, past
        # the double-precision policy depth, so the fill runs extended
        params = PatternParams(alphas=alphas, c=1.0, precision="ext", dps=40,
                               alpha_pi_fracs=fracs[alphas])
        rf = radius_system.generate_radii(params, 10)
        worst_r = max(worst_r, max(abs(float(v) - 1) for v in rf.values.values()))
    worst_x = 0.0
    for alpha in (math.pi / 3, math.pi / 2):
        u = cmath.exp(1j * alpha / 2)
        eps = cmath.exp(1j * alpha)
        for n in range(0, 30):
            out = dpii_step(n, u, u, 1.0, eps)
            worst_x = max(worst_x, abs(out - u))
    rp = Boundary(1.0, math.pi / 3)
    p = 1.0
    exact_riccati = True
    for n in range(40):
        p = riccati_step(p, n, rp)
        if p != 1.0:
            exact_riccati = False
    ok = worst_r <= 1e-12 and worst_x <= 1e-13 and exact_riccati
    _report(11, "c = 1 exactness", ok,
            f"radii gap {worst_r:.1e}, step residual {worst_x:.1e}, "
            f"riccati exact={exact_riccati}")


def test_c12_cli_roundtrip_and_determinism(tmp_path):
    from hexcircle import cli
    ok = True
    detail = []
    for mode, c in (("hex", "1.5"), ("sg", "1.5"), ("z2", "2"), ("log", "2")):
        pat = str(tmp_path / f"{mode}.txt")
        if cli.main(["generate", "--c", c, "--alpha", "iso", "--n", "6",
                     "--mode", mode, "--out", pat]) != 0:
            ok = False
            detail.append(f"{mode} generate failed")
            continue
        if cli.main(["verify", pat]) != 0:
            ok = False
            detail.append(f"{mode} verify failed")
    pat = str(tmp_path / "hex.txt")
    s1, s2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    cli.main(["render", pat, "--out", s1])
    cli.main(["render", pat, "--out", s2])
    with open(s1, "rb") as fa, open(s2, "rb") as fb:
        identical = fa.read() == fb.read()
    _report(12, "cli round trip + determinism", ok and identical,
            "; ".join(detail) or "all modes verified, SVG byte-identical")
