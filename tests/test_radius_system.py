import math
import random
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import dps_to_prec, from_man_exp, round_nearest

from hexcircle import lattice, radius_system
from hexcircle.lattice import border_fill_stencil, hex_stencil_slots
from hexcircle.numerics import GUARD_BITS, fixed_bits, fixed_real, parse_angles
from hexcircle.pattern_core import PatternParams, generate_z
from hexcircle.radius_system import (POLE, DegenerateStencilError,
                                     PositivityViolation, angle_constants,
                                     border_solve, compare_routes, dual,
                                     equation_defects, extract_radii, generate_radii,
                                     hex_solve, is_pole, is_positive,
                                     max_equation_residual, seeds_from_pattern,
                                     tri_solve_slot2, z2_initial)

import oracle
from oracle import border_residual, hex_residual, isotropic_params, tri_residual

ISO = (math.pi / 3,) * 3
DISTINCT = (0.7, 1.1, math.pi - 1.8)
BITS = fixed_bits(40)


def _fixed(x):
    return fixed_real(x, BITS)


def _on_integers(solve):
    """An integer solver of the package read through floats: its float
    arguments (the radii and c) rounded to integers over 2**BITS, the
    result divided back."""
    def run(*args, **kw):
        def read(x):
            return _fixed(x) if type(x) is float else x
        return solve(*map(read, args), bits=BITS,
                     **{k: read(v) for k, v in kw.items()}) / 2 ** BITS
    return run


def _forms(name):
    """The radius solver name in the oracle's float form and as the
    package's integer solver at BITS."""
    return getattr(oracle, name), _on_integers(getattr(radius_system, name))


@pytest.fixture(scope="module")
def oracle_field():
    params = PatternParams(alphas=DISTINCT, c=1.37)
    zf = generate_z(params, 12)
    return params, extract_radii(zf)


def test_border_solve_constant_solution():
    params = PatternParams(alphas=ISO, c=1.2)
    for solve in _forms("border_solve"):
        for rho in (0.5, 1.0, 2.5):
            for idx in (2, 3):
                assert solve(rho, rho, rho, idx, params) == pytest.approx(rho)


def test_border_solve_matches_oracle(oracle_field):
    params, rr = oracle_field
    for solve in _forms("border_solve"):
        for n in range(1, 5):
            got = solve(rr[(n, 0, -n)], rr[(n, 1, -n)], rr[(n - 1, 0, -n + 1)], 3, params)
            assert got == pytest.approx(rr[(n + 1, 0, -n - 1)], abs=1e-9)
            got = solve(rr[(0, n, -n)], rr[(1, n, -n)], rr[(0, n - 1, -n + 1)], 2, params)
            assert got == pytest.approx(rr[(0, n + 1, -n - 1)], abs=1e-9)


def test_border_solve_self_consistency_random():
    params = PatternParams(alphas=DISTINCT, c=0.9)
    t3 = math.cos(DISTINCT[2])
    for solve in _forms("border_solve"):
        rng = random.Random(23)
        checked = 0
        for _ in range(200):
            r, r2, r3 = (rng.uniform(0.2, 3.0) for _ in range(3))
            r1 = solve(r, r2, r3, 3, params)
            if r1 > 0:
                checked += 1
                assert abs(border_residual(r, r1, r2, r3, t3)) <= 1e-12 * max(r, r1, r2, r3) ** 3
        assert checked > 50


def test_hex_solve_constant_at_c1():
    for solve in _forms("hex_solve"):
        for rho in (0.3, 1.0, 4.0):
            out = solve(2, 1, -3, r1=rho, r3=rho, r4=rho, r5=rho, r6=rho, c=1.0)
            assert out == pytest.approx(rho)


def test_hex_solve_diagonal_recurrence():
    # label (K,K,-K-1) couples only the unknown pair: r2 = r5 (2K+c)/(2K+2-c)
    for solve in _forms("hex_solve"):
        for c in (0.5, 1.5):
            for K in range(0, 4):
                out = solve(K, K, -K - 1, r5=1.7, c=c)
                assert out == pytest.approx(1.7 * (2 * K + c) / (2 * K + 2 - c))
        assert solve(0, 0, -1, r5=1.0, c=1.5) == pytest.approx(3.0)


def test_hex_solve_border_reduction_formula():
    # label (K,L,-K-1): r2 = r5 ((2L+c) r1 + (2K+c) r4)/((2K+2-c) r1 + (2L+2-c) r4)
    for solve in _forms("hex_solve"):
        rng = random.Random(4)
        for _ in range(40):
            K, L = rng.randint(0, 5), rng.randint(0, 5)
            c = rng.uniform(0.2, 1.8)
            r1, r4, r5 = (rng.uniform(0.2, 3.0) for _ in range(3))
            got = solve(K, L, -K - 1, r1=r1, r4=r4, r5=r5, c=c)
            want = r5 * ((2 * L + c) * r1 + (2 * K + c) * r4) / (
                (2 * K + 2 - c) * r1 + (2 * L + 2 - c) * r4)
            assert got == pytest.approx(want, rel=1e-12)


def test_hex_residual_on_oracle(oracle_field):
    params, rr = oracle_field
    count = 0
    for site in rr:
        label = (site[0] - 1, site[1] - 1, site[2])
        res = hex_residual(label, rr, params.c)
        if res is not None:
            count += 1
            assert abs(res) <= 1e-9
    assert count > 50


def tri_solve(r1, r2, r3, params):
    """Circle through the pairwise intersection points of three circles:
    the three-circle relation solved for its base."""
    s1, s2, s3 = angle_constants(params)[0]
    return (r1 * r2 * s2 + r2 * r3 * s3 + r3 * r1 * s1) / (r1 * s3 + r2 * s1 + r3 * s2)


def test_tri_solve_values():
    params = PatternParams(alphas=ISO, c=1.0)
    assert tri_solve(2.0, 2.0, 2.0, params) == pytest.approx(2.0)
    assert tri_solve(1.0, 2.0, 3.0, params) == pytest.approx(11 / 6)


def test_tri_solve_positive_for_positive_inputs():
    params = PatternParams(alphas=DISTINCT, c=1.1)
    rng = random.Random(31)
    for _ in range(300):
        r1, r2, r3 = (rng.uniform(1e-3, 10.0) for _ in range(3))
        assert tri_solve(r1, r2, r3, params) > 0


def test_tri_relations_on_oracle(oracle_field):
    params, rr = oracle_field
    hits = 0
    for (K, L, M) in rr:
        minus = [(K, L - 1, M), (K, L, M - 1), (K - 1, L, M)]
        if all(s in rr for s in minus):
            hits += 1
            r1, r2, r3 = (rr[s] for s in minus)
            assert abs(tri_residual(rr[(K, L, M)], r1, r2, r3, params)) <= 1e-8
            # slot-2 rearrangement used by the fill
            for solve in _forms("tri_solve_slot2"):
                assert solve(rr[(K, L, M)], r1, r3, params) == pytest.approx(r2, abs=1e-8)
    assert hits > 30


def test_generate_radii_c1_unit():
    rf = generate_radii(isotropic_params(1.0), 8)
    for v in rf.values.values():
        assert v == pytest.approx(1.0, abs=1e-12)


def test_generate_radii_positive_and_tagged():
    rf = generate_radii(isotropic_params(1.5), 10)
    assert all(v > 0 for v in rf.values.values())
    assert rf.generation == 10


def test_generate_radii_matches_oracle_shallow_double():
    worst, count = compare_routes(isotropic_params(1.2), 4)
    assert count > 20
    assert worst <= 1e-10


def test_generate_radii_matches_oracle_deep():
    worst, count = compare_routes(isotropic_params(1.5), 8)
    assert count > 60
    assert worst <= 1e-8


def test_compare_routes_keeps_a_nan_gap(monkeypatch):
    # NaN evolved-map radii must not leave the worst gap at 0.0
    extract = radius_system.extract_radii
    monkeypatch.setattr(radius_system, "extract_radii",
                        lambda zf: dict.fromkeys(extract(zf), math.nan))
    worst, count = compare_routes(isotropic_params(1.5), 4)
    assert math.isnan(worst) and count > 20


def test_diagonal_recurrence_on_field(oracle_field):
    # the (K,K,-K) diagonal corresponds to the third coordinate axis of the
    # vertex lattice, so it is visible through the evolved-map radii
    params, rr = oracle_field
    c = params.c
    for K in range(0, 5):
        ratio = rr[(K + 1, K + 1, -K - 1)] / rr[(K, K, -K)]
        assert ratio == pytest.approx((2 * K + c) / (2 * K + 2 - c), abs=1e-10)
    rf = generate_radii(isotropic_params(1.5), 8)
    assert rf.values[(1, 1, -1)] / rf.values[(0, 0, 0)] == pytest.approx(
        1.5 / 0.5, rel=1e-12)


def test_perturbed_seed_breaks_positivity():
    params = isotropic_params(1.5)
    seeds = seeds_from_pattern(params)
    for fac in (1 + 1e-3, 1 - 1e-3):
        bad = dict(seeds)
        bad[(1, 0, -1)] = seeds[(1, 0, -1)] * fac
        with pytest.raises(PositivityViolation) as err:
            generate_radii(params, 16, seeds=bad)
        assert err.value.site is not None


def test_seed_ratio_matches_closed_form():
    from hexcircle.riccati import Boundary, p0_closed
    params = PatternParams(alphas=DISTINCT, c=1.37)
    seeds = seeds_from_pattern(params)
    assert seeds[(1, 0, -1)] / seeds[(0, 0, 0)] == pytest.approx(
        p0_closed(Boundary(1.37, DISTINCT[2])), abs=1e-12)
    assert seeds[(0, 1, -1)] / seeds[(0, 0, 0)] == pytest.approx(
        p0_closed(Boundary(1.37, DISTINCT[1])), abs=1e-12)


def test_z2_initial_values():
    params = PatternParams(alphas=ISO, c=2.0)
    seeds = z2_initial(params)
    assert seeds[(0, 0, 0)] == 0
    assert seeds[(1, 0, -1)] == pytest.approx(math.sin(math.pi / 3) / (math.pi / 3))
    assert seeds[(1, 0, -1)] == pytest.approx(0.8269933431326881)
    assert seeds[(1, 1, -1)] == 1.0
    aniso = PatternParams(alphas=(math.pi / 2, math.pi / 4, math.pi / 4), c=2.0)
    s2 = z2_initial(aniso)
    assert s2[(1, 0, -1)] == pytest.approx(s2[(0, 1, -1)])


def test_z2_field_positive_and_equations():
    params = PatternParams(alphas=ISO, c=2.0)
    rf = generate_radii(params, 10)
    assert all(v >= 0 for v in rf.values.values())
    zero_sites = [s for s, v in rf.values.items() if v == 0]
    assert zero_sites == [(0, 0, 0)]
    assert max_equation_residual(rf) <= 1e-9


def test_is_pole_reads_only_plus_infinity():
    assert is_pole(math.inf) and is_pole(mp.inf)
    for r in (-math.inf, -mp.inf, math.nan, mp.nan, 0.0, 1.0, mp.mpf("1e400000")):
        assert not is_pole(r), r


def test_is_positive_reads_the_sign_and_the_infinity_code():
    for r in (math.inf, mp.inf, 1e-300, 3, mp.mpf("1e-400000"), mp.mpf("1e400000")):
        assert is_positive(r), r
    for r in (0.0, 0, mp.mpf(0), -1.0, mp.mpf(-2), -math.inf, -mp.inf, math.nan, mp.nan):
        assert not is_positive(r), r


def _dual_by_mpf_operators(v):
    """dual's value as the mpf operators gave it, inside its context."""
    return POLE if v == 0 else 0.0 if is_pole(v) else 1.0 / v


@pytest.mark.parametrize("dps", [15, 40, 80])
def test_extended_dual_is_one_rounded_reciprocal_per_radius(dps):
    rf = generate_radii(_ext_params(2.0, dps), 10)
    extra = {(20, 0, -20): mp.mpf(-2), (21, 0, -21): mp.nan, (22, 0, -22): -mp.inf,
             (23, 0, -23): 0.0, (24, 0, -24): POLE, (25, 0, -25): 3}
    with mp.workdps(dps):
        extra[26, 0, -26] = mp.mpf(1) / 3
    rf.values.update(extra)
    lg = dual(rf)
    with mp.workdps(dps):
        for site, v in rf.values.items():
            want, got = _dual_by_mpf_operators(v), lg.values[site]
            assert type(got) is type(want) and repr(got) == repr(want), site
            if type(want) is mp.mpf:
                assert got._mpf_ == want._mpf_, site
    assert lg.values[0, 0, 0] == POLE and sum(map(is_pole, lg.values.values())) == 2


def test_dual_involution_and_log():
    params = PatternParams(alphas=ISO, c=2.0)
    rf = generate_radii(params, 8)
    lg = dual(rf)
    assert lg.params.c == 0.0
    assert [s for s, v in lg.values.items() if math.isinf(v)] == [(0, 0, 0)]
    assert all(v > 0 for s, v in lg.values.items() if s != (0, 0, 0))
    assert max_equation_residual(lg) <= 1e-9
    back = dual(lg)
    assert back.params.c == 2.0
    for s, v in rf.values.items():
        if math.isinf(v):
            assert math.isinf(back.values[s])
        else:
            assert back.values[s] == pytest.approx(v, rel=1e-14, abs=1e-300)


def test_dual_maps_c_system_to_complement():
    rf = generate_radii(isotropic_params(0.75), 7)
    dl = dual(rf)
    assert dl.params.c == pytest.approx(1.25)
    assert max_equation_residual(dl) <= 1e-9


def test_equation_residuals_small_on_generated_field():
    rf = generate_radii(PatternParams(alphas=DISTINCT, c=1.37), 8)
    assert max_equation_residual(rf) <= 1e-10


# -- the exact radius_eq sweep ------------------------------------------------

FRACS = (Fraction(1, 4), Fraction(1, 3), Fraction(5, 12))


def _ext_params(c, dps=40):
    # distinct exact angles, so a swapped sine or cosine shows
    return PatternParams(alphas=tuple(float(f) * math.pi for f in FRACS), c=c,
                         precision="ext", dps=dps, alpha_pi_fracs=FRACS)


def _corrupted(rf):
    bk = rf.params.backend()
    with bk.context():
        rf.values[(3, 2, -4)] *= 1 + bk.real("1e-12")
    return rf


def _reference(rf, kind, anchor, cosines):
    """The defect of one stencil from the reference relations, evaluated
    at twice the working precision with the working-precision constants."""
    v = rf.values
    if kind == "hex":
        return abs(hex_residual(anchor, v, rf.params.c))
    if kind == "border":
        st = border_fill_stencil(anchor)
        r = v[st["r"]]
        return abs(border_residual(r, v[anchor], v[st["r2"]], v[st["r3"]],
                                   cosines[st["angle_index"] - 1])) / max(r, 1) ** 3
    (K, L, M), sgn = anchor
    r, r1, r2, r3 = (v[s] for s in ((K, L, M), (K, L - sgn, M), (K, L, M - sgn),
                                    (K - sgn, L, M)))
    return abs(tri_residual(r, r1, r2, r3, rf.params)) / max(r, r1, r2, r3, 1) ** 2


@pytest.mark.parametrize("mode", ["z2", "log"])
def test_radius_sweep_matches_reference_at_twice_the_precision(mode):
    # z2 has the zero radius at the origin, log (its dual) the pole there
    rf = generate_radii(_ext_params(2.0), 8)
    if mode == "log":
        rf = dual(rf)
        rf.values[(2, 3, -4)] = math.inf  # a pole in both slots of a pair
    rf = _corrupted(rf)
    cosines = angle_constants(rf.params)[1]
    defects = equation_defects(rf)
    kinds = Counter(kind for kind, _, _ in defects)
    assert kinds["hex"] >= 30 and kinds["border"] >= 10 and kinds["tri"] >= 50
    pole_slots = Counter()
    with mp.workdps(2 * rf.params.dps):
        for kind, anchor, got in defects:
            ref = float(_reference(rf, kind, anchor, cosines))
            assert got == pytest.approx(ref, rel=1e-9, abs=0), (kind, anchor)
            if kind == "hex":
                pole_slots.update(name for name, s in hex_stencil_slots(anchor).items()
                                  if math.isinf(rf.values.get(s, 0)))
    worst = max_equation_residual(rf)
    assert worst == max(d for _, _, d in defects)
    if mode == "log":
        assert pole_slots["r2"] and pole_slots["r5"]
    else:
        assert 1e-14 <= worst <= 1e-10  # the corrupted radius


def test_six_circle_offsets_are_the_stencil_slots_of_the_label():
    # equation_defects reads the slot pairs of the label (K - 1, L - 1, M),
    # and its coefficients, from the site (K, L, M)
    for K, L, M in ((0, 0, 0), (3, 5, -7), (1, 2, 1), (-2, 4, 0)):
        slots = hex_stencil_slots((K - 1, L - 1, M))
        assert [tuple((K + k, L + l, M + m) for k, l, m in pair)
                for pair in radius_system._HEX_OFFSETS] == [
            (slots[a], slots[b]) for a, b in radius_system._HEX_PAIRS]
        assert lattice.hex_coefficients((K - 1, L - 1, M)) == (L + M, M + K, K + L - 1)


def test_radius_sweep_reads_working_precision():
    # the relations of a dps-40 fill hold far below double roundoff
    rf = generate_radii(_ext_params(2.0), 8)
    assert max_equation_residual(rf) <= 1e-35
    assert max_equation_residual(dual(rf)) <= 1e-35


@pytest.mark.parametrize("bad", [math.nan, "nan", "1e-100000", "1e400000"])
def test_radius_sweep_fails_closed(bad):
    for precision in ("double", "ext"):
        if precision == "double" and isinstance(bad, str):
            continue
        params = PatternParams(alphas=ISO, c=2.0, precision=precision)
        rf = generate_radii(params, 6)
        with mp.workdps(40):
            rf.values[(2, 0, -2)] = bad if precision == "double" else mp.mpf(bad)
        assert math.isnan(max_equation_residual(rf))
        assert equation_defects(rf) is None


def test_radius_sweep_degenerate_pair_raises():
    rf = generate_radii(PatternParams(alphas=ISO, c=1.5), 4)
    label = (1, 1, -2)
    slots = hex_stencil_slots(label)
    assert lattice.hex_coefficients(label)[2] != 0
    rf.values[slots["r2"]] = -rf.values[slots["r5"]]
    with pytest.raises(DegenerateStencilError):
        max_equation_residual(rf)


def test_radius_sweep_double_matches_ratio_form():
    rf = generate_radii(PatternParams(alphas=DISTINCT, c=1.37), 8)
    for kind, anchor, got in equation_defects(rf):
        if kind == "hex":
            assert got == pytest.approx(abs(hex_residual(anchor, rf.values, 1.37)),
                                        rel=1e-6, abs=1e-15)


def test_dual_keeps_working_precision():
    rf = generate_radii(_ext_params(2.0, dps=80), 8)
    lg = dual(rf)
    with mp.workdps(80):
        for site, v in rf.values.items():
            if v and not math.isinf(v):
                assert lg.values[site] == 1 / v
    assert max(lg.values[(3, 2, -4)].man.bit_length(),
               lg.values[(4, 0, -4)].man.bit_length()) > 200
    assert max_equation_residual(lg) <= 1e-45


def test_fill_computes_its_angle_constants_once(monkeypatch):
    from hexcircle.numerics import Backend
    calls = Counter()
    for name in ("sin", "cos", "pi_times"):
        method = getattr(Backend, name)

        def counted(self, x, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, x)
        monkeypatch.setattr(Backend, name, counted)
    counts = []
    for n in (6, 12):
        calls.clear()
        generate_radii(_ext_params(2.0), n)
        counts.append(dict(calls))
    assert counts[0] == counts[1]


def _replayed_fill(params, n, bits=None, seeds=None):
    """The fill replayed stencil by stencil with the single-stencil solvers,
    each taking its angle constants itself: with bits the package's, on
    integers over 2**bits (from the seed rule's integers unless seeds are
    given), else the oracle's mpf solvers at the working precision, as the
    fill ran before the fixed-point route.  ({site: value}, solves per tag)."""
    read = (lambda x: x) if bits is None else (lambda x: fixed_real(x, bits))
    solvers, kw = (oracle, {}) if bits is None else (radius_system, {"bits": bits})
    read_seed = read if seeds else (lambda x: x)
    if seeds is None:
        seeds = (z2_initial if params.c == 2 else seeds_from_pattern)(params, bits)
    c, out, counts = read(params.c), {}, Counter()
    with params.backend().context():
        for entry in lattice.fill_order(n):
            site = entry.site
            if site in seeds:
                out[site] = read_seed(seeds[site])
                continue
            if entry.tag == lattice.TAG_HEX:
                label, slots = lattice.black_fill_stencil(site)
                out[site] = solvers.hex_solve(*label, c=c, **kw, **{
                    name: out.get(slots[name]) for name in ("r1", "r3", "r4", "r5", "r6")})
            elif entry.tag == lattice.TAG_BORDER:
                st = border_fill_stencil(site)
                out[site] = solvers.border_solve(out[st["r"]], out[st["r2"]], out[st["r3"]],
                                                 st["angle_index"], params, **kw)
            else:
                st = lattice.tri_fill_stencil(site)
                out[site] = solvers.tri_solve_slot2(out[st["r"]], out[st["r1"]],
                                                    out[st["r3"]], params, **kw)
            if not out[site] > 0:
                raise PositivityViolation(site=site, value=out[site], tag=entry.tag,
                                          upstream={})
            counts[entry.tag] += 1
    return out, counts


def _mpf_fill(params, n, seeds=None):
    return _replayed_fill(params, n, seeds=seeds)[0]


def test_fill_values_are_the_single_stencil_solves():
    # the once-per-fill constants leave every radius bit-identical to the
    # integer solves, each rounded once to the working precision; the
    # stored seeds are the seed rule's at the working precision
    params = _ext_params(2.0)
    rf = generate_radii(params, 10)
    bits, prec = fixed_bits(params.dps), dps_to_prec(params.dps)
    fixed, counts = _replayed_fill(params, 10, bits)
    assert list(fixed) == list(rf.values)
    seeds = z2_initial(params)
    for site, x in fixed.items():
        assert type(x) is int and type(rf.values[site]) is mp.mpf
        want = seeds[site]._mpf_ if site in seeds else from_man_exp(x, -bits, prec,
                                                                    round_nearest)
        assert rf.values[site]._mpf_ == want, site
    assert min(counts.values()) >= 10 and sum(counts.values()) >= 60
    # a double fill is the same integer solves at 53 + GUARD_BITS bits, each
    # value rounded once to a float
    for c in (2.0, 1.5):
        params, bits = isotropic_params(c), 53 + GUARD_BITS
        rf = generate_radii(params, 10)
        fixed, counts = _replayed_fill(params, 10, bits)
        assert list(fixed) == list(rf.values)
        seeds = (z2_initial if c == 2 else seeds_from_pattern)(params, bits)
        for site, x in fixed.items():
            assert type(x) is int and type(rf.values[site]) is float
            assert rf.values[site] == x / 2 ** bits, site
            assert site not in seeds or x == seeds[site]
        assert min(counts.values()) >= 10 and sum(counts.values()) >= 60


def _within_half_unit(got, exact):
    assert type(got) is int
    assert abs(got - exact * 2 ** BITS) <= Fraction(1, 2), (got, exact)


def _exact_hex(label, c, r5, pairs):
    """r2 of the six-circle relation in Fractions, radii over 2**BITS."""
    co = lattice.hex_coefficients(label)
    acc = Fraction(c, 2 ** BITS) - 1
    for cf, (ra, rb) in zip(co, pairs):
        if cf:
            acc -= cf * Fraction(ra - rb, ra + rb)
    return Fraction(r5, 2 ** BITS) * (co[2] + acc) / (co[2] - acc)


def test_integer_solves_are_within_half_a_unit_of_the_exact_solves():
    rng = random.Random(41)
    params = _ext_params(1.37)
    sines, cosines = angle_constants(params, bits=BITS)
    assert all(type(x) is int for x in sines + cosines)
    pairs_seen = Counter()
    for _ in range(200):
        radii = [_fixed(rng.uniform(0.1, 30.0)) for _ in range(6)]
        r1, r2, r3, r4, r5, r6 = radii
        c = _fixed(rng.choice((0.5, 1.37, 2.0)))
        # (K, L, -K-1) has one active pair, (2, 1, -4) and (1, 3, -6) two
        label = rng.choice(((2, 1, -3), (1, 3, -5), (2, 1, -4), (1, 3, -6)))
        co = lattice.hex_coefficients(label)
        pairs_seen[sum(map(bool, co[:2]))] += 1
        got = hex_solve(*label, r1=r1, r3=r3, r4=r4, r5=r5, r6=r6, c=c, bits=BITS)
        _within_half_unit(got, _exact_hex(label, c, r5, ((r4, r1), (r6, r3))))
        for idx in (2, 3):
            t = Fraction(cosines[idx - 1], 2 ** BITS)
            fr, f2, f3 = (Fraction(x, 2 ** BITS) for x in (r1, r2, r3))
            a_fac = fr * fr - f2 * f3 + fr * (f3 - f2) * t
            exact = -(f2 * a_fac + (f3 + f2) * fr * (fr - f2 * t)) / (
                a_fac + (f3 + f2) * (fr * t - f2))
            _within_half_unit(border_solve(r1, r2, r3, idx, params, cosines, bits=BITS), exact)
        # the cosines taken by the solve itself are the same integers
        assert border_solve(r1, r2, r3, 2, params, bits=BITS) == border_solve(
            r1, r2, r3, 2, params, cosines, bits=BITS)
        s1, s2, s3 = (Fraction(x, 2 ** BITS) for x in sines)
        fr, f1, f3 = (Fraction(x, 2 ** BITS) for x in (r4, r5, r6))
        exact = (f1 * f3 * s1 - fr * (f1 * s3 + f3 * s2)) / (fr * s1 - f1 * s2 - f3 * s3)
        _within_half_unit(tri_solve_slot2(r4, r5, r6, params, sines, bits=BITS), exact)
        assert tri_solve_slot2(r4, r5, r6, params, bits=BITS) == tri_solve_slot2(
            r4, r5, r6, params, sines, bits=BITS)
    assert pairs_seen[1] > 30 and pairs_seen[2] > 30
    # the constants lie within one unit of the working-precision ones
    with mp.workdps(60):
        for got, want in zip(sines + cosines, sum(angle_constants(_ext_params(1.37, 60)), ())):
            assert abs(got - want * 2 ** BITS) <= 1


def test_integer_solves_degenerate_denominators():
    one, params = 1 << BITS, _ext_params(1.37)
    # zero pairs at the diagonal label; c = 2 leaves co_m - acc = 0
    assert hex_solve(0, 0, -1, r5=3 * one, c=2 * one, bits=BITS) == radius_system.POLE
    assert oracle.hex_solve(0, 0, -1, r5=3.0, c=2.0) == radius_system.POLE
    # border: with t = 0, r = 2, r2 = 1 and r3 = 3/2 zero the denominator
    with pytest.raises(DegenerateStencilError):
        border_solve(2 * one, one, 3 * one // 2, 3, params, (0, 0, 0), bits=BITS)
    with pytest.raises(DegenerateStencilError):
        oracle.border_solve(2.0, 1.0, 1.5, 3, params, (0.0, 0.0, 0.0))
    # three-circle: equal sines and r = r1 + r3
    with pytest.raises(DegenerateStencilError):
        tri_solve_slot2(3 * one, one, 2 * one, params, (one, one, one), bits=BITS)
    with pytest.raises(DegenerateStencilError):
        oracle.tri_solve_slot2(3.0, 1.0, 2.0, params, (1.0, 1.0, 1.0))
    # a vanishing pair sum
    with pytest.raises(DegenerateStencilError):
        hex_solve(2, 1, -3, r1=one, r4=-one, r5=one, c=one, bits=BITS)


def test_pole_slots_keep_the_mpf_outcome():
    params = _ext_params(1.37)
    one, pole = 1 << BITS, radius_system.POLE
    sines, cosines = angle_constants(params, bits=BITS)
    with params.backend().context():
        msin, mcos = angle_constants(params)
        m = mp.mpf(1)
        # r5: both raise
        for solve, r5, c, kw in ((hex_solve, pole, 2 * one, {"bits": BITS}),
                                 (oracle.hex_solve, pole, 2.0, {})):
            with pytest.raises(DegenerateStencilError):
                solve(0, 0, -1, r5=r5, c=c, **kw)
            with pytest.raises(DegenerateStencilError):
                solve(2, 1, -4, r1=pole, r3=one if kw else m, r4=one if kw else m,
                      r5=r5, r6=one if kw else m, c=c, **kw)
        # any other slot: NaN on both routes
        for slot in ("r1", "r3", "r4", "r6"):
            ints = {"r1": one, "r3": 2 * one, "r4": 3 * one, "r5": one, "r6": one, slot: pole}
            mpfs = {k: v if v == pole else mp.mpf(v) / one for k, v in ints.items()}
            assert math.isnan(hex_solve(2, 1, -4, c=one, bits=BITS, **ints))
            assert mp.isnan(oracle.hex_solve(2, 1, -4, c=1.0, **mpfs))
        for i in range(3):
            ints = [one, 2 * one, 3 * one]
            ints[i] = pole
            mpfs = [v if v == pole else mp.mpf(v) / one for v in ints]
            for idx in (2, 3):
                assert math.isnan(border_solve(*ints, idx, params, cosines, bits=BITS))
                assert mp.isnan(oracle.border_solve(*mpfs, idx, params, mcos))
            assert math.isnan(tri_solve_slot2(*ints, params, sines, bits=BITS))
            assert mp.isnan(oracle.tri_solve_slot2(*mpfs, params, msin))
    # and through the fill: a pole seed under a three-circle and border solve
    seeds = seeds_from_pattern(params)
    seeds[(1, 0, -1)] = pole
    for fill in (generate_radii, _mpf_fill):
        with pytest.raises(PositivityViolation) as err:
            fill(params, 4, seeds=seeds)
        assert err.value.site == (1, 1, -2) and mp.isnan(err.value.value)
    seeds[(1, 0, -1)], seeds[(0, 0, 0)] = seeds[(0, 0, 0)], pole
    for fill in (generate_radii, _mpf_fill):
        with pytest.raises(DegenerateStencilError):
            fill(params, 4, seeds=seeds)


@pytest.mark.parametrize("precision", ["double", "ext"])
def test_a_seed_neither_finite_nor_a_pole_is_refused(precision):
    # a NaN or -inf seed raises before the fill; +inf is a pole, which the
    # fill takes, and fails positivity on
    params = isotropic_params(1.5, precision=precision, dps=40)
    for bad in (math.nan, -math.inf, mp.nan, mp.ninf):
        seeds = seeds_from_pattern(params)
        seeds[(1, 0, -1)] = bad
        with pytest.raises(ValueError, match="is not finite"):
            generate_radii(params, 4, seeds=seeds)
    seeds[(1, 0, -1)] = radius_system.POLE
    with pytest.raises(PositivityViolation):
        generate_radii(params, 4, seeds=seeds)


@pytest.mark.parametrize("n", [8, 16])
def test_double_fill_at_c_1_is_exactly_the_unit_radii(n):
    # the integer seeds round to 1 exactly; spokes' means of a double run
    # were 2.6e-9 off at n = 8
    for spec in ("iso", "0.7,1.1,1.3415926535897931"):
        alphas, fracs = parse_angles(spec)
        params = PatternParams(alphas, 1.0, alpha_pi_fracs=fracs)
        assert set(generate_radii(params, n).values.values()) == {1.0}, spec


def test_perturbed_seed_breaks_positivity_extended():
    params = isotropic_params(1.5, precision="ext", dps=40)
    seeds = seeds_from_pattern(params)
    for fac in ("1.001", "0.999"):
        bad = dict(seeds)
        with mp.workdps(40):
            bad[(1, 0, -1)] = seeds[(1, 0, -1)] * mp.mpf(fac)
        with pytest.raises(PositivityViolation) as err:
            generate_radii(params, 16, seeds=bad)
        assert err.value.site is not None and not err.value.value > 0
        assert type(err.value.value) is mp.mpf
        assert err.value.upstream and all(type(v) is mp.mpf
                                           for v in err.value.upstream.values())
        with pytest.raises(PositivityViolation) as ref:
            _mpf_fill(params, 16, seeds=bad)
        assert ref.value.site == err.value.site


@pytest.mark.parametrize("c, dps", [(2.0, 80), (1.5, 40)])
def test_fixed_point_fill_is_as_accurate_as_the_mpf_fill(c, dps):
    # against a fill at 2 dps + 40 digits.  From the seeds rounded at dps,
    # which set most of the mpf route's error, and with the reference on
    # the same seeds, the fill's own rounding shows: far below that of the
    # mpf solves
    n, wide = 12, 2 * dps + 40
    params = isotropic_params(c, precision="ext", dps=dps)
    seeds = z2_initial(params) if c == 2 else seeds_from_pattern(params)
    got, mpf_route = generate_radii(params, n).values, _mpf_fill(params, n)
    same_seeds = generate_radii(params, n, seeds=seeds).values
    wide_params = isotropic_params(c, precision="ext", dps=wide)
    with mp.workdps(wide):
        for ref, values, factor in (
                (generate_radii(wide_params, n).values, got, 1),
                (generate_radii(wide_params, n, seeds=seeds).values, same_seeds, 1000)):
            def err(values):
                return max(abs(values[s] - r) / r for s, r in ref.items() if r)
            assert factor * err(values) <= err(mpf_route)
            assert err(values) <= mp.mpf(10) ** (30 - dps)


@pytest.mark.parametrize("c, dps, n", [(1.5, 40, 12), (2.0, 80, 48)])
def test_fill_seeds_are_taken_beyond_the_fill_width(c, dps, n):
    # the seed rule at 2**-P brings the fill at least 1000 times closer to
    # a fill at 2 dps + 40 digits than a start from the seeds at dps (as
    # the fill read them before); the stored seeds stay those at dps
    params = isotropic_params(c, precision="ext", dps=dps)
    rule = z2_initial if c == 2 else seeds_from_pattern
    seeds, bits = rule(params), fixed_bits(dps)
    got = generate_radii(params, n).values
    from_dps_seeds = generate_radii(params, n, seeds=seeds).values
    ref = generate_radii(isotropic_params(c, precision="ext", dps=2 * dps + 40), n).values
    assert all(got[s] == seeds[s] for s in seeds)
    with mp.workdps(2 * dps + 40):
        fixed = rule(params, bits)
        assert all(abs(mp.ldexp(fixed[s], -bits) - ref[s]) <= mp.ldexp(1, -bits)
                   for s in seeds)

        def err(values):
            return max(abs(values[s] - r) / r for s, r in ref.items() if r and not mp.isinf(r))
        assert 1000 * err(got) <= err(from_dps_seeds)


SEED_TRIPLES = ("iso", "1/4pi,1/4pi,1/2pi", "1/6pi,1/3pi,1/2pi", "1/6pi,1/6pi,2/3pi",
                "1/5pi,7/20pi,9/20pi")


def _reference_seeds(params, dps):
    """The seeds of params at dps digits: sin(a)/a for c = 2, else the
    spokes |Z(a) - Z(b)| of a depth-2 run."""
    fracs = params.alpha_pi_fracs
    if params.c == 2:
        with mp.workdps(dps):
            a2, a3 = (mp.pi * f.numerator / f.denominator for f in fracs[1:])
            return {(0, 0, 0): mp.mpf(0), (1, 0, -1): mp.sin(a3) / a3,
                    (0, 1, -1): mp.sin(a2) / a2, (1, 1, -1): mp.mpf(1)}
    z = generate_z(PatternParams(params.alphas, params.c, precision="ext", dps=dps,
                                 alpha_pi_fracs=fracs), 2).values
    with mp.workdps(dps):
        return {s: abs(z[a] - z[b]) for s, (a, b) in radius_system._SEED_SPOKES.items()}


@pytest.mark.parametrize("c", [2.0, 0.5, 1.5, 1.9])
def test_stored_extended_seeds_are_correctly_rounded(c):
    # each stored seed is the one rounding of the fill's integer seed, and
    # so the working-precision rounding of the seed at 4 times the digits
    for spec in SEED_TRIPLES:
        alphas, fracs = parse_angles(spec)
        for dps in (10, 15, 20, 40, 60, 80, 100, 200):
            params = PatternParams(alphas, c, precision="ext", dps=dps, alpha_pi_fracs=fracs)
            stored = generate_radii(params, 1).values
            ref = _reference_seeds(params, 4 * dps)
            rule = z2_initial if c == 2 else seeds_from_pattern
            assert rule(params) == {s: stored[s] for s in ref}
            with mp.workprec(dps_to_prec(dps)):
                assert all(stored[s] == +r for s, r in ref.items()), (spec, dps)


# -- extract_radii ---------------------------------------------------------

def _reference_radii(zf, dps):
    """Mean of the mpmath moduli of the stored neighbor differences, at
    dps digits."""
    out = {}
    with mp.workdps(dps):
        for site, z in zf.values.items():
            if lattice.parity(site) == 0:
                d = [abs(mp.mpc(zf.values[nb]) - mp.mpc(z))
                     for nb in lattice.axis_neighbors(site) if nb in zf.values]
                if d:
                    out[lattice.to_sub(site)] = mp.fsum(d) / len(d)
    return out


@pytest.mark.parametrize("dps", [40, 80])
def test_extract_radii_matches_reference_at_twice_the_precision(dps):
    zf = generate_z(_ext_params(1.37, dps), 10)
    got = extract_radii(zf)
    ref = _reference_radii(zf, 2 * dps)
    assert got.keys() == ref.keys() and len(got) > 100
    with mp.workdps(2 * dps):
        for sub, want in ref.items():
            assert isinstance(got[sub], mp.mpf)
            assert abs(got[sub] - want) <= want * mp.mpf(10) ** -dps, sub
    # a reconstructed c = 2 layout: double vertices, and a center whose
    # neighbors all coincide with it (zero radius)
    rz = generate_radii(_ext_params(2.0, dps=dps), 8)
    from hexcircle.geometry import reconstruct
    zr = reconstruct(rz)
    got, ref = extract_radii(zr), _reference_radii(zr, 2 * dps)
    assert got[(0, 0, 0)] == 0 and ref[(0, 0, 0)] == 0
    with mp.workdps(2 * dps):
        assert all(abs(got[s] - ref[s]) <= ref[s] * mp.mpf(10) ** -dps for s in ref)


def _fdiv_radii(zf):
    """extract_radii's extended mean as an mpf division: per even site with
    a stored neighbor, mp.fdiv of the integer sum of roots by the integer
    count * one * 2**g, at the working precision."""
    sq_of, one = radius_system.axis_sq_distances(zf)
    out = {}
    with zf.params.backend().context():
        bits = mp.mp.prec + 32
        for site in zf.values:
            nbs = [nb for nb in lattice.axis_neighbors(site) if nb in zf.values]
            if lattice.parity(site) != 0 or not nbs:
                continue
            sq = sq_of[site]
            assert len(sq) == len(nbs)
            g = max(0, bits - max(sq).bit_length() // 2)
            roots = sum(math.isqrt(d << 2 * g) for d in sq)
            out[lattice.to_sub(site)] = mp.fdiv(roots, len(sq) * one << g)
    return out


@pytest.mark.parametrize("dps", [40, 80])
@pytest.mark.parametrize("mode", ["hex", "z2", "log"])
def test_extract_radii_rounds_as_one_mpf_division(mode, dps):
    if mode == "hex":
        zf = generate_z(_ext_params(1.37, dps), 10)
    else:
        from hexcircle.geometry import reconstruct
        rf = generate_radii(isotropic_params(2.0, precision="ext", dps=dps), 8)
        zf = reconstruct(dual(rf) if mode == "log" else rf)
    got, want = extract_radii(zf), _fdiv_radii(zf)
    assert list(got) == list(want) and len(got) > 40
    assert all(type(got[s]) is mp.mpf and got[s]._mpf_ == want[s]._mpf_ for s in want)


def test_extract_radii_double_is_the_axis_distance_mean():
    # the math.sqrt of the squares of the one distance read, not the
    # built-in abs (a hypot) of the differences
    for c in (0.5, 1.37):
        zf = generate_z(PatternParams(alphas=DISTINCT, c=c), 10)
        got = extract_radii(zf)
        want = {}
        for site, z in zf.values.items():
            if lattice.parity(site) == 0:
                dz = [zf.values[nb] - z for nb in lattice.axis_neighbors(site)
                      if nb in zf.values]
                d = [math.sqrt(w.real * w.real + w.imag * w.imag) for w in dz]
                if d:
                    want[lattice.to_sub(site)] = sum(d) / len(d)
        assert list(got) == list(want) and all(type(r) is float for r in got.values())
        assert got == want


def test_one_verify_of_a_double_hex_document_forms_the_distances_once(tmp_path, monkeypatch):
    # kite and immersion's radius pass share the one memoised read: it runs
    # once, and it looks up the axis neighbors of each center once
    from hexcircle import cli, verify
    from hexcircle.document import load_document
    from hexcircle.pattern_core import memoised
    path = str(tmp_path / "hex.pat")
    assert cli.main(["generate", "--c", "1.5", "--n", "12", "--out", path]) == 0
    doc = load_document(path)
    reads, lookups = [], Counter()
    read, neighbors = radius_system.axis_sq_distances.__wrapped__, radius_system.axis_neighbors
    monkeypatch.setattr(radius_system, "axis_sq_distances",
                        memoised(lambda zf: reads.append(zf) or read(zf)))
    monkeypatch.setattr(radius_system, "axis_neighbors",
                        lambda site: lookups.update([site]) or neighbors(site))
    report = verify.run_checks(doc)
    assert report.ok and {"kite", "immersion"} <= set(report.residuals)
    assert len(reads) == 1
    centers = [s for s in doc.vertices if lattice.parity(s) == 0]
    assert sorted(lookups) == sorted(centers) and set(lookups.values()) == {1}


@pytest.mark.parametrize("bad", ["nan", "1e400000", "1e-100000"])
def test_extract_radii_unreadable_field_gives_nan(bad):
    from hexcircle.geometry import immersion_check
    params = isotropic_params(1.5, precision="ext", dps=40)
    zf = generate_z(params, 6)
    readable = extract_radii(zf)
    with mp.workdps(40):
        zf.values[(3, 2, -1)] = mp.mpc(mp.mpf(bad), 1)
    radii = extract_radii(zf)
    # every site with a stored neighbor, as in the readable field
    assert list(radii) == list(readable) and all(mp.isnan(r) for r in radii.values())
    assert any(kind == "nonpositive-radius"
               for _, kind in immersion_check(zf).failures)
