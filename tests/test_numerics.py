"""The aligned read of a field (numerics.aligned_points, aligned_reals) and
the Backend's scalar methods."""
import cmath
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from mpmath.libmp import from_int, from_man_exp, mpf_div, round_nearest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcircle import painleve, pattern_core, radius_system, verify
from hexcircle.numerics import (MAX_DPS, MAX_EXP, MIN_EXP, Backend, aligned_points,
                                aligned_reals, div_nearest, nearest_double, quotient, raw_mpf,
                                required_dps, root_quotient)
from hexcircle.pattern_core import generate_z
from hexcircle.riccati import Boundary
from oracle import isotropic_params

EXT = Backend("ext", 40)


def _fraction(x) -> Fraction:
    if isinstance(x, mp.mpf):
        man, exp = x.man_exp  # man is unsigned
        value = Fraction(man) * Fraction(2) ** exp
        return -value if x < 0 else value
    return Fraction(x)


def _mpf(man, exp):
    with mp.workdps(60):  # wider than the mantissas: exact
        return mp.mpf((man, exp))


def _mpc(re, im):
    with mp.workdps(60):
        return mp.mpc(re, im)


# mantissas and exponents spread over the whole double range, signs and zero
floats = st.floats(allow_nan=False, allow_infinity=False)
reals = st.one_of(floats, st.just(0.0),
                  st.builds(_mpf, st.integers(-2 ** 140, 2 ** 140), st.integers(-1000, 880)))
numbers = st.one_of(st.builds(complex, floats, floats), st.builds(_mpc, reals, reals))


@settings(max_examples=300, deadline=None)
@given(a=numbers, b=numbers, k=st.integers(-10 ** 6, 10 ** 6))
def test_exact_arithmetic_matches_fractions(a, b, k):
    pts, one = aligned_points(EXT, {"a": a, "b": b})
    assert one >= 1 and one & (one - 1) == 0  # a power of two
    (xa, ya), (xb, yb) = pts["a"], pts["b"]
    ra, ia = _fraction(a.real), _fraction(a.imag)
    rb, ib = _fraction(b.real), _fraction(b.imag)

    def value(x, y, scale=one):
        return Fraction(x, scale), Fraction(y, scale)

    assert value(xa, ya) == (ra, ia) and value(xb, yb) == (rb, ib)
    assert value(xa + xb, ya + yb) == (ra + rb, ia + ib)
    assert value(xa - xb, ya - yb) == (ra - rb, ia - ib)
    product = (ra * rb - ia * ib, ra * ib + ia * rb)
    px, py = xa * xb - ya * yb, xa * yb + ya * xb
    assert value(px, py, one * one) == product
    assert value(xa * k, ya * k) == (ra * k, ia * k)
    assert bool(xa or ya) == bool(ra or ia)
    # the quotients of the sweeps round once, exactly, with no float in between
    for num, want in ((px, product[0]), (py, product[1])):
        if abs(want) < 2 ** MAX_EXP * (1 - Fraction(1, 2 ** 54)):
            assert quotient(num, one * one) == abs(float(want))
        else:
            assert quotient(num, one * one) == math.inf


def _per_value_read(bk, values):
    """The extended read as aligned_points made it value by value: each
    value to (x, y, e) by its type, x and y at the smaller exponent of its
    nonzero parts, then all at the smallest; the reference of its one loop
    over the raw tuples."""
    min_exp = MIN_EXP - 4 * bk.dps

    def part(t):
        sign, man, exp, bc = t
        if not man:
            return None if exp else (0, 0)
        if not min_exp < exp + bc <= MAX_EXP:
            return None
        return (-man if sign else man), exp

    def floating(x):
        if not math.isfinite(x):
            return None
        m, e = math.frexp(x)
        return int(m * 2.0 ** 53), e - 53

    read = {}
    for key, z in values.items():
        if isinstance(z, mp.mpc):
            re, im = (part(t) for t in z._mpc_)
        elif isinstance(z, mp.mpf):
            re, im = part(z._mpf_), (0, 0)
        else:
            re, im = floating(complex(z).real), floating(complex(z).imag)
        if re is None or im is None:
            return None
        (x, ex), (y, ey) = re, im
        e = ex if not y else ey if not x else min(ex, ey)
        read[key] = x << (ex - e) if x else 0, y << (ey - e) if y else 0, e
    e = min([0] + [e for _, _, e in read.values()])
    return {key: (x << (ez - e), y << (ez - e)) for key, (x, y, ez) in read.items()}, 1 << -e


@settings(max_examples=300, deadline=None)
@given(values=st.lists(numbers | reals | st.integers(-2 ** 70, 2 ** 70) | st.sampled_from(
           (0j, 0.0, -0.0, 1.5, mp.mpf(0), mp.mpc(0), mp.mpf("inf"), mp.mpc(0, mp.nan),
            math.nan, complex(math.inf, 1))), max_size=5),
       dps=st.sampled_from((15, 40, 80)))
def test_aligned_points_is_the_per_value_read(values, dps):
    bk = Backend("ext", dps)
    values = dict(enumerate(values))
    assert aligned_points(bk, values) == _per_value_read(bk, values)


mpf_reals = st.one_of(
    st.builds(_mpf, st.integers(-2 ** 140, 2 ** 140), st.integers(-1000, 880)),
    st.sampled_from((mp.mpf(0), mp.mpf("inf"), mp.mpf("-inf"), mp.mpf("nan"),
                     _mpf(1, 1100), _mpf(-3, -1500))))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(mpf_reals, max_size=5) | st.lists(
           mpf_reals | reals | st.integers(-2 ** 70, 2 ** 70) | st.just(math.nan), max_size=5),
       dps=st.sampled_from((15, 40, 80)))
def test_aligned_reals_is_the_real_part_of_the_per_value_read(values, dps):
    # an extended read of mpf values alone takes one pass over the raw tuples
    bk = Backend("ext", dps)
    values = dict(enumerate(values))
    want = _per_value_read(bk, values)
    want = want and ({key: x for key, (x, _) in want[0].items()}, want[1])
    assert aligned_reals(bk, values) == want


def _ties(rng, prec):
    """A mantissa of prec bits followed by a tie, or by a tie and a last bit."""
    low = rng.randint(1, 40)
    return (rng.getrandbits(prec) << low) | (1 << (low - 1)) | rng.choice((0, 0, 1))


def test_raw_mpf_is_libmps_rounding_to_nearest():
    rng = random.Random(34)
    for _ in range(20000):
        prec = rng.choice((1, 2, 3, 53, 69, 133, 269, 1000))
        man = rng.choice((rng.getrandbits(rng.randint(0, 600)), _ties(rng, prec),
                          (1 << rng.randint(0, 400)) - rng.choice((0, 1, 2))))
        man, exp = rng.choice((man, -man)), rng.randint(-500, 500)
        got = raw_mpf(man, exp, prec)
        assert got == from_man_exp(man, exp, prec, round_nearest), (man, exp, prec)
        assert all(type(x) is int for x in got)
        den = rng.choice((1, 3, rng.getrandbits(rng.randint(1, 300)) | 1,
                          rng.getrandbits(100) + 1, 1 << rng.randint(0, 100)))
        assert raw_mpf(man, exp, prec, den) == mpf_div(
            from_man_exp(man, exp), from_int(den), prec, round_nearest), (man, exp, prec, den)
    # a mantissa of prec bits, odd as every raw mantissa, keeps the caller's
    # prec object as bc, so a loaded document holds no int per number for it
    prec, full = 269, 0  # an int that Python does not cache
    for _ in range(400):
        man, den = rng.getrandbits(rng.randint(269, 600)) | 1 << 268, rng.choice((1, 3, 10 ** 90))
        got = raw_mpf(rng.choice((man, -man)), -300, prec, den)
        if got[1].bit_length() == prec:
            full += 1
            assert got[3] is prec, (man, den)
    assert full > 100


def test_nearest_double_is_float_of_the_mpf():
    rng = random.Random(35)
    values = [mp.mpf(x) for x in ("0", "inf", "-inf", "nan")]
    for _ in range(20000):
        bits = rng.choice((1, 53, 54, 60, 269, 1000, 1001, 1200))
        man = rng.choice((rng.getrandbits(bits) | 1, _ties(rng, 53)))
        exp = rng.randint(-1200, 1100) - man.bit_length()
        values.append(mp.make_mpf(from_man_exp(rng.choice((man, -man)), exp)))
    for x in values:
        want = float(x)  # rounds to nearest at mpmath's default rounding
        got = nearest_double(x)
        assert got == want or want != want and got != got, x
        assert math.copysign(1, got) == math.copysign(1, want)
    assert nearest_double(0.1) == 0.1 and nearest_double(3) == 3.0
    assert sum(math.isinf(nearest_double(x)) for x in values) > 100
    assert sum(0 < abs(nearest_double(x)) < 2.0 ** -1022 for x in values) > 100


def test_root_quotient_is_the_plain_root_down_to_the_double_range():
    rng = random.Random(27)
    below = 0
    for _ in range(3000):
        num = rng.randrange(1 << rng.randrange(1, 2400))
        den = rng.randrange(1, 1 << rng.randrange(1, 2400))
        plain = math.sqrt(quotient(num, den))
        got = root_quotient(num, den)
        if plain and quotient(num, den) >= 2.0 ** -1022:  # a normal square: bit for bit
            assert got == plain, (num, den)
        with mp.workprec(200):
            want = mp.sqrt(mp.mpf(num) / den)
        if 2.0 ** -1022 < want < 2.0 ** 511:
            assert abs(got / want - 1) <= 2 ** -52, (num, den)
            below += quotient(num, den) < 2.0 ** -1022
        elif want <= 2.0 ** -1075:
            assert got == 0.0
        elif want >= 2.0 ** 513:  # a square past the doubles is inf, as before
            assert got == math.inf
    assert below > 300
    assert root_quotient(0, 1 << 3000) == 0.0
    assert root_quotient(1, 1 << 2000) == 2.0 ** -1000  # its square underflows
    for num, den in ((2.5e-300, 7e300), (0.0, 3.0), (9.0, 4.0)):  # floats: the plain root
        assert root_quotient(num, den) == math.sqrt(quotient(num, den))


def test_required_dps_plans_growth_and_refuses_past_the_cap():
    assert required_dps(40, 1.0, 30) == required_dps(40, 0.5, 30) == 30
    assert required_dps(7, 10.0, 5) == 12
    assert required_dps(3, 10.5, 0) == 4  # ceil(3.06)
    assert required_dps(MAX_DPS - 30, 10.0, 30) == MAX_DPS
    with pytest.raises(ValueError, match="cap"):
        required_dps(MAX_DPS - 29, 10.0, 30)


def test_double_snapshot_is_the_values():
    # the values times one = 2**-k, the largest modulus (|1 + 2j| = 2.24) in [0.5, 1)
    values = {(0, 0, 0): 1 + 2j, (1, 0, 0): 0.5}
    assert aligned_points(Backend(), values) == ({(0, 0, 0): (0.25, 0.5),
                                                  (1, 0, 0): (0.125, 0.0)}, 0.25)
    assert aligned_reals(Backend(), {0: 0.5, 1: -2.0}) == ({0: 0.125, 1: -0.5}, 0.25)
    assert aligned_reals(Backend(), {0: 0.0}) == ({0: 0.0}, 1.0)
    # |k| <= 500 keeps one and one**2 normal
    assert aligned_reals(Backend(), {0: 1e-200}) == ({0: 1e-200 * 2.0 ** 500}, 2.0 ** 500)
    assert aligned_reals(Backend(), {0: 1e300}) == ({0: 1e300 * 2.0 ** -500}, 2.0 ** -500)
    assert aligned_points(Backend(), {0: complex(1.5e308, 1.5e308)})[1] == 2.0 ** -500
    for bad in (math.nan, math.inf, complex(1, math.nan)):
        assert aligned_points(Backend(), {**values, 2: bad}) is None
    assert aligned_reals(Backend(), {0: 0.5, 1: math.nan}) is None


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e-100000", "1e400000",
                                 "1e309", "1e-800"])
def test_snapshot_rejects_what_it_cannot_read_exactly(bad):
    with mp.workdps(40):
        good = mp.mpc(1, 2)
        assert aligned_points(EXT, {0: good}) is not None
        assert aligned_points(EXT, {0: good, 1: mp.mpc(mp.mpf(bad), 1)}) is None
        assert aligned_points(EXT, {0: good, 1: mp.mpc(1, mp.mpf(bad))}) is None
        assert aligned_reals(EXT, {0: mp.mpf(1), 1: mp.mpf(bad)}) is None


def test_read_window_is_the_double_range_widened_by_4_dps_bits():
    # nonzero coordinates must lie in 2**(MIN_EXP - 4 dps) <= |x| < 2**MAX_EXP
    low = MIN_EXP - 4 * EXT.dps
    with mp.workdps(40):
        for x, readable in ((mp.ldexp(1, low), True), (-mp.ldexp(1, low), True),
                            (mp.ldexp(1, low - 1), False),
                            (mp.ldexp(3, low - 2), False),
                            (mp.ldexp(1, MAX_EXP) * (1 - mp.mpf(2) ** -100), True),
                            (mp.ldexp(1, MAX_EXP), False)):
            for z in (mp.mpc(x, 1), mp.mpc(1, x)):
                read = aligned_points(EXT, {0: z})
                assert (read is not None) == readable
                if readable:
                    (px, py), one = read[0][0], read[1]
                    assert (Fraction(px, one), Fraction(py, one)) == (
                        _fraction(z.real), _fraction(z.imag))


def test_exact_sweeps_read_roundoff_below_the_double_range():
    # a coordinate that should be zero carries roundoff near 1e-dps, which at
    # dps 400 lies below the smallest double; the field still passes.  The
    # seeds are exact to a unit, so the first such roundoff is at n = 4.
    zf = generate_z(isotropic_params(1.5, precision="ext", dps=400), 4)
    tiny = [abs(x) for z in zf.values.values() for x in (z.real, z.imag)
            if x and abs(x) < 1e-308]
    assert tiny
    for check in (pattern_core.max_face_residual, pattern_core.max_constraint_residual,
                  pattern_core.max_zero_curvature_residual, verify.max_kite_residual):
        assert check(zf) <= 1e-300


def test_backend_caps_the_working_precision():
    # one rule in both modes: a double run records its dps too
    for mode in ("ext", "double"):
        assert Backend(mode, MAX_DPS).dps == MAX_DPS and Backend(mode, 1).dps == 1
        for dps in (MAX_DPS + 1, 5000, 200000, 0, -5):
            with pytest.raises(ValueError):
                Backend(mode, dps)


class _BranchedBackend:
    """The Backend scalar methods as each wrote out its own double/mpmath
    branch, the reference for the one lifting rule."""

    def __init__(self, bk):
        self.is_double, self.dps = bk.is_double, bk.dps

    def real(self, x):
        if self.is_double:
            return float(x)
        with mp.workdps(self.dps):
            return mp.mpf(x)

    def pi_times(self, frac):
        if self.is_double:
            return math.pi * float(frac)
        with mp.workdps(self.dps):
            return mp.pi * mp.mpf(frac.numerator) / frac.denominator

    def angle(self, value, pi_frac):
        if pi_frac is not None:
            return self.pi_times(pi_frac)
        return self.real(value)

    def exp_i(self, theta):
        if self.is_double:
            return cmath.exp(1j * float(theta))
        with mp.workdps(self.dps):
            return mp.expj(theta)

    def cos(self, x):
        if self.is_double:
            return math.cos(float(x))
        with mp.workdps(self.dps):
            return mp.cos(x)

    def sin(self, x):
        if self.is_double:
            return math.sin(float(x))
        with mp.workdps(self.dps):
            return mp.sin(x)

    def sqrt(self, x):
        if self.is_double:
            return math.sqrt(float(x))
        with mp.workdps(self.dps):
            return mp.sqrt(x)

    def atan2(self, y, x):
        if self.is_double:
            return math.atan2(float(y), float(x))
        with mp.workdps(self.dps):
            return mp.atan2(y, x)

    def phase(self, z):
        if self.is_double:
            return cmath.phase(z)
        with mp.workdps(self.dps):
            return mp.arg(z)

    def abs(self, z):
        if self.is_double:
            return abs(complex(z)) if isinstance(z, complex) else abs(float(z))
        with mp.workdps(self.dps):
            return abs(z)

    def eps(self):
        if self.is_double:
            return 2.220446049250313e-16
        return 10.0 ** (1 - self.dps)


def _bits(x):
    """Everything that tells two results apart: the type and the exact bits."""
    if isinstance(x, (mp.mpf, mp.mpc)):
        return type(x), getattr(x, "_mpf_", None) or x._mpc_
    if isinstance(x, complex):
        return type(x), x.real.hex(), x.imag.hex()
    return type(x), float(x).hex()


with mp.workdps(250):  # inputs wider than every working precision below
    _THIRD, _E = mp.mpf(1) / 3, mp.e
    _REALS = (0.7, -2.5, 3, 0, _THIRD, -_E)
    _COMPLEX = (0.3 - 1.25j, -2j, mp.mpc(_THIRD, -_E), mp.mpc(-1, 0))
_FRACS = (Fraction(1, 3), Fraction(-5, 7), Fraction(0), Fraction(22, 1))
_BACKEND_CASES = [
    ("real", (x,)) for x in _REALS] + [
    ("pi_times", (f,)) for f in _FRACS] + [
    ("angle", (1.1, f)) for f in _FRACS[:2]] + [
    ("angle", (x, None)) for x in _REALS] + [
    (name, (x,)) for name in ("exp_i", "cos", "sin") for x in _REALS] + [
    ("sqrt", (x,)) for x in _REALS if x >= 0] + [
    ("atan2", (y, x)) for y in _REALS[:5:2] for x in _REALS[1::2]] + [
    (name, (z,)) for name in ("phase", "abs") for z in _REALS + _COMPLEX] + [
    ("eps", ())]


@pytest.mark.parametrize("bk", [Backend(), Backend("ext", 40), Backend("ext", 200)],
                         ids=["double", "dps40", "dps200"])
def test_backend_methods_are_the_branched_formulas(bk):
    ref, dps = _BranchedBackend(bk), mp.mp.dps
    for name, args in _BACKEND_CASES:
        try:
            want = getattr(ref, name)(*args)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                getattr(bk, name)(*args)
            continue
        assert _bits(getattr(bk, name)(*args)) == _bits(want), (name, args)
    assert mp.mp.dps == dps  # each call restored the working precision


def test_tracer_patches_backend_methods_in_the_class_dict(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from tracer import BACKEND_SCALAR_METHODS
    assert set(BACKEND_SCALAR_METHODS) <= set(Backend.__dict__)


# -- no per-item mpmath in the sweeps ----------------------------------------

_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__abs__",
               "__neg__", "__lt__", "__le__", "__gt__", "__ge__", "__eq__")


def _count_arithmetic(monkeypatch):
    """A one-item list counting the mpf/mpc operator calls from now on."""
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    for cls in (mp.mpf, mp.mpc):
        for name in _ARITHMETIC:
            if hasattr(cls, name):
                monkeypatch.setattr(cls, name, counted(getattr(cls, name)))
    return calls


def test_extended_sweeps_do_no_mpmath_arithmetic_per_item(monkeypatch):
    fields = [generate_z(isotropic_params(1.5, precision="ext", dps=40), n)
              for n in (8, 12)]
    radius_fields = []
    for n in (8, 12):
        rf = radius_system.generate_radii(isotropic_params(2.0, precision="ext", dps=40), n)
        radius_fields.append((rf, radius_system.dual(rf)))
    calls = _count_arithmetic(monkeypatch)
    counts = []
    for zf in fields:
        calls[0] = 0
        for check in (pattern_core.max_face_residual, pattern_core.max_constraint_residual,
                      pattern_core.max_zero_curvature_residual, verify.max_kite_residual):
            assert check(zf) <= 1e-25
        counts.append(calls[0])
    assert len(fields[1].values) > 2 * len(fields[0].values)
    assert counts[0] == counts[1]
    counts = []
    for rf, lg in radius_fields:
        calls[0] = 0
        for field in (rf, lg):  # the zero and the pole at the origin
            assert radius_system.max_equation_residual(field) <= 1e-30
        counts.append(calls[0])
    assert len(radius_fields[1][0].values) > 2 * len(radius_fields[0][0].values)
    assert counts[0] == counts[1]


def test_extended_painleve_runs_do_no_mpmath_arithmetic_per_step(monkeypatch):
    c, alpha = 1.5, 3 * math.pi / 5  # a separatrix start that stays 60 steps
    calls = _count_arithmetic(monkeypatch)
    counts = []
    for steps in (10, 40):
        calls[0] = 0
        traj = painleve.run_trajectory(Boundary(c, alpha), c * alpha / 2, steps, dps=60)
        assert traj.steps_in_sector() == steps
        painleve.growth_rate(Boundary(c, alpha), probe_steps=steps // 2)
        counts.append(calls[0])
    assert counts[0] == counts[1]


def test_extended_generation_does_no_mpmath_arithmetic_per_site(monkeypatch):
    params = isotropic_params(1.5, precision="ext", dps=40)
    calls = _count_arithmetic(monkeypatch)
    counts, sizes = [], []
    for n in (8, 12):
        calls[0] = 0
        sizes.append(len(generate_z(params, n).values))
        counts.append(calls[0])
    assert sizes[1] > 2 * sizes[0]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("spec, value, frac", [
    ("1/3pi", float(Fraction(1, 3)) * math.pi, Fraction(1, 3)),
    (" 1/4PI ", math.pi / 4, Fraction(1, 4)),
    ("pi", math.pi, Fraction(1)),
    ("0.5pi", math.pi / 2, Fraction(1, 2)),
    ("1.0471975511965976", math.pi / 3, None),
    ("0.7", 0.7, None)])
def test_parse_angle_reads_a_float_or_a_pi_fraction(spec, value, frac):
    from hexcircle.numerics import parse_angle
    got = parse_angle(spec)
    assert got == (value, frac) and type(got[0]) is float


def test_parse_angles_is_parse_angle_three_times():
    from hexcircle.numerics import parse_angle, parse_angles
    for spec in ("1/4pi,1/4pi,1/2pi", "1/6pi, 1/3pi ,1/2pi", "0.5,1.0,1.6415926535897931",
                 "1/4pi,0.7853981633974483,1/2pi"):
        alphas, fracs = zip(*(parse_angle(p) for p in spec.split(",")))
        assert parse_angles(spec) == (alphas, None if None in fracs else fracs)
    assert parse_angles("iso") == ((math.pi / 3,) * 3, (Fraction(1, 3),) * 3)
    for bad in ("1/0pi", "1/4pi,1/0pi,1/2pi"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_angles(bad) if "," in bad else parse_angle(bad)
    with pytest.raises(ValueError, match="three"):
        parse_angles("1/2pi,1/2pi")


def test_div_nearest_rounds_half_up_on_integers_of_every_sign_and_size():
    rng = random.Random(24)
    half = Fraction(1, 2)
    for _ in range(3000):
        num = rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 400))
        den = rng.choice((-1, 1)) * (rng.getrandbits(rng.randrange(1, 400)) or 1)
        assert div_nearest(num, den) == math.floor(Fraction(num, den) + half), (num, den)
        # and an exact tie k + 1/2 at the same sizes goes up, to k + 1
        k, d = num // 2, 2 * abs(den)
        for sign in (-1, 1):
            assert div_nearest(sign * (k * d + d // 2), sign * d) == k + 1
