"""Exact snapshot arithmetic (numerics.ExactComplex, numerics.snapshot)."""
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcircle import pattern_core, radius_system, verify
from hexcircle.numerics import MAX_DPS, Backend, ExactComplex, snapshot
from hexcircle.pattern_core import generate_z, isotropic_params

EXT = Backend("ext", 40)


def _fraction(x) -> Fraction:
    if isinstance(x, mp.mpf):
        man, exp = x.man_exp  # man is unsigned
        value = Fraction(man) * Fraction(2) ** exp
        return -value if x < 0 else value
    return Fraction(x)


def _value(z: ExactComplex):
    scale = Fraction(2) ** z.e
    return z.x * scale, z.y * scale


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
    snap = snapshot(EXT, {"a": a, "b": b})
    ea, eb = snap["a"], snap["b"]
    ra, ia = _fraction(a.real), _fraction(a.imag)
    rb, ib = _fraction(b.real), _fraction(b.imag)
    assert _value(ea) == (ra, ia) and _value(eb) == (rb, ib)
    assert _value(ea + eb) == (ra + rb, ia + ib)
    assert _value(ea - eb) == (ra - rb, ia - ib)
    product = (ra * rb - ia * ib, ra * ib + ia * rb)
    assert _value(ea * eb) == product
    assert _value(ea * k) == _value(k * ea) == (ra * k, ia * k)
    assert bool(ea) == bool(ra or ia)
    if max(abs(product[0]), abs(product[1])) < 2 ** 1000:
        got = complex(ea * eb)
        assert got.real == pytest.approx(float(product[0]), rel=1e-15, abs=1e-300)
        assert got.imag == pytest.approx(float(product[1]), rel=1e-15, abs=1e-300)


def test_double_snapshot_is_the_values():
    values = {(0, 0, 0): 1 + 2j}
    assert snapshot(Backend(), values) is values


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e-100000", "1e400000",
                                 "1e309", "1e-800"])
def test_snapshot_rejects_what_it_cannot_read_exactly(bad):
    with mp.workdps(40):
        good = mp.mpc(1, 2)
        assert snapshot(EXT, {0: good}) is not None
        assert snapshot(EXT, {0: good, 1: mp.mpc(mp.mpf(bad), 1)}) is None
        assert snapshot(EXT, {0: good, 1: mp.mpc(1, mp.mpf(bad))}) is None


def test_exact_sweeps_read_roundoff_below_the_double_range():
    # a coordinate that should be zero carries roundoff near 1e-dps, which at
    # dps 400 lies below the smallest double; the field still passes
    zf = generate_z(isotropic_params(1.5, precision="ext", dps=400), 3)
    tiny = [abs(x) for z in zf.values.values() for x in (z.real, z.imag)
            if x and abs(x) < 1e-308]
    assert tiny
    for check in (pattern_core.max_face_residual, pattern_core.max_constraint_residual,
                  pattern_core.max_zero_curvature_residual, verify.max_kite_residual):
        assert check(zf) <= 1e-300


def test_backend_caps_the_working_precision():
    assert Backend("ext", MAX_DPS).dps == MAX_DPS
    for dps in (MAX_DPS + 1, 5000, 200000):
        with pytest.raises(ValueError):
            Backend("ext", dps)


# -- no per-item mpmath in the sweeps ----------------------------------------

_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__abs__",
               "__neg__", "__lt__", "__le__", "__gt__", "__ge__", "__eq__")


def test_extended_sweeps_do_no_mpmath_arithmetic_per_item(monkeypatch):
    fields = [generate_z(isotropic_params(1.5, precision="ext", dps=40), n)
              for n in (8, 12)]
    radius_fields = []
    for n in (8, 12):
        rf = radius_system.generate_radii(isotropic_params(2.0, precision="ext", dps=40), n)
        radius_fields.append((rf, radius_system.dual(rf)))
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
