"""Precision backends and the fixed-point helpers.

Double runs are plain complex/float arithmetic.  Extended cross-ratio
generation and Painleve runs step on fixed-point Gaussian integers over
2**fixed_bits(dps), not on mpc, the extended radius fill on real integers
over the same power of two, not on mpf; the checks read a field once into
aligned integers.  Integers become mpf by one rounding (raw_mpf), and an
mpf is read back by its raw tuple (nearest_double), not by mpf operators.
A Backend bundles the transcendental calls the rest needs, each by one
rule (_lifted): math or cmath on floats in double mode, else mpmath at the
backend's dps.  Its sqrt, atan2, phase and eps have no caller; the
benchmark tracer patches them.  Exact pi-fractions of the angles keep
extended runs free of a double-rounded initial datum.

mp is the package's one handle on mpmath.  An mpmath already imported is
reused; else the module is executed at its first attribute access, so the
double paths, which never touch it, start without its import.  Every use
reads mp at call time, libmp's functions through mp.libmp.
"""
from __future__ import annotations

import cmath
import contextlib
import functools
import importlib.util
import math
import sys
from collections import namedtuple
from fractions import Fraction
from typing import Mapping, Optional, Tuple, Union


def _lazy_import(name: str):
    """The module name: the one in sys.modules, else one executed at its
    first attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


mp = _lazy_import("mpmath")

Number = Union[float, "mp.mpf"]
ComplexNumber = Union[complex, "mp.mpc"]

DOUBLE = "double"
EXTENDED = "ext"

#: mantissa of ~128 bits expressed in decimal digits
DEFAULT_EXT_DPS = 40
#: largest working precision: every cost of an extended run grows with it,
#: and the deepest planned runs (compare_routes, 4n + 4 digits) stay far
#: below it
MAX_DPS = 1000
#: bits a fixed-point run carries beyond the binary precision of its dps
GUARD_BITS = 16
#: bits beyond a fixed-point run's width at which it takes angles, cos and sin
ANGLE_GUARD_BITS = 20


def _lifted(double, ext):
    """A Backend method: double(*args) in double mode, else ext(*args) at dps."""
    def method(self, *args):
        if self.is_double:
            return double(*args)
        with mp.workdps(self.dps):
            return ext(*args)
    return method


class Record:
    """A mutable record: the __eq__ and __repr__ that @dataclass writes, over
    the attributes _fields names; equal only to its own class, unhashable.
    The immutable records are named tuples: no module imports dataclasses,
    whose import (inspect, ast) and generated methods slowed every start."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Backend(namedtuple("Backend", "mode dps")):
    """Arithmetic context: plain doubles or mpmath with a fixed dps."""

    __slots__ = ()

    def __new__(cls, mode: str = DOUBLE, dps: int = DEFAULT_EXT_DPS):
        self = super().__new__(cls, mode, dps)
        if self.mode not in (DOUBLE, EXTENDED):
            raise ValueError(f"unknown precision mode {self.mode!r}")
        if not 1 <= self.dps <= MAX_DPS:
            name = "double" if self.is_double else "extended"
            raise ValueError(f"{name} precision needs 1 <= dps <= {MAX_DPS}, "
                             f"not {self.dps}")
        return self

    @property
    def is_double(self) -> bool:
        return self.mode == DOUBLE

    def context(self):
        """Precision context for a whole computation.

        mpmath rounds every operation to the *current* working precision,
        so any stretch of arithmetic on extended numbers must run inside
        this context, not just the calls on the backend itself.
        """
        if self.is_double:
            return contextlib.nullcontext()
        return mp.workdps(self.dps)

    # the mpmath sides read mp at the call: a double run never loads it
    real = _lifted(float, lambda x: mp.mpf(x))
    pi_times = _lifted(lambda frac: math.pi * float(frac),
                       lambda frac: mp.pi * mp.mpf(frac.numerator) / frac.denominator)
    exp_i = _lifted(lambda theta: cmath.exp(1j * float(theta)), lambda theta: mp.expj(theta))
    cos = _lifted(lambda x: math.cos(float(x)), lambda x: mp.cos(x))
    sin = _lifted(lambda x: math.sin(float(x)), lambda x: mp.sin(x))
    sqrt = _lifted(lambda x: math.sqrt(float(x)), lambda x: mp.sqrt(x))
    atan2 = _lifted(lambda y, x: math.atan2(float(y), float(x)), lambda y, x: mp.atan2(y, x))
    phase = _lifted(cmath.phase, lambda z: mp.arg(z))
    abs = _lifted(lambda z: abs(complex(z) if isinstance(z, complex) else float(z)), abs)

    def angle(self, value: float, pi_frac: Optional[Fraction]) -> Number:
        """High-precision angle when an exact pi-fraction is known."""
        if pi_frac is not None:
            return self.pi_times(pi_frac)
        return self.real(value)

    def eps(self) -> float:
        """Unit roundoff of the active mode."""
        if self.is_double:
            return 2.220446049250313e-16
        return 10.0 ** (1 - self.dps)


def required_dps(steps: int, growth: float, margin: int) -> int:
    """Working precision for a run of steps that each amplify an error by
    growth: margin + ceil(steps * log10(max(growth, 1))) digits.  A plan
    above MAX_DPS, an infinite growth included, raises ValueError instead
    of starting a run that cannot finish."""
    digits = steps * math.log10(max(growth, 1.0)) if steps else 0
    dps = margin + math.ceil(digits) if digits < math.inf else math.inf
    if dps > MAX_DPS:
        raise ValueError(f"{steps} steps amplifying errors {growth:.4g}-fold each "
                         f"need {dps} digits; the cap is dps {MAX_DPS}")
    return dps


def worse(worst: float, x: float) -> float:
    """The larger of a running worst and a residual x; NaN once either is."""
    return x if x > worst or x != x else worst


def worst_of(residuals) -> float:
    """Largest of some residuals, 0.0 for none; NaN if any is NaN.

    The built-in max drops a NaN that does not come first, which would let
    a check pass on corrupted data.
    """
    return functools.reduce(worse, residuals, 0.0)


#: binary exponents bounding the nonzero doubles: 2**-1074 <= |x| < 2**1024
MIN_EXP, MAX_EXP = -1074, 1024


def quotient(num, den) -> float:
    """|num / den| rounded once to double (exactly rounded for integers,
    with no conversion of either to float); inf past the double range."""
    try:
        return abs(num / den)
    except OverflowError:
        return math.inf


def root_quotient(num, den) -> float:
    """sqrt(quotient(num, den)), a residual whose square num / den is formed
    exactly.  Integers whose quotient lies below the normal doubles (their
    bit lengths differ by more than 1022) take the root of num 4**k / den
    times 2**-k, so the residual keeps its value down to the double range
    instead of its square underflowing; floats, and every quotient that is
    a normal double, take the plain formula."""
    if isinstance(num, int) and isinstance(den, int):
        e = num.bit_length() - den.bit_length()  # num / den < 2**(e + 1)
        if e < -1022:
            k = -e // 2
            return math.ldexp(math.sqrt(quotient(num << 2 * k, den)), -k)
    return math.sqrt(quotient(num, den))


def _from_float(x: float) -> Optional[Tuple[int, int]]:
    if not math.isfinite(x):
        return None
    m, e = math.frexp(x)
    return int(m * 2.0 ** 53), e - 53


def aligned_points(bk: Backend, values: Mapping):
    """The values (mpc, mpf, complex, float or int) read once, for the
    sweeps that combine them without a division: (points, one), with
    points[key] = (x, y) the coordinates of values[key] in units of 1/one.

    In extended mode the read is exact: every finite float and mpf is
    m * 2**e, so x and y are Python integers and one = 2**-e, e <= 0 the
    smallest exponent of the values; sums, differences and products of the
    coordinates never round.  Each nonzero coordinate must lie in
    2**(MIN_EXP - 4 dps) <= |x| < 2**MAX_EXP: the double range, widened
    below by the roundoff (10**-dps > 2**(-4 dps) of the field's scale)
    left on a coordinate that should be zero, which bounds the integer
    widths.  In double mode x and y are the floats times one = 2**-k, k
    the exponent that puts the largest modulus in [0.5, 1), clamped to
    |k| <= 500 so that one and one**2 stay normal: a power of two, exact
    unless a product falls below the normal doubles.  None when some value
    is not finite or lies outside the window, which the sweeps report as
    NaN.
    """
    if bk.is_double:
        if not all(map(cmath.isfinite, values.values())):
            return None
        try:
            k = math.frexp(max(map(abs, values.values()), default=0.0))[1]
        except OverflowError:  # a modulus past the float range
            k = MAX_EXP + 1
        one = 2.0 ** -max(-500, min(k, 500))
        return {key: (z.real * one, z.imag * one) for key, z in values.items()}, one
    min_exp, e, read = MIN_EXP - 4 * bk.dps, 0, {}
    mpc, mpf, fzero = mp.mpc, mp.mpf, mp.libmp.fzero
    for key, z in values.items():
        if type(z) is mpc or type(z) is mpf:  # raw tuples; mpmath codes inf and nan as man 0
            (xs, x, ex, xb), (ys, y, ey, yb) = z._mpc_ if type(z) is mpc else (z._mpf_, fzero)
            if ((not min_exp < ex + xb <= MAX_EXP) if x else ex) or \
                    ((not min_exp < ey + yb <= MAX_EXP) if y else ey):
                return None
            x, y = -x if xs else x, -y if ys else y
        else:  # a float or complex, its parts as frexp gives them
            z = complex(z)
            re, im = _from_float(z.real), _from_float(z.imag)
            if re is None or im is None:
                return None
            # a zero part takes the other's exponent; x's, when both are zero
            (x, ex), (y, ey) = re, im
            ex, ey = (ex, ex) if not y else (ey, ey) if not x else (ex, ey)
        e = min(e, ex, ey)
        read[key] = x, ex, y, ey
    return {key: (x << (ex - e), y << (ey - e))
            for key, (x, ex, y, ey) in read.items()}, 1 << -e


def aligned_reals(bk: Backend, values: Mapping):
    """Real values read as by aligned_points, one number each.  An extended
    read whose values are all mpf takes each raw tuple once."""
    if not bk.is_double:
        mpf, min_exp, e, read = mp.mpf, MIN_EXP - 4 * bk.dps, 0, {}
        for key, x in values.items():
            if type(x) is not mpf:
                break
            sign, man, ex, bc = x._mpf_
            if (not min_exp < ex + bc <= MAX_EXP) if man else ex:
                return None
            read[key] = -man if sign else man, ex
            if ex < e:
                e = ex
        else:
            return {key: x << (ex - e) for key, (x, ex) in read.items()}, 1 << -e
    read = aligned_points(bk, values)
    return read and ({key: x for key, (x, _) in read[0].items()}, read[1])


def fixed_bits(dps: int) -> int:
    """Width of a fixed-point run at dps: its binary precision + GUARD_BITS."""
    return mp.libmp.dps_to_prec(dps) + GUARD_BITS


def top_bits(x: int, y: int) -> Tuple[int, int, int]:
    """(x >> s, y >> s, s): integers of any size cut by one floor shift s >= 0
    (signs kept) to the top 1000 bits of the wider, as floats within 2**-990."""
    s = max(0, abs(x).bit_length() - 1000, abs(y).bit_length() - 1000)
    return x >> s, y >> s, s


def div_nearest(num: int, den: int) -> int:
    """num / den for integers, den != 0, rounded to nearest (ties up)."""
    return (2 * num + den) // (2 * den) if den > 0 else (-2 * num - den) // (-2 * den)


def raw_mpf(man: int, exp: int, prec: int, den: int = 1) -> Tuple[int, int, int, int]:
    """The raw mpf nearest man / den * 2**exp at prec bits, den > 0, ties to
    even: libmp's from_man_exp(man, exp, prec, round_nearest) for den = 1,
    else its mpf_div of the two, one correctly rounded division (a quotient
    of at least prec + 3 bits, its remainder the sticky bit).  The one
    rounding of extended numbers, behind the fills, dual, extract_radii and
    the document reader and writer."""
    sign, rem = 1 if man < 0 else 0, 0
    if sign:
        man = -man
    elif not man:
        return 0, 0, 0, 0  # libmp's fzero
    if den != 1:
        shift = max(0, prec + 3 + den.bit_length() - man.bit_length())
        man, rem = divmod(man << shift, den)
        exp -= shift
    n = man.bit_length() - prec
    if n > 0:
        t = man >> (n - 1)
        man = (t >> 1) + 1 if t & 1 and (t & 2 or rem or man & ((1 << (n - 1)) - 1)) else t >> 1
        exp += n
    if man & 1 and n >= 0:  # prec bits, none of them trailing zeros: bc is the
        return sign, man, exp, prec  # caller's prec, no new int per number
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return sign, man, exp + zeros, man.bit_length()


def nearest_double(x) -> float:
    """x, a float, int or mpf, rounded once to the nearest double, ties to
    even: float(x), an mpf read from its raw tuple as float() does at
    mpmath's default rounding (libmp's to_float with round_nearest; its
    default rounds toward zero)."""
    if isinstance(x, (float, int)):
        return float(x)
    t = x._mpf_
    sign, man, exp, bc = t
    if not man or bc > 1000:  # zero, inf, nan, or a mantissa float() cannot take
        return mp.libmp.to_float(t, rnd=mp.libmp.round_nearest)
    try:
        d = math.ldexp(float(man), exp)
    except OverflowError:
        d = math.inf
    return -d if sign else d


def fixed_real(x, bits: int) -> int:
    """x, a float, int or mpf read without rounding, as an integer over
    2**bits, rounded to nearest; ValueError when x is not finite."""
    libmp = mp.libmp
    t = x._mpf_ if isinstance(x, mp.mpf) else libmp.from_float(float(x))
    if not t[1] and t[2]:  # mpmath codes inf and nan as man 0
        raise ValueError(f"{x} is not finite")
    return (libmp.to_fixed(t, bits + 1) + 1) >> 1


def fixed_unit(theta, bits: int) -> Tuple[int, int]:
    """exp(i theta), theta a float or mpf, as integers over 2**bits within
    one unit: cos and sin are taken to bits + ANGLE_GUARD_BITS bits, then
    rounded."""
    libmp = mp.libmp
    t = theta._mpf_ if isinstance(theta, mp.mpf) else libmp.from_float(float(theta))
    cos, sin = libmp.mpf_cos_sin(t, bits + ANGLE_GUARD_BITS)
    return (libmp.to_fixed(cos, bits + 1) + 1) >> 1, (libmp.to_fixed(sin, bits + 1) + 1) >> 1


def parse_angle(spec: str) -> Tuple[float, Optional[Fraction]]:
    """Parse one angle: a float, or a pi-fraction like "1/4pi" ("pi" alone
    is 1pi).  Returns the float value and, when exact, the fraction of pi."""
    spec = spec.strip().lower()
    if not spec.endswith("pi"):
        return float(spec), None
    try:
        frac = Fraction(spec[:-2].strip() or 1)
    except ZeroDivisionError:
        raise ValueError(f"angle {spec!r} has a zero denominator") from None
    return float(frac) * math.pi, frac


def parse_angles(spec: str) -> tuple[tuple[float, ...], Optional[tuple[Fraction, ...]]]:
    """Parse an angle triple: "iso", or three comma-separated angles, each
    by parse_angle.  Returns the float values and, when all three are
    exact, their fractions of pi."""
    spec = spec.strip().lower()
    if spec == "iso":
        return (math.pi / 3,) * 3, (Fraction(1, 3),) * 3
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError("need three comma-separated angles")
    alphas, fracs = zip(*map(parse_angle, parts))
    return alphas, None if None in fracs else fracs
