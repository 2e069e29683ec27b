"""Boundary radius ratios: linear-fractional recurrence and closed forms.

The ratio p_n of consecutive boundary circle radii obeys a linear-fractional
recurrence p_{n+1} = (g_n - t p_n)/(p_n - t g_n), t = cos(alpha).  The
substitution p_n = y_{n+1}/y_n + t g_n linearizes it; the resulting
three-term recurrence has hypergeometric solutions evaluated here, and the
unique initial value keeping every p_n positive is
p0 = sin(c a/2)/sin((2-c) a/2).

The linearized recurrence y_{n+2} + t(g_{n+1}+1) y_{n+1} + (t^2-1) g_n y_n = 0
has the solution

    R(n, c, s) = (2s)^n (n+1-c/2) Gamma(n+c/2)/Gamma(n+3/2)
                 * F((c-1)/2, (3-c)/2; n+3/2; s)

at s = sin(alpha/2)^2 = (1-t)/2: the Gauss function regular at alpha = 0,
and the minimal (separatrix) solution, with R(n+1)/R(n) -> 1-t.  By the
connection formula (DLMF 15.10) it is the Gauss solution at z = (1+t)/2
plus the second one there weighted by (2-c) cot(pi c/2), summed here
without that cancellation.  Its mirror under alpha -> pi - alpha,
(-1)^n R(n, c, cos(alpha/2)^2), is a second solution (ratio -> -(1+t)),
regular at alpha = pi.

Boundary holds (c, alpha) for this module and painleve, and gives every
value derived from them in double or at a width.  The recurrence here
refuses c = 2, where g_0 and p0 have their pole.
"""
from __future__ import annotations

import cmath
import contextlib
import math
from collections import namedtuple
from fractions import Fraction
from typing import List, Optional

from .numerics import ANGLE_GUARD_BITS, GUARD_BITS, Record, angle_at, fixed_unit, mp


class ParameterError(ValueError):
    """Parameter hit a pole (e.g. g_0 at c = 2)."""


class StepPoleError(ArithmeticError):
    """The linear-fractional step was evaluated at its pole."""


#: working digits of the hypergeometric route p0_via_series
SERIES_DPS = 35


def _lifted(double, ext):
    """A Boundary value: double(b) for prec None, else ext(b, prec) at prec bits."""
    def value(self, prec: Optional[int] = None):
        if prec is None:
            return double(self)
        with mp.workprec(prec):
            return ext(self, prec)
    return value


class Boundary(namedtuple("Boundary", "c alpha alpha_pi_frac")):
    """(c, alpha) in the source paper's domain 0 < c <= 2, 0 < alpha < pi,
    checked once; alpha_pi_frac, when set, is alpha / pi exactly, and alpha
    is then pi * float(alpha_pi_frac), whatever float was passed.  angle,
    t = cos(alpha), beta0 = c alpha / 2 and p0 are doubles, or mpf to prec
    bits with the angle taken by numerics.angle_at, as PatternParams.angles
    takes it; eps and x0 = exp(i beta0) complex doubles, or integers over
    2**bits from their angles to bits + ANGLE_GUARD_BITS bits."""

    __slots__ = ()

    def __new__(cls, c: float, alpha: float, alpha_pi_frac: Optional[Fraction] = None):
        self = super().__new__(cls, c, angle_at(alpha, alpha_pi_frac), alpha_pi_frac)
        if not 0 < self.c <= 2:
            raise ParameterError(f"the exponent c must satisfy 0 < c <= 2, not {self.c!r}")
        if not 0 < self.alpha < math.pi:
            raise ParameterError(
                f"the angle alpha must satisfy 0 < alpha < pi, not {self.alpha!r}")
        return self

    def angle(self, prec: Optional[int] = None):
        return angle_at(self.alpha, self.alpha_pi_frac, prec)

    t = _lifted(lambda b: math.cos(b.alpha), lambda b, prec: mp.cos(b.angle(prec)))
    beta0 = _lifted(lambda b: b.c * b.alpha / 2,
                    lambda b, prec: mp.mpf(b.c) * b.angle(prec) / 2)

    def _p0_double(self) -> float:
        """sin(x) / sin(y), x = c alpha / 2, y = (2 - c) alpha / 2; one past pi/2
        as sin((pi - alpha) + the other), pi - alpha from alpha_pi_frac or two-part pi."""
        x, y, f = self.c * self.alpha / 2, (2 - self.c) * self.alpha / 2, self.alpha_pi_frac
        pa = angle_at(None, 1 - f) if f else (math.pi - self.alpha) + 1.2246467991473532e-16
        return ((math.sin(x) if x <= math.pi / 2 else math.sin(pa + y))
                / (math.sin(y) if y <= math.pi / 2 else math.sin(pa + x)))

    p0 = _lifted(_p0_double,
                 lambda b, prec: (mp.sin(b.beta0(prec))
                                  / mp.sin((2 - mp.mpf(b.c)) * b.angle(prec) / 2)))

    def eps(self, bits: Optional[int] = None):
        return (cmath.exp(1j * self.alpha) if bits is None
                else fixed_unit(self.angle(bits + ANGLE_GUARD_BITS), bits))

    def x0(self, bits: Optional[int] = None):
        return (cmath.exp(1j * self.beta0()) if bits is None
                else fixed_unit(self.beta0(bits + ANGLE_GUARD_BITS), bits))


class Trajectory(Record):
    """A recorded run with its first sign failure, if any."""
    _fields = ("values", "first_nonpositive")

    def __init__(self, values: List[float], first_nonpositive: Optional[int] = None):
        self.values, self.first_nonpositive = values, first_nonpositive


def g(n: int, c: float):
    den = 2 * (n + 1) - c
    if den == 0:
        raise ParameterError(f"g_{n} undefined at c={c}")
    return (2 * n + c) / den


def _step(p, n: int, c, t):
    gn = g(n, c)
    den = p - t * gn
    if den == 0:
        raise StepPoleError(f"step pole at n={n}")
    return (gn - t * p) / den


def _data(b: Boundary, prec: Optional[int] = None):
    """c and t = cos(alpha), as doubles or mpf at prec bits; refuses c = 2."""
    if b.c == 2:
        raise ParameterError("the ratio recurrence needs c < 2: g_0 and p0 "
                             "have their pole at c = 2")
    return (b.c, b.t()) if prec is None else (mp.mpf(b.c), b.t(prec))


def p0_closed(b: Boundary) -> float:
    _data(b)  # refuses c = 2
    return b.p0()


def ratio_run(b: Boundary, n_steps: int, p_start=None, dps: Optional[int] = None) -> list:
    """p_0 .. p_n_steps as floats, or mpf at dps digits.  From p_start the
    step runs forward, up to a step pole; errors grow by separatrix_growth
    per step.  Else the separatrix: forward from the exact p0 where that
    loses at most 4 bits (n_steps log2 growth <= 4: alpha >= about pi/2), or
    Miller's backward sweep p_n = g_n (1 + t p_{n+1}) / (p_{n+1} + t) from
    p_{n+K} = 1, positive, whose K steps past n_steps divide the start's error
    by growth**K >= 2**(P + GUARD_BITS) at P bits (at growth inf: p_n = g_n)."""
    with contextlib.nullcontext() if dps is None else mp.workdps(dps):
        prec, lg = dps and mp.mp.prec, math.log2(separatrix_growth(b))
        c, t = _data(b, prec)
        if p_start is None and n_steps * lg > 4:
            k = max(1, math.ceil(((prec or 53) + GUARD_BITS) / lg))
            p = [mp.mpf(1) if prec else 1.0]
            for n in reversed(range(n_steps + k)):
                p.append(g(n, c) * (1 + t * p[-1]) / (p[-1] + t))
            return p[:-n_steps - 2:-1]
        p = [b.p0(prec) if p_start is None else (mp.mpf if prec else float)(p_start)]
        with contextlib.suppress(StepPoleError):
            for n in range(n_steps):
                p.append(_step(p[-1], n, c, t))
        return p


def trajectory(b: Boundary, n_steps: int, p_start: Optional[float] = None,
               *, dps: Optional[int] = None) -> Trajectory:
    """ratio_run at its width (floats, or mpf at dps digits), and its first
    nonpositive index or its pole's."""
    p = ratio_run(b, n_steps, p_start, dps)
    bad = next((n for n, x in enumerate(p) if not x > 0), None if len(p) > n_steps else len(p))
    return Trajectory(p, bad)


def separatrix_growth(b: Boundary) -> float:
    """(1+t)/(1-t) = cot(alpha/2)^2, the growth of a separatrix error per
    forward step, free of the cancellation in 1 - t; inf past the doubles."""
    cot = math.cos(b.alpha / 2) / math.sin(b.alpha / 2)
    return cot * cot


def _regular(n: int, c, s):
    """R(n, c, s) of the module docstring at the working precision.  Past
    the first, the terms of its Gauss series share one sign for 0 <= s < 1."""
    return ((2 * s) ** n * (n + 1 - c / 2) * mp.gamma(n + c / 2) / mp.gamma(n + 1.5)
            * mp.hyp2f1((c - 1) / 2, (3 - c) / 2, n + 1.5, s))


def p0_via_series(boundary: Boundary) -> float:
    """p0 from the series route, independent of the sine quotient:
    y_1/y_0 + t g_0 on the separatrix y_n = R(n, c, sin(alpha/2)^2), at
    SERIES_DPS digits, rounded once."""
    with mp.workdps(SERIES_DPS):
        c, t = _data(boundary, mp.mp.prec)
        s = mp.sin(boundary.angle(mp.mp.prec) / 2) ** 2
        return float(_regular(1, c, s) / _regular(0, c, s) + t * g(0, c))
