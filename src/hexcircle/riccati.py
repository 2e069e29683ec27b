"""Boundary radius ratios: linear-fractional recurrence and closed forms.

The ratio p_n of consecutive boundary circle radii obeys a linear-fractional
recurrence p_{n+1} = (g_n - t p_n)/(p_n - t g_n), t = cos(alpha).  The
substitution p_n = y_{n+1}/y_n + t g_n linearizes it; the resulting
three-term recurrence has hypergeometric solutions evaluated here, and the
unique initial value keeping every p_n positive is
p0 = sin(c a/2)/sin((2-c) a/2).

Note on the hypergeometric basis: with a = (c-1)/2, b = (3-c)/2 the two
exact solutions are

    B1(n) = G(n) * (-(1+t))^n * F(a, b; 1/2-n; (1-t)/2)
    B2(n) = G(n) * (1-t)^n   * [ F(a, b; 1/2-n; z)
              + kappa * (-1)^n * ((a+1/2)_n (b+1/2)_n)/((1/2)_n (3/2)_n)
                * z^(n+1/2) * F(a+n+1/2, b+n+1/2; n+3/2; z) ],

with z = (1+t)/2, G(n) = Gamma(n+1/2)/Gamma(n+1-c/2) and
kappa(c) = (2-c) cot(pi c / 2).  B1 is the dominant direction; the
second-solution admixture in B2 is exactly what cancels the dominant part,
making B2 the minimal (separatrix) direction with B2(n+1)/B2(n) -> 1-t.
The same admixture enters the generating function of the p0 series formula.

Boundary holds (c, alpha) for this module and painleve, and gives every
value derived from them in double or at a width.  The recurrence here
refuses c = 2, where g_0 and p0 have their pole.
"""
from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import mpmath as mp

from .numerics import ANGLE_GUARD_BITS, GUARD_BITS, fixed_unit, required_dps


class ParameterError(ValueError):
    """Parameter hit a pole (e.g. g_0 at c = 2)."""


class StepPoleError(ArithmeticError):
    """The linear-fractional step was evaluated at its pole."""


#: working digits of the series route p0_via_series (more at small angles)
SERIES_DPS = 30


def _lifted(double, ext):
    """A Boundary value: double(b) for prec None, else ext(b, prec) at prec bits."""
    def value(self, prec: Optional[int] = None):
        if prec is None:
            return double(self)
        with mp.workprec(prec):
            return ext(self, prec)
    return value


@dataclass(frozen=True)
class Boundary:
    """(c, alpha) in the source paper's domain 0 < c <= 2, 0 < alpha < pi,
    checked once; alpha_pi_frac, when set, is alpha / pi exactly.  angle,
    t = cos(alpha), beta0 = c alpha / 2 and p0 are doubles, or mpf to prec
    bits with a pi-fraction taken exactly (as pattern_core.guarded_angles);
    eps and x0 = exp(i beta0) complex doubles, or integers over 2**bits from
    their angles to bits + ANGLE_GUARD_BITS bits."""

    c: float
    alpha: float
    alpha_pi_frac: Optional[Fraction] = None

    def __post_init__(self):
        if not 0 < self.c <= 2:
            raise ParameterError(f"the exponent c must satisfy 0 < c <= 2, not {self.c!r}")
        if not 0 < self.alpha < math.pi:
            raise ParameterError(
                f"the angle alpha must satisfy 0 < alpha < pi, not {self.alpha!r}")

    def angle(self, prec: Optional[int] = None):
        """A float alpha is itself at any prec: exact, and cheap per run."""
        f = self.alpha_pi_frac
        if prec is None or f is None:
            return self.alpha
        with mp.workprec(prec):
            return mp.pi * f.numerator / f.denominator

    t = _lifted(lambda b: math.cos(b.alpha), lambda b, prec: mp.cos(b.angle(prec)))
    beta0 = _lifted(lambda b: b.c * b.alpha / 2,
                    lambda b, prec: mp.mpf(b.c) * b.angle(prec) / 2)
    p0 = _lifted(lambda b: math.sin(b.beta0()) / math.sin((2 - b.c) * b.alpha / 2),
                 lambda b, prec: (mp.sin(b.beta0(prec))
                                  / mp.sin((2 - mp.mpf(b.c)) * b.angle(prec) / 2)))

    def eps(self, bits: Optional[int] = None):
        return (cmath.exp(1j * self.alpha) if bits is None
                else fixed_unit(self.angle(bits + ANGLE_GUARD_BITS), bits))

    def x0(self, bits: Optional[int] = None):
        return (cmath.exp(1j * self.beta0()) if bits is None
                else fixed_unit(self.beta0(bits + ANGLE_GUARD_BITS), bits))


@dataclass
class Trajectory:
    """A recorded run with its first sign failure, if any."""
    values: List[float]
    first_nonpositive: Optional[int] = None


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


def riccati_step(p, n: int, b: Boundary):
    """p_{n+1} at the precision of p: an mpf p takes c and t = cos(alpha)
    at the working precision, any other p the doubles."""
    return _step(p, n, *_data(b, mp.mp.prec if isinstance(p, mp.mpf) else None))


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
    """ratio_run as floats, and its first nonpositive index or its pole's."""
    p = ratio_run(b, n_steps, p_start, dps)
    bad = next((n for n, x in enumerate(p) if not x > 0), None if len(p) > n_steps else len(p))
    return Trajectory([float(x) for x in p], bad)


def separatrix_growth(b: Boundary) -> float:
    """(1+t)/(1-t) = cot(alpha/2)^2, the growth of a separatrix error per
    forward step, free of the cancellation in 1 - t; inf past the doubles."""
    cot = math.cos(b.alpha / 2) / math.sin(b.alpha / 2)
    return cot * cot


def mixture_coefficient(c):
    """Weight (2-c)*cot(pi c/2) of the second Gauss solution in the
    separatrix generating function (0 at c = 1, finite as c -> 2), for an
    mpf c at the working precision."""
    return (2 - c) * mp.cos(mp.pi * c / 2) / mp.sin(mp.pi * c / 2)


def y_basis(n: int, boundary: Boundary, which: int) -> float:
    """Exact solutions of the linearized recurrence (see module docstring).

    which=1 is the dominant direction (ratio -> -(1+t)), which=2 the minimal
    separatrix direction (ratio -> 1-t).
    """
    if n < 0:
        raise ParameterError("index must be nonnegative")
    # B2 cancels terms of relative size ((1+t)/(1-t))^n
    with mp.workdps(required_dps(n + 2, separatrix_growth(boundary), 35)):
        c, t = _data(boundary, mp.mp.prec)
        a, b, half = (c - 1) / 2, (3 - c) / 2, mp.mpf(1) / 2
        pref = mp.gamma(n + half) / mp.gamma(n + 1 - c / 2)
        if which == 1:
            val = pref * (-(1 + t)) ** n * mp.hyp2f1(a, b, half - n, (1 - t) / 2)
        elif which == 2:
            z2 = (1 + t) / 2
            f_part = mp.hyp2f1(a, b, half - n, z2)
            poch = mp.rf(a + half, n) * mp.rf(b + half, n) / (mp.rf(half, n) * mp.rf(3 * half, n))
            w_part = (mp.power(z2, n + half)
                      * mp.hyp2f1(a + n + half, b + n + half, n + 3 * half, z2))
            kappa = mixture_coefficient(c)
            val = pref * (1 - t) ** n * (f_part + kappa * (-1) ** n * poch * w_part)
        else:
            raise ValueError("which must be 1 or 2")
        return float(val)


def y_closed(n: int, c1: float, c2: float, b: Boundary) -> float:
    """General solution c1*B1(n) + c2*B2(n) of the linearized recurrence."""
    return sum((k * y_basis(n, b, which) for k, which in ((c1, 1), (c2, 2)) if k), 0.0)


def p0_via_series(boundary: Boundary) -> float:
    """p0 from the series route, independent of the sine quotient.

    Evaluates 1 + 2(c-1)z/(2-c) + 4z(z-1) s'(z) / ((2-c) s(z)) at
    z = (1+t)/2, where s is the separatrix generating function: the Gauss
    function F((3-c)/2, (c-1)/2; 1/2; z) plus the second solution
    sqrt(z) F((4-c)/2, c/2; 3/2; z) weighted by (2-c)cot(pi c/2).  Each F
    is mpmath's hyp2f1 and each derivative comes from the contiguous
    relation F'(a, b; cc; z) = (ab/cc) F(a+1, b+1; cc+1; z), at SERIES_DPS
    digits plus one per decade of 1 - z = sin(alpha/2)^2 below 1e-10.
    """
    lost = -2 * math.log10(math.sin(boundary.alpha / 2))
    with mp.workdps(SERIES_DPS + max(0, math.ceil(lost) - 10)):
        c, t = _data(boundary, mp.mp.prec)
        z = (1 + t) / 2  # in (0, 1) for 0 < alpha < pi

        def f_and_derivative(a, b, cc):
            return (mp.hyp2f1(a, b, cc, z),
                    a * b / cc * mp.hyp2f1(a + 1, b + 1, cc + 1, z))

        a, b, half = (3 - c) / 2, (c - 1) / 2, mp.mpf(1) / 2
        f1, d1 = f_and_derivative(a, b, half)
        f2, d2 = f_and_derivative(a + half, b + half, 3 * half)
        kappa = mixture_coefficient(c)
        sq = mp.sqrt(z)
        s = f1 + kappa * sq * f2
        sp = d1 + kappa * (f2 / (2 * sq) + sq * d2)
        p0 = 1 + 2 * (c - 1) * z / (2 - c) + 4 * z * (z - 1) * sp / ((2 - c) * s)
        return float(p0)
