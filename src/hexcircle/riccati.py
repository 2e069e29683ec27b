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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import mpmath as mp

from .numerics import required_dps


class ParameterError(ValueError):
    """Parameter hit a pole (e.g. g_0 at c = 2)."""


class StepPoleError(ArithmeticError):
    """The linear-fractional step was evaluated at its pole."""


class SeriesDomainError(ValueError):
    """Hypergeometric series argument outside |z| < 1."""


#: working digits of the series route p0_via_series (more at small angles)
SERIES_DPS = 30
#: digits separatrix_dps keeps beyond the separatrix amplification
SEPARATRIX_MARGIN = 30


@dataclass(frozen=True)
class RiccatiParams:
    c: float
    alpha: float

    def __post_init__(self):
        if not (0 < self.c < 2):
            raise ParameterError("exponent must satisfy 0 < c < 2")
        if not (0 < self.alpha < math.pi):
            raise ParameterError("angle must lie in (0, pi)")

    @property
    def t(self) -> float:
        return math.cos(self.alpha)


@dataclass
class Trajectory:
    """Recorded forward iteration with the first sign failure, if any."""

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


def riccati_step(p, n: int, params: RiccatiParams):
    """p_{n+1} at the precision of p: an mpf p takes c and t = cos(alpha)
    at the working precision, any other p the doubles."""
    if isinstance(p, mp.mpf):
        return _step(p, n, mp.mpf(params.c), mp.cos(mp.mpf(params.alpha)))
    return _step(p, n, params.c, params.t)


def p0_closed(params: RiccatiParams) -> float:
    return math.sin(params.c * params.alpha / 2) / math.sin((2 - params.c) * params.alpha / 2)


def trajectory(params: RiccatiParams, n_steps: int, p_start: Optional[float] = None,
               *, dps: int) -> Trajectory:
    """Iterate the step forward at working precision dps (separatrix_dps plans
    it: the separatrix is unstable whenever |1+t| > |1-t|), recording the first
    nonpositive value; a step pole is a sign failure at the following index."""
    with mp.workdps(dps):
        c, t = mp.mpf(params.c), mp.cos(mp.mpf(params.alpha))
        p = (mp.sin(c * params.alpha / 2) / mp.sin((2 - c) * params.alpha / 2)
             if p_start is None else mp.mpf(p_start))
        values = [float(p)]
        first_bad = None if p > 0 else 0
        for n in range(n_steps):
            try:
                p = _step(p, n, c, t)
            except StepPoleError:
                first_bad = first_bad if first_bad is not None else n + 1
                break
            values.append(float(p))
            if first_bad is None and p <= 0:
                first_bad = n + 1
        return Trajectory(values=values, first_nonpositive=first_bad)


def separatrix_growth(params: RiccatiParams) -> float:
    """(1+t)/(1-t) = cot(alpha/2)^2, the growth of a separatrix error per
    forward step, free of the cancellation in 1 - t; inf past the doubles."""
    cot = math.cos(params.alpha / 2) / math.sin(params.alpha / 2)
    return cot * cot


def separatrix_dps(params: RiccatiParams, n_steps: int) -> int:
    """Working precision keeping the forward separatrix clean for n_steps."""
    return required_dps(n_steps, separatrix_growth(params), SEPARATRIX_MARGIN)


def mixture_coefficient(c):
    """Weight (2-c)*cot(pi c/2) of the second Gauss solution in the
    separatrix generating function (0 at c = 1, finite as c -> 2), for an
    mpf c at the working precision."""
    return (2 - c) * mp.cos(mp.pi * c / 2) / mp.sin(mp.pi * c / 2)


def _y_dps(params: RiccatiParams, n: int) -> int:
    # B2 cancels terms of relative size ((1+t)/(1-t))^n
    return required_dps(n + 2, separatrix_growth(params), 35)


def y_basis(n: int, params: RiccatiParams, which: int) -> float:
    """Exact solutions of the linearized recurrence (see module docstring).

    which=1 is the dominant direction (ratio -> -(1+t)), which=2 the minimal
    separatrix direction (ratio -> 1-t).
    """
    if n < 0:
        raise ParameterError("index must be nonnegative")
    with mp.workdps(_y_dps(params, n)):
        c = mp.mpf(params.c)
        t = mp.cos(mp.mpf(params.alpha))
        a = (c - 1) / 2
        b = (3 - c) / 2
        pref = mp.gamma(n + mp.mpf(1) / 2) / mp.gamma(n + 1 - c / 2)
        if which == 1:
            z1 = (1 - t) / 2
            val = pref * (-(1 + t)) ** n * mp.hyp2f1(a, b, mp.mpf(1) / 2 - n, z1)
        elif which == 2:
            z2 = (1 + t) / 2
            f_part = mp.hyp2f1(a, b, mp.mpf(1) / 2 - n, z2)
            half = mp.mpf(1) / 2
            poch = (mp.rf(a + half, n) * mp.rf(b + half, n)
                    / (mp.rf(half, n) * mp.rf(3 * half, n)))
            w_part = (mp.power(z2, n + half)
                      * mp.hyp2f1(a + n + half, b + n + half, n + 3 * half, z2))
            kappa = mixture_coefficient(c)
            val = pref * (1 - t) ** n * (f_part + kappa * (-1) ** n * poch * w_part)
        else:
            raise ValueError("which must be 1 or 2")
        return float(val)


def y_closed(n: int, c1: float, c2: float, params: RiccatiParams) -> float:
    """General solution c1*B1(n) + c2*B2(n) of the linearized recurrence."""
    out = 0.0
    if c1 != 0:
        out += c1 * y_basis(n, params, 1)
    if c2 != 0:
        out += c2 * y_basis(n, params, 2)
    return out


def p0_via_series(params: RiccatiParams) -> float:
    """p0 from the series route, independent of the sine quotient.

    Evaluates 1 + 2(c-1)z/(2-c) + 4z(z-1) s'(z) / ((2-c) s(z)) at
    z = (1+t)/2, where s is the separatrix generating function: the Gauss
    function F((3-c)/2, (c-1)/2; 1/2; z) plus the second solution
    sqrt(z) F((4-c)/2, c/2; 3/2; z) weighted by (2-c)cot(pi c/2).  Each F
    is mpmath's hyp2f1 and each derivative comes from the contiguous
    relation F'(a, b; cc; z) = (ab/cc) F(a+1, b+1; cc+1; z), at SERIES_DPS
    digits plus one per decade of 1 - z = sin(alpha/2)^2 below 1e-10.
    """
    lost = -2 * math.log10(math.sin(params.alpha / 2))
    with mp.workdps(SERIES_DPS + max(0, math.ceil(lost) - 10)):
        c = mp.mpf(params.c)
        t = mp.cos(mp.mpf(params.alpha))
        z = (1 + t) / 2
        if not (0 < z < 1):
            raise SeriesDomainError("z = (1+t)/2 must lie in (0,1)")

        def f_and_derivative(a, b, cc):
            return (mp.hyp2f1(a, b, cc, z),
                    a * b / cc * mp.hyp2f1(a + 1, b + 1, cc + 1, z))

        a = (3 - c) / 2
        b = (c - 1) / 2
        half = mp.mpf(1) / 2
        f1, d1 = f_and_derivative(a, b, half)
        f2, d2 = f_and_derivative(a + half, b + half, 3 * half)
        kappa = mixture_coefficient(c)
        sq = mp.sqrt(z)
        s = f1 + kappa * sq * f2
        sp = d1 + kappa * (f2 / (2 * sq) + sq * d2)
        p0 = 1 + 2 * (c - 1) * z / (2 - c) + 4 * z * (z - 1) * sp / ((2 - c) * s)
        return float(p0)
