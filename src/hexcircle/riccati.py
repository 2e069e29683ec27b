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
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional

import mpmath as mp

from .pattern_core import PatternParams


class ParameterError(ValueError):
    """Parameter hit a pole (e.g. g_0 at c = 2)."""


class StepPoleError(ArithmeticError):
    """The linear-fractional step was evaluated at its pole."""


class SeriesDomainError(ValueError):
    """Hypergeometric series argument outside |z| < 1."""


MAX_SERIES_TERMS = 10_000


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

    @classmethod
    def from_pattern(cls, params: PatternParams, angle_index: int = 3) -> "RiccatiParams":
        return cls(c=params.c, alpha=params.alphas[angle_index - 1])


@dataclass
class Trajectory:
    """Recorded forward iteration with the first sign failure, if any."""

    values: List[float]
    first_nonpositive: Optional[int] = None

    @property
    def stayed_positive(self) -> bool:
        return self.first_nonpositive is None


def g(n: int, c: float):
    den = 2 * (n + 1) - c
    if den == 0:
        raise ParameterError(f"g_{n} undefined at c={c}")
    return (2 * n + c) / den


def riccati_step(p, n: int, params: RiccatiParams, t=None):
    t = params.t if t is None else t
    gn = g(n, params.c) if not isinstance(p, mp.mpf) else g(n, mp.mpf(params.c))
    den = p - t * gn
    if den == 0:
        raise StepPoleError(f"step pole at n={n}")
    return (gn - t * p) / den


def p0_closed(params: RiccatiParams) -> float:
    return math.sin(params.c * params.alpha / 2) / math.sin((2 - params.c) * params.alpha / 2)


def trajectory(params: RiccatiParams, n_steps: int, p_start: Optional[float] = None,
               dps: Optional[int] = None) -> Trajectory:
    """Iterate the step forward, recording the first nonpositive value.

    The separatrix is unstable whenever |1+t| > |1-t|; dps selects an mpmath
    working precision (None = double).  A step pole is recorded as a sign
    failure at the following index.
    """
    with nullcontext() if dps is None else mp.workdps(dps):
        if dps is None:
            c, t = params.c, params.t
            p = p0_closed(params) if p_start is None else p_start
        else:
            c = mp.mpf(params.c)
            t = mp.cos(mp.mpf(params.alpha))
            if p_start is None:
                p = mp.sin(c * params.alpha / 2) / mp.sin((2 - c) * params.alpha / 2)
            else:
                p = mp.mpf(p_start)
        values = [float(p)]
        first_bad = None if p > 0 else 0
        for n in range(n_steps):
            gn = (2 * n + c) / (2 * (n + 1) - c)
            den = p - t * gn
            if den == 0:
                first_bad = first_bad if first_bad is not None else n + 1
                break
            p = (gn - t * p) / den
            values.append(float(p))
            if first_bad is None and p <= 0:
                first_bad = n + 1
        return Trajectory(values=values, first_nonpositive=first_bad)


def separatrix_dps(params: RiccatiParams, n_steps: int, margin: int = 30) -> int:
    """Working precision for which the forward separatrix stays clean for
    n_steps (perturbations grow like ((1+t)/(1-t))^n)."""
    t = params.t
    ratio = abs(1 + t) / abs(1 - t)
    growth = max(ratio, 1.0)
    return max(30, int(math.ceil(n_steps * math.log10(growth))) + margin)


def p_limit_check(params: RiccatiParams, n_steps: int = 40,
                  dps: Optional[int] = None) -> float:
    """p_N of the separatrix run (the limit is 1 on the separatrix)."""
    if dps is None:
        dps = separatrix_dps(params, n_steps)
    traj = trajectory(params, n_steps, dps=dps)
    return traj.values[-1]


# ---------------------------------------------------------------------------
# hypergeometric series
# ---------------------------------------------------------------------------

def hyp_f(a, b, cc, z, tol: float = 1e-15):
    """Gauss series sum_k (a)_k (b)_k / ((cc)_k k!) z^k for |z| < 1."""
    return _hyp_with_derivative(a, b, cc, z, tol)[0]


def _hyp_with_derivative(a, b, cc, z, tol):
    """(F, F') of the Gauss series, F' by term-wise differentiation."""
    if abs(z) >= 1:
        raise SeriesDomainError("series needs |z| < 1")
    if cc == int(cc) and cc <= 0:
        raise ParameterError("third parameter is a nonpositive integer")
    one = z * 0 + 1
    if z == 0:
        return one, one * a * b / cc
    total = one
    deriv = z * 0
    term = one
    small = 0
    for k in range(MAX_SERIES_TERMS):
        term = term * (a + k) * (b + k) / ((cc + k) * (k + 1)) * z
        total += term
        deriv += term * (k + 1) / z
        if abs(term) < tol * abs(total):
            small += 1
            if small >= 2:
                return total, deriv
        else:
            small = 0
    raise ArithmeticError("hypergeometric series did not converge")


def mixture_coefficient(c):
    """Weight (2-c)*cot(pi c/2) of the second Gauss solution in the
    separatrix generating function (0 at c = 1, finite as c -> 2)."""
    if isinstance(c, mp.mpf):
        return (2 - c) * mp.cos(mp.pi * c / 2) / mp.sin(mp.pi * c / 2)
    return (2 - c) * math.cos(math.pi * c / 2) / math.sin(math.pi * c / 2)


def gamma_ratio(n: int, c):
    """Gamma(n + 1/2) / Gamma(n + 1 - c/2)."""
    if isinstance(c, mp.mpf):
        return mp.gamma(n + mp.mpf(1) / 2) / mp.gamma(n + 1 - c / 2)
    return math.exp(math.lgamma(n + 0.5) - math.lgamma(n + 1 - c / 2))


def stirling_gamma(x: float) -> float:
    """sqrt(2 pi) e^-x x^(x-1/2), the leading Stirling approximation."""
    return math.sqrt(2 * math.pi) * math.exp(-x) * x ** (x - 0.5)


def _y_dps(params: RiccatiParams, n: int, base_dps: int = 25) -> int:
    # B2 cancels terms of relative size ((1+t)/(1-t))^n
    t = params.t
    ratio = abs(1 + t) / max(abs(1 - t), 1e-30)
    return base_dps + int(math.ceil((n + 2) * math.log10(max(ratio, 1.0)))) + 10


def y_basis(n: int, params: RiccatiParams, which: int,
            dps: Optional[int] = None) -> float:
    """Exact solutions of the linearized recurrence (see module docstring).

    which=1 is the dominant direction (ratio -> -(1+t)), which=2 the minimal
    separatrix direction (ratio -> 1-t).
    """
    if n < 0:
        raise ParameterError("index must be nonnegative")
    if dps is None:
        dps = _y_dps(params, n)
    with mp.workdps(dps):
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


def y_closed(n: int, c1: float, c2: float, params: RiccatiParams,
             dps: Optional[int] = None) -> float:
    """General solution c1*B1(n) + c2*B2(n) of the linearized recurrence."""
    out = 0.0
    if c1 != 0:
        out += c1 * y_basis(n, params, 1, dps)
    if c2 != 0:
        out += c2 * y_basis(n, params, 2, dps)
    return out


def linear_recurrence_residual(y0: float, y1: float, y2: float, n: int,
                               params: RiccatiParams) -> float:
    """Relative residual of y_{n+2} + t(g_{n+1}+1) y_{n+1} + (t^2-1) g_n y_n."""
    t = params.t
    res = y2 + t * (g(n + 1, params.c) + 1) * y1 + (t * t - 1) * g(n, params.c) * y0
    scale = max(abs(y0), abs(y1), abs(y2), 1e-300)
    return abs(res) / scale


def p0_via_series(params: RiccatiParams, tol: float = 1e-17,
                  dps: int = 30) -> float:
    """p0 from the series route, independent of the sine quotient.

    Evaluates 1 + 2(c-1)z/(2-c) + 4z(z-1) s'(z) / ((2-c) s(z)) at
    z = (1+t)/2, where s is the separatrix generating function: the Gauss
    series F((3-c)/2, (c-1)/2; 1/2; z) plus the second solution
    sqrt(z) F((4-c)/2, c/2; 3/2; z) weighted by (2-c)cot(pi c/2).  Both
    series are summed term by term together with their derivatives.
    """
    if not (0 < params.c < 2):
        raise ParameterError("series route needs 0 < c < 2")
    with mp.workdps(dps):
        c = mp.mpf(params.c)
        t = mp.cos(mp.mpf(params.alpha))
        z = (1 + t) / 2
        if not (0 < z < 1):
            raise SeriesDomainError("z = (1+t)/2 must lie in (0,1)")
        a = (3 - c) / 2
        b = (c - 1) / 2
        half = mp.mpf(1) / 2
        f1, d1 = _hyp_with_derivative(a, b, half, z, tol)
        f2, d2 = _hyp_with_derivative(a + half, b + half, 3 * half, z, tol)
        kappa = mixture_coefficient(c)
        sq = mp.sqrt(z)
        s = f1 + kappa * sq * f2
        sp = d1 + kappa * (f2 / (2 * sq) + sq * d2)
        p0 = 1 + 2 * (c - 1) * z / (2 - c) + 4 * z * (z - 1) * sp / ((2 - c) * s)
        return float(p0)
