"""Precision backends.

All lattice evolutions are plain field arithmetic, so the same code runs on
Python complex/float or on mpmath mpc/mpf.  A Backend bundles the handful of
transcendental calls the algorithms actually need.  Angles may be given as
exact fractions of pi so that extended-precision runs are not limited by a
double-rounded initial datum.
"""
from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import mpmath as mp

Number = Union[float, "mp.mpf"]
ComplexNumber = Union[complex, "mp.mpc"]

DOUBLE = "double"
EXTENDED = "ext"

#: mantissa of ~128 bits expressed in decimal digits
DEFAULT_EXT_DPS = 40


@dataclass(frozen=True)
class Backend:
    """Arithmetic context: plain doubles or mpmath with a fixed dps."""

    mode: str = DOUBLE
    dps: int = DEFAULT_EXT_DPS

    def __post_init__(self):
        if self.mode not in (DOUBLE, EXTENDED):
            raise ValueError(f"unknown precision mode {self.mode!r}")
        if self.mode == EXTENDED and self.dps < 1:
            raise ValueError(f"extended precision needs dps >= 1, not {self.dps}")

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

    def real(self, x) -> Number:
        if self.is_double:
            return float(x)
        with mp.workdps(self.dps):
            return mp.mpf(x)

    def pi_times(self, frac: Fraction) -> Number:
        if self.is_double:
            return math.pi * float(frac)
        with mp.workdps(self.dps):
            return mp.pi * mp.mpf(frac.numerator) / frac.denominator

    def angle(self, value: float, pi_frac: Optional[Fraction]) -> Number:
        """High-precision angle when an exact pi-fraction is known."""
        if pi_frac is not None:
            return self.pi_times(pi_frac)
        return self.real(value)

    def exp_i(self, theta) -> ComplexNumber:
        if self.is_double:
            return cmath.exp(1j * float(theta))
        with mp.workdps(self.dps):
            return mp.expj(theta)

    def cos(self, x) -> Number:
        if self.is_double:
            return math.cos(float(x))
        with mp.workdps(self.dps):
            return mp.cos(x)

    def sin(self, x) -> Number:
        if self.is_double:
            return math.sin(float(x))
        with mp.workdps(self.dps):
            return mp.sin(x)

    def sqrt(self, x) -> Number:
        if self.is_double:
            return math.sqrt(float(x))
        with mp.workdps(self.dps):
            return mp.sqrt(x)

    def atan2(self, y, x) -> Number:
        if self.is_double:
            return math.atan2(float(y), float(x))
        with mp.workdps(self.dps):
            return mp.atan2(y, x)

    def phase(self, z) -> Number:
        if self.is_double:
            return cmath.phase(z)
        with mp.workdps(self.dps):
            return mp.arg(z)

    def abs(self, z) -> Number:
        if self.is_double:
            return abs(complex(z)) if isinstance(z, complex) else abs(float(z))
        with mp.workdps(self.dps):
            return abs(z)

    def eps(self) -> float:
        """Unit roundoff of the active mode."""
        if self.is_double:
            return 2.220446049250313e-16
        return 10.0 ** (1 - self.dps)


def backend_for(mode: str, dps: int = DEFAULT_EXT_DPS) -> Backend:
    return Backend(mode=mode, dps=dps)


def worst_of(residuals) -> float:
    """Largest of some residuals, 0.0 for none; NaN if any is NaN.

    The built-in max drops a NaN that does not come first, which would let
    a check pass on corrupted data.
    """
    worst = 0.0
    for x in residuals:
        if math.isnan(x):
            return math.nan
        worst = max(worst, x)
    return worst


def parse_angles(spec: str) -> tuple[tuple[float, float, float],
                                     Optional[tuple[Fraction, Fraction, Fraction]]]:
    """Parse an angle triple.

    Accepts "iso", a comma list of floats, or a comma list of pi-fractions
    like "1/4pi,1/4pi,1/2pi".  Returns the float values and, when exact,
    the fractions of pi.
    """
    spec = spec.strip().lower()
    if spec == "iso":
        fr = (Fraction(1, 3),) * 3
        return tuple(math.pi / 3 for _ in range(3)), fr
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 3:
        raise ValueError("need three comma-separated angles")
    if all(p.endswith("pi") for p in parts):
        fracs = []
        for p in parts:
            body = p[:-2].strip()
            fracs.append(Fraction(body) if body else Fraction(1))
        fr = tuple(fracs)
        return tuple(float(f) * math.pi for f in fr), fr
    return tuple(float(p) for p in parts), None
