"""Unitary boundary variables: three-point recurrence on the circle.

The boundary triangles of the pattern are encoded by unit-modulus x_n; the
recurrence is linear-fractional in x_{n+1}, so each step is solved as a
Moebius transform (no root choice).  The separatrix x_n = trajectory from
x_0 = exp(i c a / 2) is the unique one staying in the open sector
(0, alpha); it is unstable, so runs carry per-precision horizons and the
shooting construction brackets the initial angle by exit-side bisection.
"""
from __future__ import annotations

import cmath
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

import mpmath as mp


class StepSingularError(ArithmeticError):
    """The Moebius solve for x_{n+1} degenerated."""


class BracketError(RuntimeError):
    """Exit-side bisection could not maintain a valid bracket."""


class SectorTag(Enum):
    A_I = "A_I"
    A_II = "A_II"
    A_III = "A_III"
    A_IV = "A_IV"
    BOUNDARY_LOW = "BoundaryLow"    # x = 1
    BOUNDARY_HIGH = "BoundaryHigh"  # x = epsilon


@dataclass
class PainleveState:
    n: int
    x_prev: complex
    x_cur: complex
    c: float
    epsilon: complex


@dataclass
class PainleveTrajectory:
    betas: List[float]
    sectors: List[SectorTag]
    exit_index: Optional[int] = None
    exit_sector: Optional[SectorTag] = None
    max_unitarity_drift: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def stayed(self) -> bool:
        return self.exit_index is None

    def steps_in_sector(self) -> int:
        """Largest N with x_n in the closed sector for all n <= N."""
        if self.exit_index is None:
            return len(self.betas) - 1
        return self.exit_index - 1


def _step_raw(n: int, x_prev, x_cur, c, eps):
    a_term = (n + 1) * (x_cur * x_cur - 1)
    if n == 0:
        b_term = 0
    else:
        den = eps + x_prev * x_cur
        if den == 0:
            raise StepSingularError(f"previous-pair pole at n={n}")
        b_term = n * (1 - x_cur * x_cur / (eps * eps)) * (x_prev + eps * x_cur) / den
    c_term = c * x_cur * (eps * eps - 1) / (2 * eps * eps)
    rhs = c_term + b_term
    den = a_term - rhs * x_cur
    if den == 0:
        raise StepSingularError(f"Moebius solve singular at n={n}")
    x_next = (rhs * eps - a_term * x_cur / eps) / den
    mag = abs(x_next)
    if mag == 0:
        raise StepSingularError(f"zero image at n={n}")
    return x_next / mag, abs(mag - 1)


def dpii_step(state: PainleveState) -> complex:
    """x_{n+1} solving the recurrence for the given state, renormalized to
    unit modulus; for n = 0 the x_prev slot is ignored."""
    x, _ = _step_raw(state.n, state.x_prev, state.x_cur, state.c, state.epsilon)
    return x


def x0_closed(c: float, alpha: float) -> complex:
    """The separatrix initial value exp(i c alpha / 2)."""
    if not (0 < c <= 2):
        raise ValueError("exponent must satisfy 0 < c <= 2")
    return cmath.exp(1j * c * alpha / 2)


def sector_of(x, alpha: float) -> SectorTag:
    beta = cmath.phase(complex(x)) if not isinstance(x, mp.mpc) else float(mp.arg(x))
    return sector_of_beta(beta, alpha)


def sector_of_beta(beta: float, alpha: float) -> SectorTag:
    if beta == 0:
        return SectorTag.BOUNDARY_LOW
    if beta == alpha:
        return SectorTag.BOUNDARY_HIGH
    if 0 < beta < alpha:
        return SectorTag.A_I
    if alpha < beta <= math.pi:
        return SectorTag.A_II
    if alpha - math.pi <= beta < 0:
        return SectorTag.A_IV
    return SectorTag.A_III


def run_trajectory(c: float, alpha: float, beta0: float, n_steps: int,
                   dps: Optional[int] = None) -> PainleveTrajectory:
    """Iterate from x_0 = exp(i beta0); record sectors and the first exit
    from the closed sector (the nested-segment sets of the existence
    argument use the closure).  dps=None runs in doubles."""
    if not (0 <= beta0 <= alpha):
        raise ValueError("starting angle must lie in [0, alpha]")
    use_mp = dps is not None
    with mp.workdps(dps) if use_mp else nullcontext():
        if use_mp:
            eps = mp.expj(mp.mpf(alpha))
            x = mp.expj(mp.mpf(beta0))
            phase = lambda w: float(mp.arg(w))
        else:
            eps = cmath.exp(1j * alpha)
            x = cmath.exp(1j * beta0)
            phase = cmath.phase
        in_closed = (SectorTag.A_I, SectorTag.BOUNDARY_LOW, SectorTag.BOUNDARY_HIGH)
        betas = [phase(x)]
        sectors = [sector_of_beta(betas[0], alpha)]
        exit_index = None
        exit_sector = None
        drift = 0.0
        x_prev = None
        if sectors[0] not in in_closed:
            exit_index, exit_sector = 0, sectors[0]
        else:
            for n in range(n_steps):
                x_next, d = _step_raw(n, x_prev if x_prev is not None else 1,
                                      x, c, eps)
                drift = max(drift, float(d))
                x_prev, x = x, x_next
                betas.append(phase(x))
                sectors.append(sector_of_beta(betas[-1], alpha))
                if sectors[-1] not in in_closed:
                    exit_index, exit_sector = n + 1, sectors[-1]
                    break
        return PainleveTrajectory(betas=betas, sectors=sectors,
                                  exit_index=exit_index, exit_sector=exit_sector,
                                  max_unitarity_drift=drift)


def growth_rate(c: float, alpha: float, probe_steps: int = 10) -> float:
    """Empirical per-step amplification of a small perturbation of the
    separatrix (used to size precision for shooting and horizons)."""
    dps = 50
    with mp.workdps(dps):
        eps = mp.expj(mp.mpf(alpha))
        beta = mp.mpf(c) * alpha / 2
        pert = mp.mpf(10) ** (-30)
        xa, xb = mp.expj(beta), mp.expj(beta + pert)
        pa = pb = None
        for n in range(probe_steps):
            xa_next, _ = _step_raw(n, pa if pa is not None else 1, xa, c, eps)
            xb_next, _ = _step_raw(n, pb if pb is not None else 1, xb, c, eps)
            pa, xa = xa, xa_next
            pb, xb = xb, xb_next
        sep = abs(mp.arg(xb) - mp.arg(xa))
        if sep == 0:
            return 1.0
        return float((sep / pert) ** (mp.mpf(1) / probe_steps))


def shoot(c: float, alpha: float, n_stay: int, tol: float,
          dps: Optional[int] = None, max_iter: int = 400) -> Tuple[float, float]:
    """Bracket the separatrix angle by exit-side bisection.

    Returns (lo, hi) with width <= tol such that the endpoint trajectories
    leave the sector on opposite sides after at least n_stay in-sector
    steps.  The nested-interval structure mirrors the existence argument:
    exits through the upper boundary steer hi, through the lower steer lo.
    """
    if n_stay < 1 or tol <= 0:
        raise ValueError("need n_stay >= 1 and tol > 0")
    rho = max(growth_rate(c, alpha), 1.5)
    need = int(math.ceil((n_stay + 10) * math.log10(rho))) + 30
    dps = dps or need
    horizon = 2 * n_stay + 80

    def classify(beta: float):
        """('upper'|'lower'|None, exit index).

        Exits through the top boundary land near -1 (sector A_II, or A_III
        just past the -pi seam); exits through the bottom land near
        -epsilon (A_IV, or A_III just past alpha-pi).  A_III exits are
        assigned by proximity to the two accumulation points.
        """
        traj = run_trajectory(c, alpha, beta, horizon, dps=dps)
        if traj.stayed:
            return None, horizon
        sec = traj.exit_sector
        if sec is SectorTag.A_II:
            return "upper", traj.exit_index
        if sec is SectorTag.A_IV:
            return "lower", traj.exit_index
        beta_exit = traj.betas[-1]
        near_top = beta_exit + math.pi            # distance to the -pi seam
        near_bottom = (alpha - math.pi) - beta_exit
        return ("upper" if near_top < abs(near_bottom) else "lower",
                traj.exit_index)

    with mp.workdps(dps):
        lo, hi = mp.mpf(0), mp.mpf(alpha)
        side_lo, stay_lo = classify(lo)
        side_hi, stay_hi = classify(hi)
        if side_lo != "lower" or side_hi != "upper":
            raise BracketError("endpoints do not exit on opposite sides")
        for _ in range(max_iter):
            done_width = (hi - lo) <= tol
            done_stay = (stay_lo > n_stay and stay_hi > n_stay)
            if done_width and done_stay:
                break
            mid = (lo + hi) / 2
            if mid == lo or mid == hi:
                raise BracketError(
                    "bracket under-ran the working precision before the "
                    "requested stay was reached; raise dps or lower n_stay")
            side, stay = classify(mid)
            # a midpoint that never exits (exact fixed point at c=1) is
            # treated as the upper endpoint; points above it exit high
            if side is None or side == "upper":
                hi, stay_hi = mid, stay
            else:
                lo, stay_lo = mid, stay
        else:
            raise BracketError("bisection did not settle within max_iter")
        # widen by one ulp so the float bracket still encloses the target
        return (math.nextafter(float(lo), -math.inf),
                math.nextafter(float(hi), math.inf))
