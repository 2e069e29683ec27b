"""Unitary boundary variables: three-point recurrence on the circle.

The boundary triangles of the pattern are encoded by unit-modulus x_n; the
recurrence is linear-fractional in x_{n+1}, so each step is solved as a
Moebius transform (no root choice).  The separatrix x_n = trajectory from
x_0 = exp(i c a / 2) is the unique one staying in the open sector
(0, alpha); it is unstable, so runs carry per-precision horizons and the
shooting construction brackets the initial angle by exit-side bisection.

Every run takes (c, alpha) as one riccati.Boundary, and its start, alpha
and epsilon from it at the run's width, an exact pi-fraction exactly.
What the runs of one Boundary at one width share is built once, as a
RunSetup; shoot walks every bisection start on one.
Double runs step in complex doubles.  Extended runs step on fixed-point
Gaussian integers (see _fixed_step), with no division but one
normalisation.  Both test the sector by the signs of Im x and
Im(x conj(epsilon)).
"""
from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import List, Optional, Tuple

from .numerics import (ANGLE_GUARD_BITS, Record, div_nearest, fixed_bits, fixed_unit, mp,
                       required_dps, top_bits)
from .riccati import Boundary

#: growth_rate perturbs the separatrix angle by 10**-PROBE_DIGITS
PROBE_DIGITS = 30
#: shoot gives up after this many bisection steps
MAX_BISECTIONS = 400
#: shoot refuses a run of more steps than this per start (see shoot_horizon)
MAX_HORIZON = 10_000


class StepSingularError(ArithmeticError):
    """The Moebius solve for x_{n+1} degenerated."""


class BracketError(RuntimeError):
    """Exit-side bisection could not maintain a valid bracket."""


class ResolutionError(ArithmeticError):
    """The working precision cannot resolve the sector of the start."""


class SectorTag(Enum):
    A_I = "A_I"
    A_II = "A_II"
    A_III = "A_III"
    A_IV = "A_IV"
    BOUNDARY_LOW = "BoundaryLow"    # x = 1
    BOUNDARY_HIGH = "BoundaryHigh"  # x = epsilon


_IN_CLOSED = (SectorTag.A_I, SectorTag.BOUNDARY_LOW, SectorTag.BOUNDARY_HIGH)


class PainleveTrajectory(Record):
    """x_0, x_1, ... as complex doubles, or, when bits is set, as pairs
    (re, im) of integers over 2**bits."""
    _fields = ("points", "sectors", "exit_index", "exit_sector", "max_unitarity_drift",
               "bits")

    def __init__(self, points: list, sectors: List[SectorTag],
                 exit_index: Optional[int] = None, exit_sector: Optional[SectorTag] = None,
                 max_unitarity_drift: float = 0.0, bits: Optional[int] = None):
        self.points, self.sectors, self.exit_index = points, sectors, exit_index
        self.exit_sector, self.max_unitarity_drift, self.bits = (
            exit_sector, max_unitarity_drift, bits)

    def beta(self, n: int) -> float:
        """arg x_n in (-pi, pi], as a double."""
        if self.bits is None:
            return cmath.phase(self.points[n])
        re, im = self.points[n]
        return _atan2(im, re)

    @property
    def betas(self) -> List[float]:
        return [self.beta(n) for n in range(len(self.points))]

    @property
    def stayed(self) -> bool:
        return self.exit_index is None

    def steps_in_sector(self) -> int:
        """Largest N with x_n in the closed sector for all n <= N."""
        return len(self.points) - 1 if self.exit_index is None else self.exit_index - 1


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


def sector_of_signs(im_x, im_x_conj_eps) -> SectorTag:
    """The sector of a unit x = exp(i beta) from the signs of Im x and
    Im(x conj(epsilon)) = sin(beta - alpha), for 0 < alpha < pi.

    x is in (0, alpha) iff Im x > 0 > Im(x conj(epsilon)); a zero sign is
    a boundary ray (x = 1, x = epsilon) or, off the closed sector, the
    edge x = -1 of A_II or x = -epsilon of A_IV.
    """
    if im_x > 0:
        if im_x_conj_eps < 0:
            return SectorTag.A_I
        return SectorTag.BOUNDARY_HIGH if im_x_conj_eps == 0 else SectorTag.A_II
    if im_x == 0:
        return SectorTag.BOUNDARY_LOW if im_x_conj_eps < 0 else SectorTag.A_II
    return SectorTag.A_III if im_x_conj_eps > 0 else SectorTag.A_IV


def _atan2(y: int, x: int) -> float:
    """math.atan2 of two integers of any size, from their top bits."""
    y, x, _ = top_bits(y, x)
    return math.atan2(y, x)


def _constants(b: Boundary, bits: int):
    """epsilon, F = conj(epsilon)**2 and K = c (1 - F) / 2 over 2**bits;
    F and K are each rounded once from epsilon and the exact float c."""
    er, ei = b.eps(bits)
    h = 1 << (bits - 1)
    fr, fi = (er * er - ei * ei + h) >> bits, -((2 * er * ei + h) >> bits)
    p, q = float(b.c).as_integer_ratio()
    kr, ki = div_nearest(p * ((1 << bits) - fr), 2 * q), div_nearest(-p * fi, 2 * q)
    return (er, ei), (fr, fi), (kr, ki)


def _fixed_step(n: int, prev, cur, consts, bits: int):
    """_step_raw on fixed-point Gaussian integers: (x_{n+1}, drift).

    prev, cur and consts (from _constants) are pairs of integers over
    2**bits = one; prev is ignored for n = 0.  With |epsilon| = 1,
    1/epsilon = conj(epsilon), and the two quotients of the recurrence are
    cleared by multiplying b_term by conj(D1) and every term by the
    positive real |D1|**2, D1 = epsilon + x_prev x (for n = 0, b_term = 0
    and the factor is 1).  With R = rhs |D1|**2 and A = a_term |D1|**2,
    x_{n+1} = N / D with N = R epsilon - A x conj(epsilon), D = A - R x,
    so x_{n+1} is W / |W| for W = N conj(D), and |W| = isqrt(|N|**2 |D|**2).

    Error per operation, in units u = 1/one: each ``>> bits`` rounds one
    sum of products to the nearest unit, so it adds at most u/2 to that
    component.  Sums, differences, the integer factors n and n + 1 and the
    products that form N conj(D), |N|**2 and |D|**2 are exact; isqrt
    floors |W| by less than one unit, a relative error below 1/|W|; the
    last quotient rounds each component of x_{n+1} to u/2.  The inputs lie
    within u of the unit circle, |K| <= 2 and |D1|, |1 - x**2 F|,
    |x_prev + epsilon x| <= 2, so |R|, |A| <= 8 (n + 1): the roundings
    leave N and D within O(n) units and x_{n+1} within O(n u / |D|), the
    condition of the Moebius solve.  The drift is | |N| / |D| - 1 |,
    formed in doubles from the exact |N|**2 and |D|**2.
    StepSingularError on an exact zero D1, D or N, as in _step_raw.
    """
    (er, ei), (fr, fi), (kr, ki) = consts
    one = 1 << bits
    h = one >> 1
    xr, xi = cur
    x2r = (xr * xr - xi * xi + h) >> bits
    x2i = (2 * xr * xi + h) >> bits
    ar, ai = (n + 1) * (x2r - one), (n + 1) * x2i         # a_term
    rr = (kr * xr - ki * xi + h) >> bits                    # c_term = K x
    ri = (kr * xi + ki * xr + h) >> bits
    if n:
        pr, pi = prev
        d1r = er + ((pr * xr - pi * xi + h) >> bits)
        d1i = ei + ((pr * xi + pi * xr + h) >> bits)
        if not (d1r or d1i):
            raise StepSingularError(f"previous-pair pole at n={n}")
        ur = one - ((x2r * fr - x2i * fi + h) >> bits)      # 1 - x^2 conj(eps)^2
        ui = -((x2r * fi + x2i * fr + h) >> bits)
        vr = pr + ((er * xr - ei * xi + h) >> bits)         # x_prev + eps x
        vi = pi + ((er * xi + ei * xr + h) >> bits)
        uvr = (ur * vr - ui * vi + h) >> bits
        uvi = (ur * vi + ui * vr + h) >> bits
        m = (d1r * d1r + d1i * d1i + h) >> bits             # |D1|^2
        rr = ((rr * m + n * (uvr * d1r + uvi * d1i)) + h) >> bits
        ri = ((ri * m + n * (uvi * d1r - uvr * d1i)) + h) >> bits
        ar = (ar * m + h) >> bits
        ai = (ai * m + h) >> bits
    dr = ar - ((rr * xr - ri * xi + h) >> bits)
    di = ai - ((rr * xi + ri * xr + h) >> bits)
    if not (dr or di):
        raise StepSingularError(f"Moebius solve singular at n={n}")
    cr = (xr * er + xi * ei + h) >> bits                    # x conj(eps)
    ci = (xi * er - xr * ei + h) >> bits
    nr = (rr * er - ri * ei - ar * cr + ai * ci + h) >> bits
    ni = (rr * ei + ri * er - ar * ci - ai * cr + h) >> bits
    nn, dd = nr * nr + ni * ni, dr * dr + di * di
    if not nn:
        raise StepSingularError(f"zero image at n={n}")
    w, wr, wi = math.isqrt(nn * dd), nr * dr + ni * di, ni * dr - nr * di  # |W|, N conj(D)
    x_next = div_nearest(wr << bits, w), div_nearest(wi << bits, w)
    return x_next, abs(nn - dd) / dd / (1 + math.sqrt(nn / dd))


def _refuse_pole_start(b: Boundary, beta0, alpha) -> None:
    """The n = 0 solve is 0/0 in exact arithmetic only for c = 2 from
    x_0 = epsilon: refuse it at every precision, not let rounding decide."""
    if b.c == 2 and beta0 == alpha:
        raise StepSingularError("Moebius solve singular at n=0")


class RunSetup:
    """What every run of b at one width shares, built once: the width's bits
    and unit one, alpha at that width, epsilon (with F and K, _constants,
    on integers), whether Im epsilon is resolved, and the step and sector
    rules.  walk runs one start through them.  dps=None runs in doubles; a
    dps runs on integers over 2**bits, bits = numerics.fixed_bits(dps),
    with angles taken to prec = bits + ANGLE_GUARD_BITS bits."""

    def __init__(self, b: Boundary, dps: Optional[int] = None):
        self.b = b
        self.bits = None if dps is None else fixed_bits(dps)
        self.prec = None if dps is None else self.bits + ANGLE_GUARD_BITS
        self.alpha = b.angle(self.prec)
        if dps is None:
            self.one, where, eps = 1.0, "in double", b.eps()
            er, ei = eps.real, eps.imag
            self.step = lambda n, prev, cur: _step_raw(n, prev, cur, b.c, eps)
            # sector_of_signs, with epsilon taken once
            self.sector = lambda z: sector_of_signs(z.imag, z.imag * er - z.real * ei)
        else:
            bits = self.bits
            self.one, where = 1 << bits, f"at dps {dps}"
            consts = _constants(b, bits)
            er, ei = consts[0]
            self.step = lambda n, prev, cur: _fixed_step(n, prev, cur, consts, bits)
            self.sector = lambda z: sector_of_signs(z[1], z[1] * er - z[0] * ei)
        self.where, self.unresolved = where, f"alpha = {b.alpha!r} is not resolved {where}"
        # a part of a unit number reads as zero when it leaves one unchanged
        self.eps_resolved = self.one + ei != self.one

    def walk(self, beta0, n_steps: int) -> PainleveTrajectory:
        """run_trajectory from x_0 = exp(i beta0) on this set-up."""
        alpha, one, bits = self.alpha, self.one, self.bits
        beta0 = self.b.beta0(self.prec) if beta0 is None else beta0
        if not (0 <= beta0 <= alpha):
            raise ValueError("starting angle must lie in [0, alpha]")
        if bits is None:
            x = cmath.exp(1j * beta0)
            im_x = x.imag
        else:
            x = fixed_unit(beta0, bits)
            im_x = x[1]
        inside = 0 < beta0 < alpha
        if not self.eps_resolved:
            raise ResolutionError(self.unresolved)
        if inside and one + im_x == one:
            raise ResolutionError(f"the start beta0 = {float(beta0)!r} "
                                  f"is not resolved {self.where}")
        if n_steps:
            _refuse_pole_start(self.b, beta0, alpha)
        step, sector = self.step, self.sector
        points, sectors = [x], [sector(x)]
        exit_index = exit_sector = None
        drift = 0.0
        if sectors[0] not in _IN_CLOSED:
            exit_index, exit_sector = 0, sectors[0]
        else:
            x_prev = x  # not read by the n = 0 step
            for n in range(n_steps):
                try:
                    x_next, d = step(n, x_prev, x)
                except StepSingularError as exc:
                    # from a start inside, singular only by rounding (_refuse_pole_start):
                    if n == 0 and inside:  # of the step where its image is zero, else of alpha
                        raise ResolutionError(f"the step at n = 0 is not resolved {self.where}"
                                              if "zero" in str(exc) else self.unresolved) from None
                    raise
                drift = max(drift, d)
                x_prev, x = x, x_next
                points.append(x)
                sectors.append(sector(x))
                if sectors[-1] not in _IN_CLOSED:
                    exit_index, exit_sector = n + 1, sectors[-1]
                    break
        return PainleveTrajectory(points=points, sectors=sectors,
                                  exit_index=exit_index, exit_sector=exit_sector,
                                  max_unitarity_drift=drift, bits=bits)


def run_trajectory(b: Boundary, beta0, n_steps: int,
                   dps: Optional[int] = None) -> PainleveTrajectory:
    """Iterate from x_0 = exp(i beta0), beta0 None the separatrix start of
    b at the run's width; record sectors and the first exit from the closed
    sector (the nested-segment sets of the existence argument use the
    closure).  dps=None runs in doubles; a dps runs on integers over
    2**bits, bits = numerics.fixed_bits(dps).  One RunSetup(b, dps), walked
    once.

    ResolutionError when the precision cannot resolve the start: Im epsilon,
    or Im x_0 of a start inside (0, alpha), leaves one unchanged (the message
    names alpha or the start), or the n = 0 solve from such a start is singular."""
    return RunSetup(b, dps).walk(beta0, n_steps)


def growth_rate(b: Boundary, probe_steps: int = 10) -> float:
    """Empirical per-step amplification of a small perturbation of the
    separatrix (used to size precision for shooting and horizons).

    Two fixed-point runs start 10**-PROBE_DIGITS apart in angle; after
    probe_steps steps their gap is the angle of xb conj(xa).  The roundoff
    of the first steps grows like the gap, so the gap keeps about
    dps - PROBE_DIGITS digits.  The planner sizes the run as probe_steps
    steps of growth up to tenfold beyond PROBE_DIGITS + 10 digits: dps 50
    for the default ten steps.
    """
    run = RunSetup(b, required_dps(probe_steps, 10, PROBE_DIGITS + 10))
    bits, step = run.bits, run.step
    beta = b.beta0(run.prec)
    _refuse_pole_start(b, beta, run.alpha)
    with mp.workprec(run.prec):
        xa, xb = b.x0(bits), fixed_unit(beta + mp.mpf(10) ** -PROBE_DIGITS, bits)
    pa, pb = xa, xb
    for n in range(probe_steps):
        pa, xa = xa, step(n, pa, xa)[0]
        pb, xb = xb, step(n, pb, xb)[0]
    gap = abs(_atan2(xb[1] * xa[0] - xb[0] * xa[1], xb[0] * xa[0] + xb[1] * xa[1]))
    return 1.0 if gap == 0 else (gap * 10.0 ** PROBE_DIGITS) ** (1 / probe_steps)


def shoot_horizon(alpha: float, growth: float, n_stay: int, tol: float) -> int:
    """Steps shoot runs each start for: max(2 n_stay + 80,
    ceil(ln(2 alpha / tol) / ln growth) + n_stay + 20).  A start tol off
    the separatrix leaves the sector once its gap, growing growth-fold a
    step, reaches the sector's width, so near alpha = pi, where the
    separatrix is only weakly unstable, the horizon grows past the floor.
    BracketError when growth <= 1 or the horizon passes MAX_HORIZON."""
    if not growth > 1:
        raise BracketError(f"growth rate {growth!r} <= 1: no shoot horizon lets "
                           "starts off the separatrix exit")
    exit_steps = math.ceil(math.log(2 * alpha / tol) / math.log(growth))
    horizon = max(2 * n_stay + 80, exit_steps + n_stay + 20)
    if horizon > MAX_HORIZON:
        raise BracketError(f"shoot horizon of {horizon} steps at growth rate "
                           f"{growth:.8g} passes MAX_HORIZON = {MAX_HORIZON}")
    return horizon


def shoot(b: Boundary, n_stay: int, tol: float) -> Tuple[float, float]:
    """Bracket the separatrix angle by exit-side bisection.

    Returns (lo, hi) with width <= tol such that the endpoint trajectories
    leave the sector on opposite sides after at least n_stay in-sector
    steps.  The nested-interval structure mirrors the existence argument:
    exits through the upper boundary steer hi, through the lower steer lo.
    Every start is walked on one RunSetup at the planned dps, for
    shoot_horizon steps sized from the same growth rate as the dps.
    """
    if n_stay < 1 or tol <= 0:
        raise ValueError("need n_stay >= 1 and tol > 0")
    alpha = b.alpha
    if tol < math.ulp(alpha):
        # the bracket is returned in doubles, one ulp wider on each side
        raise ValueError(f"tol {tol!r} is below the double resolution "
                         f"{math.ulp(alpha)!r} of the angle")
    growth = growth_rate(b)
    dps = required_dps(n_stay + 10, max(growth, 1.5), 30)
    horizon = shoot_horizon(alpha, growth, n_stay, tol)
    run = RunSetup(b, dps)

    def classify(beta):
        """('upper'|'lower'|None, exit index).

        Exits through the top boundary land near -1 (sector A_II, or A_III
        just past the -pi seam); exits through the bottom land near
        -epsilon (A_IV, or A_III just past alpha-pi).  A_III exits are
        assigned by proximity to the two accumulation points.
        """
        traj = run.walk(beta, horizon)
        if traj.stayed:
            return None, horizon
        sec = traj.exit_sector
        if sec is SectorTag.A_II:
            return "upper", traj.exit_index
        if sec is SectorTag.A_IV:
            return "lower", traj.exit_index
        beta_exit = traj.beta(-1)
        near_top = beta_exit + math.pi            # distance to the -pi seam
        near_bottom = (alpha - math.pi) - beta_exit
        return ("upper" if near_top < abs(near_bottom) else "lower",
                traj.exit_index)

    with mp.workdps(dps):
        # alpha as the runs compare with it
        lo, hi = mp.mpf(0), run.alpha
        side_lo, stay_lo = classify(lo)
        side_hi, stay_hi = classify(hi)
        if side_lo != "lower" or side_hi != "upper":
            raise BracketError("endpoints do not exit on opposite sides")
        for _ in range(MAX_BISECTIONS):
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
            raise BracketError(f"bisection did not settle within {MAX_BISECTIONS} steps")
        # widen by one ulp so the float bracket still encloses the target
        return (math.nextafter(float(lo), -math.inf),
                math.nextafter(float(hi), math.inf))
