"""Euclidean route: the radius function on the even sublattice.

Radii of an immersed pattern obey three local relations: a six-circle
balance around every intersection point (with integer coefficients read off
the sublattice label), a border relation along the two boundary rows of
circles, and a three-circle relation determining a circle through the
pairwise intersection points of three others.  Seeded with the closed-form
initial data, replaying the lattice fill order reproduces the radii the
evolved map would produce; positivity of every value is exactly the
immersion property, so sign failures are reported, never clamped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Optional, Tuple

from . import lattice
from .lattice import (SubIndex, TAG_BORDER, TAG_HEX, TAG_SEED, TAG_TRI,
                      border_fill_stencil, black_fill_stencil,
                      hex_coefficients, hex_stencil_slots, tri_fill_stencil)
from .pattern_core import PatternParams, ZField, axis_distances, generate_z

POLE = math.inf


class StencilType(Enum):
    """The four local relation patterns and their slot arities."""

    TYPE_I = "border-k"     # boundary row along the first direction
    TYPE_II = "border-l"    # boundary row along the second direction
    TYPE_III = "six-circle"
    TYPE_IV = "three-circle"

    @property
    def arity(self) -> int:
        return 6 if self is StencilType.TYPE_III else 3


TAG_TO_STENCIL = {TAG_HEX: StencilType.TYPE_III, TAG_TRI: StencilType.TYPE_IV}


def stencil_type_for(entry_tag: str, site: SubIndex) -> StencilType:
    if entry_tag == TAG_BORDER:
        return StencilType.TYPE_I if site[1] == 0 else StencilType.TYPE_II
    return TAG_TO_STENCIL[entry_tag]


class DegenerateStencilError(ArithmeticError):
    """A radius solve hit a vanishing denominator."""


@dataclass
class PositivityViolation(ArithmeticError):
    """Sign failure during the fill: the immersion-failure signal."""

    site: SubIndex
    value: float
    tag: str
    upstream: dict

    def __str__(self):
        return (f"nonpositive radius {self.value!r} at {self.site} "
                f"({self.tag}; upstream {self.upstream})")


@dataclass
class RadiusField:
    params: PatternParams
    values: Dict[SubIndex, float]
    generation: int
    normalized: bool = True
    pole_sites: Tuple[SubIndex, ...] = ()
    meta: dict = field(default_factory=dict)

    def __contains__(self, site: SubIndex) -> bool:
        return site in self.values

    def __getitem__(self, site: SubIndex) -> float:
        return self.values[site]

    def is_pole(self, site: SubIndex) -> bool:
        return site in self.pole_sites


# ---------------------------------------------------------------------------
# single-stencil solvers
# ---------------------------------------------------------------------------

def hex_residual(label: SubIndex, values: Dict[SubIndex, float], c: float) -> Optional[float]:
    """Residual of the six-circle relation at a sublattice label, or None if
    a needed slot is missing.  Slots multiplied by a zero coefficient are
    ignored; pole values contribute their limit ratio (+-1)."""
    slots = hex_stencil_slots(label)
    co = hex_coefficients(label)
    total = 0.0
    for cf, (pa, pb) in zip(co, (("r4", "r1"), ("r6", "r3"), ("r2", "r5"))):
        if cf == 0:
            continue
        if slots[pa] not in values or slots[pb] not in values:
            return None
        ra, rb = values[slots[pa]], values[slots[pb]]
        if math.isinf(ra) and math.isinf(rb):
            return None
        if math.isinf(ra):
            ratio = 1.0
        elif math.isinf(rb):
            ratio = -1.0
        else:
            ratio = (ra - rb) / (ra + rb)
        total += cf * ratio
    return total - (c - 1)


def hex_solve(K: int, L: int, M: int, *, r1=None, r3=None, r4=None, r5=None,
              r6=None, c: float) -> float:
    """Solve the six-circle relation at label (K, L, M) for the r2 slot.

    The five other slots are the knowns; slots whose coefficient vanishes
    may be omitted.  Specializing the label to (K, L, -K-1) reproduces the
    border reduction, and to (K, K, -K-1) the diagonal recurrence
    r2 = r5 (2K+c)/(2K+2-c).
    """
    co_k, co_l, co_m = hex_coefficients((K, L, M))
    if co_m == 0:
        raise DegenerateStencilError("unknown slot has zero coefficient")
    acc = c - 1
    for cf, ra, rb, names in ((co_k, r4, r1, "r4/r1"), (co_l, r6, r3, "r6/r3")):
        if cf == 0:
            continue
        if ra is None or rb is None:
            raise DegenerateStencilError(f"missing known slots {names}")
        if ra + rb == 0:
            raise DegenerateStencilError(f"degenerate pair {names}")
        acc -= cf * (ra - rb) / (ra + rb)
    if r5 is None:
        raise DegenerateStencilError("missing known slot r5")
    # co_m (r2 - r5)/(r2 + r5) = acc
    if math.isinf(r5):
        # limit ratio is -1 for finite r2
        if acc == -co_m:
            raise DegenerateStencilError("pole slot leaves r2 undetermined")
        raise DegenerateStencilError("pole in r5 with inconsistent balance")
    den = co_m - acc
    if den == 0:
        return POLE
    return r5 * (co_m + acc) / den


def border_residual(r: float, r1: float, r2: float, r3: float,
                    cos_alpha: float) -> float:
    """Residual of the border relation for the four circles along a
    boundary row."""
    return ((r1 + r2) * (r * r - r2 * r3 + r * (r3 - r2) * cos_alpha)
            + (r3 + r2) * (r * r - r2 * r1 + r * (r1 - r2) * cos_alpha))


def border_solve(r: float, r2: float, r3: float, angle_index: int,
                 params: PatternParams) -> float:
    """Solve the border relation for the r1 slot (the next boundary circle).

    r is the current boundary circle, r3 the previous one, r2 the adjacent
    circle of the inner row; angle_index in {2, 3} picks the intersection
    angle of the corresponding boundary faces.
    """
    if angle_index not in (2, 3):
        raise ValueError("angle_index must be 2 or 3")
    bk = params.backend()
    t = bk.cos(params.exact_angle(angle_index - 1, bk))
    # linear in r1: r1 * [A + (r3+r2)(r t - r2)] + r2 A + (r3+r2) r (r - r2 t) = 0
    a_fac = r * r - r2 * r3 + r * (r3 - r2) * t
    den = a_fac + (r3 + r2) * (r * t - r2)
    if den == 0:
        raise DegenerateStencilError("border relation degenerate")
    return -(r2 * a_fac + (r3 + r2) * r * (r - r2 * t)) / den


def _sines(params: PatternParams):
    bk = params.backend()
    return tuple(bk.sin(params.exact_angle(i, bk)) for i in range(3))


def tri_residual(r: float, r1: float, r2: float, r3: float,
                 params: PatternParams) -> float:
    s1, s2, s3 = _sines(params)
    return (r * (r1 * s3 + r2 * s1 + r3 * s2)
            - (r1 * r2 * s2 + r2 * r3 * s3 + r3 * r1 * s1))


def tri_solve(r1: float, r2: float, r3: float, params: PatternParams) -> float:
    """Circle through the pairwise intersection points of three circles;
    manifestly positive for positive inputs."""
    s1, s2, s3 = _sines(params)
    num = r1 * r2 * s2 + r2 * r3 * s3 + r3 * r1 * s1
    den = r1 * s3 + r2 * s1 + r3 * s2
    if den == 0:
        raise DegenerateStencilError("three-circle relation degenerate")
    return num / den


def tri_solve_slot2(r: float, r1: float, r3: float,
                    params: PatternParams) -> float:
    """Solve the three-circle relation for its r2 slot given the base and
    the other two circles (the direction used by the interior fill)."""
    s1, s2, s3 = _sines(params)
    den = r * s1 - r1 * s2 - r3 * s3
    if den == 0:
        raise DegenerateStencilError("three-circle slot solve degenerate")
    return (r1 * r3 * s1 - r * (r1 * s3 + r3 * s2)) / den


# ---------------------------------------------------------------------------
# seeds and the full fill
# ---------------------------------------------------------------------------

def z2_initial(params: PatternParams) -> Dict[SubIndex, float]:
    """Renormalized initial data of the c = 2 pattern (origin is a pole of
    the dual, a zero here)."""
    if min(params.alphas) <= 0:
        raise ValueError("angles must be positive")
    bk = params.backend()
    with bk.context():
        a2 = params.exact_angle(1, bk)
        a3 = params.exact_angle(2, bk)
        one = bk.real(1.0)
        return {
            (0, 0, 0): 0 * one,
            (1, 0, -1): bk.sin(a3) / a3,
            (0, 1, -1): bk.sin(a2) / a2,
            (1, 1, -1): one,
        }


def seeds_from_pattern(params: PatternParams) -> Dict[SubIndex, float]:
    """Seed radii for 0 < c < 2, extracted from a depth-2 run of the evolved
    map (the initial data is given for z, not for r)."""
    zf = generate_z(params, 2)
    bk = params.backend()
    with bk.context():
        return {
            (0, 0, 0): bk.abs(zf[(1, 0, 0)] - zf[(0, 0, 0)]),
            (1, 0, -1): bk.abs(zf[(1, 0, -1)] - zf[(1, 0, 0)]),
            (0, 1, -1): bk.abs(zf[(0, 1, -1)] - zf[(0, 1, 0)]),
        }


def generate_radii(params: PatternParams, n_max: int,
                   seeds: Optional[Dict[SubIndex, float]] = None) -> RadiusField:
    """Fill TildeQ_H up to generation n_max along the lattice fill order.

    Every computed value must be positive; a sign failure raises
    PositivityViolation carrying the site and its upstream values.  c = 2
    uses the renormalized seeds (with the extra black seed) automatically.
    """
    if seeds is None:
        if params.c == 2:
            seeds = z2_initial(params)
        elif 0 < params.c < 2:
            seeds = seeds_from_pattern(params)
        else:
            raise ValueError("no seed rule for c = 0; use dual()")
    values: Dict[SubIndex, float] = {}
    pole_sites: List[SubIndex] = []
    c = params.c
    ctx = params.backend().context()
    for entry in lattice.fill_order(n_max):
        site, tag = entry.site, entry.tag
        if site in seeds:
            values[site] = seeds[site]
            continue
        if tag == TAG_SEED:
            raise ValueError(f"missing seed value for {site}")
        with ctx:
            if tag == TAG_HEX:
                label, slots = black_fill_stencil(site)
                known = {name: values.get(slots[name]) for name in
                         ("r1", "r3", "r4", "r5", "r6")}
                val = hex_solve(*label, c=c, **known)
            elif tag == TAG_BORDER:
                st = border_fill_stencil(site)
                val = border_solve(values[st["r"]], values[st["r2"]],
                                   values[st["r3"]], st["angle_index"], params)
            elif tag == TAG_TRI:
                st = tri_fill_stencil(site)
                val = tri_solve_slot2(values[st["r"]], values[st["r1"]],
                                      values[st["r3"]], params)
            else:
                raise ValueError(tag)
        if math.isinf(float(val)):
            pole_sites.append(site)
        elif not (val > 0) or math.isnan(float(val)):
            upstream = {str(dep): values.get(dep) for dep in entry.dependencies()}
            raise PositivityViolation(site=site, value=val, tag=tag,
                                      upstream=upstream)
        values[site] = val
    rf = RadiusField(params=params, values=values, generation=n_max,
                     pole_sites=tuple(pole_sites) + tuple(
                         s for s, v in seeds.items() if math.isinf(v)))
    rf.meta["seeds"] = dict(seeds)
    return rf


def dual(rf: RadiusField) -> RadiusField:
    """Duality transformation r -> 1/r, c -> 2-c; zeros become flagged
    poles and vice versa."""
    new_params = PatternParams(alphas=rf.params.alphas, c=2 - rf.params.c,
                               precision=rf.params.precision, dps=rf.params.dps,
                               alpha_pi_fracs=rf.params.alpha_pi_fracs)
    new_values: Dict[SubIndex, float] = {}
    poles: List[SubIndex] = []
    for site, v in rf.values.items():
        if v == 0:
            new_values[site] = POLE
            poles.append(site)
        elif math.isinf(v):
            new_values[site] = 0.0
        else:
            new_values[site] = 1.0 / v
    out = RadiusField(params=new_params, values=new_values,
                      generation=rf.generation, pole_sites=tuple(poles))
    out.meta["dual_of_c"] = rf.params.c
    return out


# ---------------------------------------------------------------------------
# residual sweeps and the oracle extraction
# ---------------------------------------------------------------------------

def _finite(values: Dict[SubIndex, float], sites) -> bool:
    return all(s in values and not math.isinf(values[s]) and values[s] != 0
               for s in sites)


def iter_equation_residuals(rf: RadiusField) -> Iterator[Tuple[str, SubIndex, float]]:
    """All testable stencil instances inside the stored field.

    Yields (kind, anchor, residual) with residuals of the six-circle
    relation (normalized by its coefficients), the border relation
    (normalized by the radius scale cubed) and the three-circle relation in
    both slot parities.  Stencils touching poles or zeros are skipped.
    """
    values = rf.values
    c = rf.params.c
    s1, s2, s3 = (math.sin(a) for a in rf.params.alphas)
    # six-circle instances: labels with slot sums inside {0, 1}
    for (K, L, M) in values:
        label = (K - 1, L - 1, M)
        res = hex_residual(label, values, c)
        if res is not None:
            yield ("hex", label, float(abs(res)))
    # border instances, on both boundary rows
    for site in values:
        K, L, M = site
        if not ((L == 0 and M == -K and K >= 2) or (K == 0 and M == -L and L >= 2)):
            continue
        st = border_fill_stencil(site)
        sites = [st["r"], st["r2"], st["r3"]]
        if _finite(values, sites + [site]):
            r, r2v, r3v = (values[s] for s in sites)
            scale = max(r, 1.0) ** 3
            cos_alpha = math.cos(rf.params.alphas[st["angle_index"] - 1])
            yield ("border", site,
                   float(abs(border_residual(r, values[site], r2v, r3v, cos_alpha))
                         / scale))
    # three-circle instances, both parities
    for base in values:
        K, L, M = base
        for sgn in (+1, -1):
            sites = [base, (K, L - sgn, M), (K, L, M - sgn), (K - sgn, L, M)]
            if _finite(values, sites):
                r, r1v, r2v, r3v = (values[s] for s in sites)
                scale = max(r, r1v, r2v, r3v, 1.0) ** 2
                yield ("tri", base,
                       float(abs(r * (r1v * s3 + r2v * s1 + r3v * s2)
                                 - (r1v * r2v * s2 + r2v * r3v * s3
                                    + r3v * r1v * s1)) / scale))


def max_equation_residual(rf: RadiusField) -> float:
    return max((res for _, _, res in iter_equation_residuals(rf)), default=0.0)


def extract_radii(zf: ZField, n_max: Optional[int] = None) -> Dict[SubIndex, float]:
    """Distances from even vertices to their stored neighbors, keyed by
    sublattice label (the oracle for the recurrence route)."""
    out: Dict[SubIndex, float] = {}
    with zf.params.backend().context():
        for site in zf.values:
            if lattice.parity(site) != 0:
                continue
            sub = lattice.to_sub(site)
            if n_max is not None and lattice.sub_generation(sub) > n_max:
                continue
            dists = axis_distances(zf.values, site)
            if dists:
                out[sub] = sum(dists) / len(dists)
    return out


def compare_routes(params: PatternParams, n_max: int) -> Tuple[float, int]:
    """Sitewise gap between recurrence radii and evolved-map distances on
    TildeQ_H; returns (max_gap, sites_compared).

    Both routes follow the same unstable separatrix; the comparison reaches
    evolution depth 2*n_max + 2, so past the double-precision depth both
    routes switch to extended precision (the fill mirrors the evolution's
    precision policy).
    """
    depth = 2 * n_max + 2
    if depth > 12 and params.precision == "double":
        params = PatternParams(alphas=params.alphas, c=params.c,
                               precision="ext", dps=max(40, 2 * depth),
                               alpha_pi_fracs=params.alpha_pi_fracs)
    rf = generate_radii(params, n_max)
    zf = generate_z(params, depth)
    oracle = extract_radii(zf)
    worst, count = 0.0, 0
    for site, val in rf.values.items():
        if site in oracle and not math.isinf(float(val)):
            worst = max(worst, abs(float(val) - oracle[site]))
            count += 1
    return worst, count
