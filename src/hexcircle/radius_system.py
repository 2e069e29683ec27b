"""Euclidean route: the radius function on the even sublattice.

Radii of an immersed pattern obey three local relations: a six-circle
balance around every intersection point (with integer coefficients read off
the sublattice label), a border relation along the two boundary rows of
circles, and a three-circle relation determining a circle through the
pairwise intersection points of three others.  Seeded with the closed-form
initial data, replaying the lattice fill order reproduces the radii the
evolved map would produce; positivity of every value is exactly the
immersion property, so sign failures are reported, never clamped.

Positivity holds only on an unstable separatrix, so rounding decides it,
and every fill runs the solvers on integers over 2**P (_rounding): its
seeds are taken beyond P bits and rounded once to those integers, each
solve forms its numerator and denominator exactly and divides once, so
each site carries one rounding of at most half a unit in 2**-P, and the
values are rounded once more, to floats or mpf at the working precision:
the stored seeds are that one rounding of its integer seeds.  The passes
over an extended field's radii (dual, equation_defects, the positivity
check and the layout's reads) take each mpf by its raw tuple, with no mpf
operator per radius.
"""
from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from . import lattice
from .lattice import (SubIndex, TAG_BORDER, TAG_HEX, TAG_SEED, TAG_TRI,
                      border_fill_stencil, axis_neighbors, fill_dependencies,
                      hex_coefficients, hex_stencil_slots)
from .numerics import (ANGLE_GUARD_BITS, DEFAULT_EXT_DPS, DOUBLE, GUARD_BITS, Record,
                       aligned_reals, div_nearest, fixed_bits, fixed_real, fixed_unit, mp,
                       quotient, raw_mpf, worst_of)
from .pattern_core import (PatternParams, ZField, evolve, field_points,
                           generate_z, guarded_angles, memoised)

POLE = math.inf


def is_pole(r) -> bool:
    """Whether a radius (float, int or mpf) is +inf, the only mark of a
    pole: an mpf by its raw tuple, libmp's finf, with no mpf operator."""
    return r == POLE if isinstance(r, (float, int)) else r._mpf_ == mp.libmp.finf


def is_positive(r) -> bool:
    """Whether a radius (float, int or mpf) is positive, a pole included: an
    mpf by the sign and the mantissa or infinity code of its raw tuple."""
    if isinstance(r, (float, int)):
        return r > 0
    t = r._mpf_
    return not t[0] and (t[1] != 0 or t == mp.libmp.finf)


class DegenerateStencilError(ArithmeticError):
    """A radius solve hit a vanishing denominator."""


class PositivityViolation(Record, ArithmeticError):
    """Sign failure during the fill: the immersion-failure signal."""

    _fields = ("site", "value", "tag", "upstream")

    def __init__(self, site: SubIndex, value: float, tag: str, upstream: dict):
        self.site, self.value, self.tag, self.upstream = site, value, tag, upstream

    def __str__(self):
        return (f"nonpositive radius {self.value!r} at {self.site} "
                f"({self.tag}; upstream {self.upstream})")


class RadiusField(Record):
    _fields = ("params", "values", "generation")

    def __init__(self, params: PatternParams, values: Dict[SubIndex, float], generation: int):
        self.params, self.values, self.generation = params, values, generation


# ---------------------------------------------------------------------------
# single-stencil solvers
# ---------------------------------------------------------------------------

#: the slot pairs (ra, rb) of the six-circle relation, in the order of
#: hex_coefficients
_HEX_PAIRS = (("r4", "r1"), ("r6", "r3"), ("r2", "r5"))
#: those slots as offsets from the site (K, L, M) of label (K - 1, L - 1, M)
_HEX_OFFSETS = tuple((slots[pa], slots[pb]) for slots in [hex_stencil_slots((-1, -1, 0))]
                     for pa, pb in _HEX_PAIRS)


def hex_residual(label: SubIndex, values: Dict[SubIndex, float], c: float) -> Optional[float]:
    """Residual of the six-circle relation at a sublattice label, or None if
    a needed slot is missing.  Slots multiplied by a zero coefficient are
    ignored; pole values contribute their limit ratio (+-1)."""
    slots = hex_stencil_slots(label)
    co = hex_coefficients(label)
    total = 0.0
    for cf, (pa, pb) in zip(co, _HEX_PAIRS):
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
              r6=None, c: float, bits: Optional[int] = None) -> float:
    """Solve the six-circle relation at label (K, L, M) for the r2 slot.

    The five other slots are the knowns; slots whose coefficient vanishes
    may be omitted.  Specializing the label to (K, L, -K-1) reproduces the
    border reduction, and to (K, K, -K-1) the diagonal recurrence
    r2 = r5 (2K+c)/(2K+2-c).

    With bits, c and the radii are integers over 2**bits, POLE aside.  The
    balance acc is A / S with S = 2**bits prod(ra + rb) and A exact over
    the active pairs, and r2 = r5 (co_m S + A) / (co_m S - A) is one
    rounded division, within half a unit 2**-bits of the exact solve of
    the given integers.  A pole in a pair gives NaN, as the mpf route does:
    the solve without bits, kept as the reference the tests replay.
    """
    co_k, co_l, co_m = hex_coefficients((K, L, M))
    if co_m == 0:
        raise DegenerateStencilError("unknown slot has zero coefficient")
    # the balance left for the unknown pair, co_m (r2 - r5)/(r2 + r5) = acc,
    # is acc = num / S, S = den 2**bits (S = 1 without bits)
    num, den, finite = c - (1 if bits is None else 1 << bits), 1, True
    for cf, ra, rb, names in ((co_k, r4, r1, "r4/r1"), (co_l, r6, r3, "r6/r3")):
        if cf == 0:
            continue
        if ra is None or rb is None:
            raise DegenerateStencilError(f"missing known slots {names}")
        pair = ra + rb
        if pair == 0:
            raise DegenerateStencilError(f"degenerate pair {names}")
        if bits is None:
            num -= cf * (ra - rb) / pair
        elif type(pair) is int:
            num, den = num * pair - (cf * (ra - rb) * den << bits), den * pair
        else:
            finite = False
    if r5 is None:
        raise DegenerateStencilError("missing known slot r5")
    s = co_m if bits is None else co_m * den << bits
    if is_pole(r5):
        # limit ratio is -1 for finite r2
        if finite and num == -s:
            raise DegenerateStencilError("pole slot leaves r2 undetermined")
        raise DegenerateStencilError("pole in r5 with inconsistent balance")
    if bits is not None and not (finite and type(r5) is int):
        return math.nan
    if s == num:
        return POLE
    if bits is None:
        return r5 * (s + num) / (s - num)
    return div_nearest(r5 * (s + num), s - num)


def border_residual(r: float, r1: float, r2: float, r3: float,
                    cos_alpha: float) -> float:
    """Residual of the border relation for the four circles along a
    boundary row."""
    return ((r1 + r2) * (r * r - r2 * r3 + r * (r3 - r2) * cos_alpha)
            + (r3 + r2) * (r * r - r2 * r1 + r * (r1 - r2) * cos_alpha))


def border_solve(r: float, r2: float, r3: float, angle_index: int,
                 params: PatternParams, cosines=None,
                 bits: Optional[int] = None) -> float:
    """Solve the border relation for the r1 slot (the next boundary circle).

    r is the current boundary circle, r3 the previous one, r2 the adjacent
    circle of the inner row; angle_index in {2, 3} picks the intersection
    angle of the corresponding boundary faces.  cosines are the angle
    cosines of angle_constants, computed here when not passed.

    With bits, the radii and cosines are integers over 2**bits, and the
    numerator (over 2**(4 bits)) and denominator (over 2**(3 bits)) are
    exact, so r1 is one rounded division, within half a unit 2**-bits of
    the exact solve of the given integers.  A pole among the radii gives
    NaN, as the mpf reference route (without bits, see hex_solve) does.
    """
    if angle_index not in (2, 3):
        raise ValueError("angle_index must be 2 or 3")
    if cosines is None:
        cosines = angle_constants(params, bits=bits)[1]
    t = cosines[angle_index - 1]
    if bits is not None and not type(r) is type(r2) is type(r3) is int:
        return math.nan
    one = 1 if bits is None else 1 << bits
    # linear in r1: r1 * [A + (r3+r2)(r t - r2)] + r2 A + (r3+r2) r (r - r2 t) = 0
    a_fac = (r * r - r2 * r3) * one + r * (r3 - r2) * t
    den = a_fac + (r3 + r2) * (r * t - r2 * one)
    if den == 0:
        raise DegenerateStencilError("border relation degenerate")
    num = -(r2 * a_fac + (r3 + r2) * r * (r * one - r2 * t))
    return num / den if bits is None else div_nearest(num, den)


def angle_constants(params: PatternParams, bk=None, bits: Optional[int] = None):
    """(sines, cosines) of the three intersection angles at the working
    precision, from the exact angles.  With bits, integers over 2**bits
    within one unit: numerics.fixed_unit of the angles taken to
    bits + ANGLE_GUARD_BITS bits."""
    if bits is not None:
        cosines, sines = zip(*(fixed_unit(a, bits) for a in guarded_angles(params, bits)))
        return sines, cosines
    bk = bk or params.backend()
    angles = [params.exact_angle(i, bk) for i in range(3)]
    return tuple(bk.sin(a) for a in angles), tuple(bk.cos(a) for a in angles)


def tri_residual(r: float, r1: float, r2: float, r3: float,
                 params: PatternParams) -> float:
    s1, s2, s3 = angle_constants(params)[0]
    return (r * (r1 * s3 + r2 * s1 + r3 * s2)
            - (r1 * r2 * s2 + r2 * r3 * s3 + r3 * r1 * s1))


def tri_solve_slot2(r: float, r1: float, r3: float,
                    params: PatternParams, sines=None,
                    bits: Optional[int] = None) -> float:
    """Solve the three-circle relation for its r2 slot given the base and
    the other two circles (the direction used by the interior fill).
    sines are the angle sines of angle_constants, computed here when not
    passed.

    With bits, the radii and sines are integers over 2**bits, and the
    quotient of the exact numerator (over 2**(3 bits)) and denominator
    (over 2**(2 bits)) is rounded once, within half a unit 2**-bits of the
    exact solve of the given integers.  A pole among the radii gives NaN,
    as the mpf reference route (without bits, see hex_solve) does.
    """
    s1, s2, s3 = sines if sines is not None else angle_constants(params, bits=bits)[0]
    if bits is not None and not type(r) is type(r1) is type(r3) is int:
        return math.nan
    den = r * s1 - r1 * s2 - r3 * s3
    if den == 0:
        raise DegenerateStencilError("three-circle slot solve degenerate")
    num = r1 * r3 * s1 - r * (r1 * s3 + r3 * s2)
    return num / den if bits is None else div_nearest(num, den)


# ---------------------------------------------------------------------------
# seeds and the full fill
# ---------------------------------------------------------------------------

def _rounding(params: PatternParams):
    """(P, rounding) of a fill and its seed rules: P = 53 + GUARD_BITS for
    double (whose PatternParams does not check its dps), else
    numerics.fixed_bits(dps); x, an integer over 2**P, rounded once to a
    float or to an mpf at the working precision (numerics.raw_mpf); a pole
    or a NaN as it is."""
    if params.precision == DOUBLE:
        bits = 53 + GUARD_BITS
        return bits, lambda x: x / (1 << bits) if type(x) is int else x
    bits, make_mpf, prec = fixed_bits(params.dps), mp.make_mpf, mp.libmp.dps_to_prec(params.dps)
    return bits, lambda x: make_mpf(raw_mpf(x, -bits, prec)) if type(x) is int else x


def z2_initial(params: PatternParams, bits: Optional[int] = None) -> Dict[SubIndex, float]:
    """Renormalized initial data of the c = 2 pattern (origin is a pole of
    the dual, a zero here).  With bits, as integers over 2**bits: each
    sin(a)/a is taken to bits + ANGLE_GUARD_BITS bits and rounded once.
    Without, those integers at the fill's width, each rounded once by
    _rounding."""
    if min(params.alphas) <= 0:
        raise ValueError("angles must be positive")
    if bits is None:
        bits, rounded = _rounding(params)
        return {s: rounded(v) for s, v in z2_initial(params, bits).items()}
    _, a2, a3 = guarded_angles(params, bits)
    with mp.workprec(bits + ANGLE_GUARD_BITS):
        return {(0, 0, 0): 0, (1, 0, -1): fixed_real(mp.sin(a3) / a3, bits),
                (0, 1, -1): fixed_real(mp.sin(a2) / a2, bits), (1, 1, -1): 1 << bits}


# the seed radii of 0 < c < 2 as vertex pairs of a depth-2 run; the even
# one is the center, at the vertex of the seed's sublattice label
_SEED_SPOKES = {(0, 0, 0): ((1, 0, 0), (0, 0, 0)), (1, 0, -1): ((1, 0, -1), (1, 0, 0)),
                (0, 1, -1): ((0, 1, -1), (0, 1, 0))}


def seeds_from_pattern(params: PatternParams, bits: Optional[int] = None) -> Dict[SubIndex, float]:
    """Seed radii for 0 < c < 2, extracted from a depth-2 run of the evolved
    map (the initial data is given for z, not for r).  With bits, as
    integers over 2**bits: the run goes on integers over 2**W, W = bits +
    ANGLE_GUARD_BITS, and each seed is the mean distance from its center to
    its stored axis neighbors (all equal in exact arithmetic), the roots
    taken to W bits (_root_mean), rounded once.  Without bits, those
    integers at the fill's width, each rounded once by _rounding; a double
    pattern keeps the spokes of a double run, for analyze p0 alone: at
    --alpha 1e-300 a run on integers has no finite fourth vertex."""
    bk = params.backend()
    if bits is not None:
        wide = bits + ANGLE_GUARD_BITS
        sq_of = _sq_distances(evolve(params, 2, wide))
        means = {s: _root_mean(sq_of[s], wide) for s in _SEED_SPOKES}
        return {s: div_nearest(num, den << (wide - bits)) for s, (num, den) in means.items()}
    if bk.is_double:
        zf = generate_z(params, 2)
        return {s: bk.abs(zf[a] - zf[b]) for s, (a, b) in _SEED_SPOKES.items()}
    bits, rounded = _rounding(params)
    return {s: rounded(v) for s, v in seeds_from_pattern(params, bits).items()}


def generate_radii(params: PatternParams, n_max: int,
                   seeds: Optional[Dict[SubIndex, float]] = None) -> RadiusField:
    """Fill TildeQ_H up to generation n_max along the lattice fill order.

    Every computed value must be positive; a sign failure raises
    PositivityViolation carrying the site and its upstream values.  c = 2
    uses the renormalized seeds (with the extra black seed) automatically.

    The fill runs on integers over 2**P (P of _rounding) at either
    precision: the seeds and c are rounded to them once, the angle constants
    lie within one unit (angle_constants with bits), and each solve rounds
    once, by at most half a unit.  Without given seeds, the seed rule gives
    its integers over 2**P, called once.  Every value is rounded once more,
    to a float or to an mpf at the working precision (_rounding); the stored
    seeds are the given ones or the seed rule's.  A seed that is neither
    finite nor a pole raises ValueError.
    """
    rule = None
    if seeds is None:
        if not 0 < params.c <= 2:
            raise ValueError("no seed rule for c = 0; use dual()")
        rule = z2_initial if params.c == 2 else seeds_from_pattern
    bits, rounded = _rounding(params)
    c = fixed_real(params.c, bits)
    read = (rule(params, bits) if rule else
            {s: POLE if is_pole(v) else fixed_real(v, bits) for s, v in seeds.items()})
    sines, cosines = angle_constants(params, bits=bits)
    values: Dict[SubIndex, float] = {}
    get = values.get
    # the slots of lattice's black_fill_stencil, border_fill_stencil and
    # tri_fill_stencil, written out on the site
    for entry in lattice.fill_order(n_max):
        site, tag = entry
        if site in read:
            values[site] = read[site]
            continue
        K, L, M = site
        if tag == TAG_HEX:  # r2 of the six-circle stencil at (K - 1, L - 1, M)
            val = hex_solve(K - 1, L - 1, M, r1=get((K, L - 1, M)), r3=get((K - 1, L, M)),
                            r4=get((K - 1, L, M + 1)), r5=get((K - 1, L - 1, M + 1)),
                            r6=get((K, L - 1, M + 1)), c=c, bits=bits)
        elif tag == TAG_TRI:  # r2 of the three-circle stencil at (K, L, M + 1)
            val = tri_solve_slot2(values[K, L, M + 1], values[K, L - 1, M + 1],
                                  values[K - 1, L, M + 1], params, sines, bits)
        elif tag == TAG_BORDER:  # r1 of the border relation, on the row l = 0 or k = 0
            if L == 0:
                val = border_solve(values[K - 1, 0, M + 1], values[K - 1, 1, M + 1],
                                   values[K - 2, 0, M + 2], 3, params, cosines, bits)
            else:
                val = border_solve(values[0, L - 1, M + 1], values[1, L - 1, M + 1],
                                   values[0, L - 2, M + 2], 2, params, cosines, bits)
        elif tag == TAG_SEED:
            raise ValueError(f"missing seed value for {site}")
        else:
            raise ValueError(tag)
        if not val > 0:  # a pole is +inf, NaN fails
            upstream = {str(dep): values.get(dep) for dep in fill_dependencies(entry)}
            val, upstream = rounded(val), {k: rounded(v) for k, v in upstream.items()}
            raise PositivityViolation(site=site, value=val, tag=tag,
                                      upstream=upstream)
        values[site] = val
    # given seeds are stored as given
    values = {s: seeds[s] if seeds and s in seeds else rounded(v) for s, v in values.items()}
    return RadiusField(params=params, values=values, generation=n_max)


def dual(rf: RadiusField) -> RadiusField:
    """Duality transformation r -> 1/r, c -> 2-c; zeros become poles
    (+inf) and vice versa.  An extended field's finite nonzero mpf is read
    by its raw tuple, its reciprocal one correctly rounded division at the
    working precision (numerics.raw_mpf), as 1.0 / v gives."""
    new_params = PatternParams(alphas=rf.params.alphas, c=2 - rf.params.c,
                               precision=rf.params.precision, dps=rf.params.dps,
                               alpha_pi_fracs=rf.params.alpha_pi_fracs)
    bk = new_params.backend()
    mpf, make_mpf, prec = ((None,) * 3 if bk.is_double else
                           (mp.mpf, mp.make_mpf, mp.libmp.dps_to_prec(bk.dps)))
    new_values: Dict[SubIndex, float] = {}
    with bk.context():
        for site, v in rf.values.items():
            t = v._mpf_ if type(v) is mpf else None
            if t and t[1]:  # 1.0 / v, one rounded division
                new_values[site] = make_mpf(raw_mpf(-1 if t[0] else 1, -t[2], prec, t[1]))
            elif v == 0:
                new_values[site] = POLE
            elif is_pole(v):
                new_values[site] = 0.0
            else:
                new_values[site] = 1.0 / v
    return RadiusField(params=new_params, values=new_values,
                       generation=rf.generation)


# ---------------------------------------------------------------------------
# residual sweeps and the oracle extraction
# ---------------------------------------------------------------------------

def equation_defects(rf: RadiusField):
    """Every testable stencil of the three radius relations inside the
    stored field, as (kind, anchor, defect), or None when the radii cannot
    be read (numerics.aligned_reals: a NaN, or an extended value outside
    the aligned_points window).

    - ("hex", label): |hex_residual|, a pole giving its limit ratio +-1; a
      pair of poles or a missing slot leaves the stencil out;
    - ("border", site): |border_residual| / max(r, 1)**3 for the relation
      producing the radius at a boundary site;
    - ("tri", (base, sgn)): |tri_residual| / max(r, r1, r2, r3, 1)**2 with
      the neighbors base - sgn e_i.

    Border and three-circle stencils touching a pole or a zero are left
    out.  The radii and the working-precision sines, cosines and c - 1 are
    read once as integers over powers of two (floats on a double field),
    the poles by their raw tuples; the six-circle balance starts at -(c -
    1) over the constants' unit and is multiplied through by its pair sums,
    the other relations take that unit as a shift, and only the final
    quotient is rounded to double.  A vanishing pair sum raises
    DegenerateStencilError.
    """
    params = rf.params
    bk = params.backend()
    poles = {s for s, v in rf.values.items() if is_pole(v)}
    with bk.context():
        sines, cosines = angle_constants(params, bk)
        consts = dict(enumerate(sines + cosines + (bk.real(params.c) - 1,)))
        read_r = aligned_reals(bk, {s: v for s, v in rf.values.items()
                                    if s not in poles})
        read_k = aligned_reals(bk, consts)
    if read_r is None or read_k is None:
        return None
    r, r_one = read_r
    k, one = read_k
    s1, s2, s3, *cos, c1 = k.values()
    # x * one: a shift on an extended read, whose one is a power of two
    unit = (lambda x, k=one.bit_length() - 1: x << k) if type(one) is int else (lambda x: x * one)
    out, get = [], r.get
    # six-circle relations: labels with slot sums inside {0, 1} (_HEX_OFFSETS);
    # the balance num / den starts at -(c - 1) = -c1 / one
    for (K, L, M) in rf.values:
        num, den = -c1, one
        for cf, ((ka, la, ma), (kb, lb, mb)) in zip((L + M, M + K, K + L - 1), _HEX_OFFSETS):
            if cf == 0:
                continue
            sa, sb = (K + ka, L + la, M + ma), (K + kb, L + lb, M + mb)
            ra, rb = get(sa), get(sb)
            if ra is not None and rb is not None:
                pair = ra + rb
                num = num * pair + cf * (ra - rb) * den
                den *= pair
            elif rb is not None and sa in poles:
                num += cf * den
            elif ra is not None and sb in poles:
                num -= cf * den
            else:
                break
        else:
            label = (K - 1, L - 1, M)
            if not den:
                raise DegenerateStencilError(
                    f"six-circle relation at {label} has a vanishing pair sum")
            out.append(("hex", label, quotient(num, den)))
    # border relations, on both boundary rows
    for site, r1 in r.items():
        K, L, M = site
        if not ((L == 0 and M == -K and K >= 2) or (K == 0 and M == -L and L >= 2)):
            continue
        st = border_fill_stencil(site)
        rc, r2, r3 = (get(st[name]) for name in ("r", "r2", "r3"))
        if not (r1 and rc and r2 and r3):
            continue
        t = cos[st["angle_index"] - 1]
        num = ((r1 + r2) * (unit(rc * rc - r2 * r3) + rc * (r3 - r2) * t)
               + (r3 + r2) * (unit(rc * rc - r2 * r1) + rc * (r1 - r2) * t))
        scale = max(rc, r_one)
        out.append(("border", site, quotient(num, unit(scale * scale * scale))))
    # three-circle relations, both parities
    for base, rc in r.items():
        if not rc:
            continue
        K, L, M = base
        for sgn in (1, -1):
            r1 = get((K, L - sgn, M))
            if not r1:
                continue
            r2, r3 = get((K, L, M - sgn)), get((K - sgn, L, M))
            if not (r2 and r3):
                continue
            num = (rc * (r1 * s3 + r2 * s1 + r3 * s2)
                   - (r1 * r2 * s2 + r2 * r3 * s3 + r3 * r1 * s1))
            scale = max(rc, r1, r2, r3, r_one)
            out.append(("tri", (base, sgn), quotient(num, unit(scale * scale))))
    return out


def max_equation_residual(rf: RadiusField) -> float:
    """Worst defect of equation_defects; NaN when the radii cannot be
    read."""
    defects = equation_defects(rf)
    if defects is None:
        return math.nan
    return worst_of(d for _, _, d in defects)


def _sq_distances(pts) -> Dict:
    """Squared distances from every even site of pts ({site: (x, y)}) to
    its axis neighbors in pts, in axis_neighbors order; sites without one
    are left out."""
    out = {}
    for site, (x, y) in pts.items():
        if lattice.parity(site) == 0:
            sq = []
            for p in map(pts.get, axis_neighbors(site)):
                if p:
                    dx, dy = p[0] - x, p[1] - y
                    sq.append(dx * dx + dy * dy)
            if sq:
                out[site] = sq
    return out


@memoised
def axis_sq_distances(zf: ZField):
    """The one read of the distances to the axis neighbors, behind
    extract_radii and kite: (_sq_distances of the stored points, one).  On
    an extended field they are exact integers over one**2
    (pattern_core.field_points), on a double field floats with one = 1.0.
    None when the field cannot be read: a value that is not finite, or an
    extended value outside the aligned_points window.
    """
    read = field_points(zf)
    return read and (_sq_distances(read[0]), read[1])


def _root_mean(sq, bits: int) -> Tuple[int, int]:
    """The mean of the square roots of the integers sq as (num, den), den =
    len(sq) 2**g: each root floored by math.isqrt, the largest taken to at
    least bits bits."""
    g = max(0, bits - max(sq).bit_length() // 2)
    return sum(math.isqrt(d << 2 * g) for d in sq), len(sq) << g


def extract_radii(zf: ZField) -> Dict[SubIndex, float]:
    """Mean distance from each even vertex to its stored neighbors, keyed
    by sublattice label (the oracle for the recurrence route), at the
    precision of the field, from axis_sq_distances.  A double field takes
    the mean of the math.sqrt of the squares.  On an extended field the
    roots are taken to 32 bits beyond the working precision (_root_mean),
    and their sum, over the count, is rounded once to nearest
    (numerics.raw_mpf).  Every
    radius is NaN when the field cannot be read.
    """
    bk = zf.params.backend()
    read = axis_sq_distances(zf)
    if read is None:  # NaN at the sites of a readable field
        return dict.fromkeys(map(lattice.to_sub, _sq_distances(dict.fromkeys(zf.values, (0, 0)))),
                             math.nan if bk.is_double else mp.nan)
    sq_of, one = read
    if bk.is_double:
        return {lattice.to_sub(s): sum(map(math.sqrt, sq)) / len(sq) for s, sq in sq_of.items()}
    make_mpf, prec, log_one = mp.make_mpf, mp.libmp.dps_to_prec(bk.dps), one.bit_length() - 1
    means = {lattice.to_sub(s): _root_mean(sq, prec + 32) for s, sq in sq_of.items()}
    return {s: make_mpf(raw_mpf(num, -log_one, prec, den)) for s, (num, den) in means.items()}


def compare_routes(params: PatternParams, n_max: int) -> Tuple[float, int]:
    """Sitewise gap between recurrence radii and evolved-map distances on
    TildeQ_H; returns (max_gap, sites_compared).

    Both routes follow the same unstable separatrix; the comparison reaches
    evolution depth 2*n_max + 2, so past depth 12 both routes switch to
    extended precision: there a double evolution, the oracle, loses its
    digits, though the double fill holds to n_max = 20 at c = 1.5.
    """
    depth = 2 * n_max + 2
    if depth > 12 and params.precision == "double":
        params = PatternParams(alphas=params.alphas, c=params.c,
                               precision="ext", dps=max(DEFAULT_EXT_DPS, 2 * depth),
                               alpha_pi_fracs=params.alpha_pi_fracs)
    rf = generate_radii(params, n_max)
    zf = generate_z(params, depth)
    oracle = extract_radii(zf)
    worst, count = 0.0, 0
    with params.backend().context():
        for site, val in rf.values.items():
            if site in oracle and not is_pole(val):
                worst = max(worst, float(abs(val - oracle[site])))
                count += 1
    return worst, count
