"""Lattice index bookkeeping.

Vertices of the three-dimensional lattice carry (k, l, m) labels; the octant
Q has k >= 0, l >= 0, m <= 0.  Vertices with even k+l+m are circle centers,
odd ones are intersection points.  The even sublattice is relabelled by
(K, L, M) = (k, l, m) - s*(1, 1, 1) with s = (k+l+m)/2; the radius function
lives there.  This module also fixes the deterministic fill order used by the
radius recurrences, tagging every site with the equation that computes it.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, NamedTuple, Tuple

MultiIndex = Tuple[int, int, int]
SubIndex = Tuple[int, int, int]


class ParityError(ValueError):
    """Raised when an operation requires an even coordinate sum."""


def parity(p: MultiIndex) -> int:
    return (p[0] + p[1] + p[2]) % 2


def to_sub(p: MultiIndex) -> SubIndex:
    k, l, m = p
    total = k + l + m
    if total % 2 != 0:
        raise ParityError(f"{p} has odd coordinate sum")
    s = total // 2
    return (k - s, l - s, m - s)


def from_sub(q: SubIndex, parity_shift: int) -> MultiIndex:
    """Inverse of to_sub; parity_shift is the even k+l+m to restore.

    For a sublattice point the consistent shift is -2*(K+L+M); other even
    shifts translate the preimage along (1,1,1).
    """
    if parity_shift % 2 != 0:
        raise ParityError(f"parity_shift {parity_shift} is odd")
    s = parity_shift // 2
    K, L, M = q
    return (K + s, L + s, M + s)


def canonical_shift(q: SubIndex) -> int:
    """The parity_shift for which to_sub(from_sub(q, shift)) == q."""
    return -2 * (q[0] + q[1] + q[2])


def sub_to_vertex(q: SubIndex) -> MultiIndex:
    return from_sub(q, canonical_shift(q))


def axis_neighbors(p: MultiIndex) -> List[MultiIndex]:
    k, l, m = p
    return [(k + 1, l, m), (k - 1, l, m), (k, l + 1, m),
            (k, l - 1, m), (k, l, m + 1), (k, l, m - 1)]


def generation(p: MultiIndex) -> int:
    """Shell index inside Q: k + l + |m|."""
    return p[0] + p[1] - p[2]


# ---------------------------------------------------------------------------
# fill order for the radius function on TildeQ_H
# ---------------------------------------------------------------------------

TAG_SEED = "seed"
TAG_HEX = "six-circle"      # black sites
TAG_BORDER = "border"       # white border sites
TAG_TRI = "three-circle"    # white interior sites


class FillEntry(NamedTuple):
    site: SubIndex
    tag: str


def hex_stencil_slots(label: SubIndex) -> dict:
    """Slot map of the six-circle equation written at a sublattice label.

    The equation couples the six circles around one intersection point; in
    sublattice coordinates the slots sit at label+e_i and label+(1,1,1)-e_i.
    Pairs (r1,r4), (r3,r6), (r2,r5) carry coefficients L+M+1, M+K+1, K+L+1.
    """
    K, L, M = label
    return {
        "r1": (K + 1, L, M),
        "r4": (K, L + 1, M + 1),
        "r3": (K, L + 1, M),
        "r6": (K + 1, L, M + 1),
        "r2": (K + 1, L + 1, M),
        "r5": (K, L, M + 1),
    }


def hex_coefficients(label: SubIndex) -> Tuple[int, int, int]:
    K, L, M = label
    return (L + M + 1, M + K + 1, K + L + 1)


def black_fill_stencil(site: SubIndex) -> Tuple[SubIndex, dict]:
    """For a black site (A,B,1-A-B) return the label and slots computing it.

    The unknown occupies the r2 slot of the stencil at label
    (A-1, B-1, 1-A-B).
    """
    A, B, M = site
    label = (A - 1, B - 1, M)
    return label, hex_stencil_slots(label)


def border_fill_stencil(site: SubIndex) -> dict:
    """Slots of the border relation producing r1 = r(site).

    On the l=0 border (K,0,-K): r = previous border circle, r2 = the black
    circle above it, r3 = the border circle two steps back; mirrored for the
    k=0 border.  angle_index selects which intersection angle enters.
    """
    K, L, M = site
    if L == 0 and M == -K and K >= 2:
        n = K - 1
        return {"r": (n, 0, -n), "r2": (n, 1, -n), "r3": (n - 1, 0, -n + 1),
                "angle_index": 3}
    if K == 0 and M == -L and L >= 2:
        n = L - 1
        return {"r": (0, n, -n), "r2": (1, n, -n), "r3": (0, n - 1, -n + 1),
                "angle_index": 2}
    raise ValueError(f"{site} is not a fillable border site")


def tri_fill_stencil(site: SubIndex) -> dict:
    """Slots of the three-circle relation producing an interior white site.

    The unknown white circle W=(K,L,-K-L) is the r2 slot of the stencil based
    at the black site (K,L,1-K-L); the base is the display's r, and the two
    remaining slots are the earlier whites (K,L-1,...) and (K-1,L,...).
    """
    K, L, M = site
    base = (K, L, M + 1)
    return {
        "r": base,                      # black circle through the three points
        "r1": (K, L - 1, M + 1),        # base - e2
        "r2": site,                     # base - e3 (unknown)
        "r3": (K - 1, L, M + 1),        # base - e1
    }


def fill_dependencies(entry: FillEntry) -> List[SubIndex]:
    if entry.tag == TAG_SEED:
        return []
    if entry.tag == TAG_HEX:
        label, slots = black_fill_stencil(entry.site)
        co = hex_coefficients(label)
        deps = []
        for cf, pair in zip(co, (("r1", "r4"), ("r3", "r6"), ("r2", "r5"))):
            if cf == 0:
                continue
            for slot in pair:
                if slots[slot] != entry.site:
                    deps.append(slots[slot])
        # r5 always enters through the unknown's own pair
        if slots["r5"] not in deps:
            deps.append(slots["r5"])
        return deps
    if entry.tag == TAG_BORDER:
        st = border_fill_stencil(entry.site)
        return [st["r"], st["r2"], st["r3"]]
    if entry.tag == TAG_TRI:
        st = tri_fill_stencil(entry.site)
        return [st["r"], st["r1"], st["r3"]]
    raise ValueError(entry.tag)


@lru_cache(maxsize=32)
def fill_order(n_max: int) -> Tuple[FillEntry, ...]:
    """Deterministic dependency-closed order of TildeQ_H up to generation n_max.

    Seeds first, then per generation: interior whites, border whites, blacks.
    White (K,L,-K-L) has generation K+L; black (A,B,1-A-B) has generation
    A+B-1 (its max-norm).
    """
    if n_max < 0:
        raise ValueError("generation bound must be nonnegative")
    order: List[FillEntry] = [FillEntry((0, 0, 0), TAG_SEED)]
    if n_max >= 1:
        order.append(FillEntry((1, 0, -1), TAG_SEED))
        order.append(FillEntry((0, 1, -1), TAG_SEED))
        order.append(FillEntry((1, 1, -1), TAG_HEX))
    for g in range(2, n_max + 1):
        for K in range(1, g):
            order.append(FillEntry((K, g - K, -g), TAG_TRI))
        order.append(FillEntry((g, 0, -g), TAG_BORDER))
        order.append(FillEntry((0, g, -g), TAG_BORDER))
        for A in range(1, g + 1):
            B = g + 1 - A
            order.append(FillEntry((A, B, 1 - A - B), TAG_HEX))
    return tuple(order)


def q_sites(n_max: int) -> Iterator[MultiIndex]:
    """All vertices of Q with generation k+l-m <= n_max."""
    for g in range(n_max + 1):
        for k in range(g + 1):
            for l in range(g - k + 1):
                yield (k, l, -(g - k - l))
