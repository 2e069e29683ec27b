import pytest

from hexcircle.lattice import (ParityError, TAG_BORDER, TAG_HEX, TAG_SEED,
                               TAG_TRI, SubIndex, canonical_shift, fill_dependencies,
                               fill_order, from_sub, parity, q_sites, to_sub)


def sub_generation(q: SubIndex) -> int:
    """max-norm generation used as the sublattice fill bound."""
    return max(abs(q[0]), abs(q[1]), abs(q[2]))


def test_to_sub_examples():
    assert to_sub((0, 0, 0)) == (0, 0, 0)
    assert to_sub((1, 0, -1)) == (1, 0, -1)
    assert to_sub((2, 0, 0)) == (1, -1, -1)


def test_to_sub_odd_parity_raises():
    with pytest.raises(ParityError):
        to_sub((1, 0, 0))


def test_even_sites_of_q_lie_within_half_their_generation():
    # so the even sites of a field of generation n never reach sublattice
    # generation n, and extract_radii needs no bound
    for n in range(17):
        even = [site for site in q_sites(n) if parity(site) == 0]
        assert even and max(sub_generation(to_sub(site)) for site in even) == n // 2


def test_from_sub_examples():
    assert from_sub((0, 0, 0), 0) == (0, 0, 0)
    assert from_sub((1, -1, -1), 2) == (2, 0, 0)
    assert from_sub((1, 0, -1), 0) == (1, 0, -1)
    with pytest.raises(ParityError):
        from_sub((1, 0, -1), 3)


def test_roundtrip_on_sublattice_box():
    for K in range(-4, 5):
        for L in range(-4, 5):
            for M in range(-4, 5):
                q = (K, L, M)
                shift = canonical_shift(q)
                assert shift % 2 == 0
                p = from_sub(q, shift)
                assert sum(p) == shift
                assert to_sub(p) == q


def test_fill_order_generation_zero():
    order = fill_order(0)
    assert [e.site for e in order] == [(0, 0, 0)]
    assert order[0].tag == TAG_SEED


def test_fill_order_first_black_site():
    order = fill_order(2)
    sites = [e.site for e in order]
    tags = {e.site: e.tag for e in order}
    assert tags[(1, 1, -1)] == TAG_HEX
    assert sites.index((1, 1, -1)) > sites.index((1, 0, -1))
    assert sites.index((1, 1, -1)) > sites.index((0, 1, -1))


def test_fill_order_covers_tilde_qh_once():
    n = 7
    order = fill_order(n)
    sites = [e.site for e in order]
    assert len(sites) == len(set(sites))
    def tqh(k, l, m):
        # TildeQ_H: the sublattice labels of even vertices of Q_H
        return (l + m <= 0 and m + k <= 0 and k + l >= 0 and k >= 0 and l >= 0
                and m <= 0 and k + l + m in (0, 1))

    expected = set()
    for K in range(0, n + 1):
        for L in range(0, n + 1):
            for M in range(-2 * n, 1):
                if tqh(K, L, M) and sub_generation((K, L, M)) <= n:
                    expected.add((K, L, M))
    assert set(sites) == expected


def test_fill_order_is_dependency_closed():
    order = fill_order(8)
    produced = set()
    for entry in order:
        for dep in fill_dependencies(entry):
            assert dep in produced, (entry, dep)
        produced.add(entry.site)


def test_fill_order_tags_match_site_classes():
    for entry in fill_order(6):
        K, L, M = entry.site
        total = K + L + M
        if entry.tag == TAG_SEED:
            assert entry.site in ((0, 0, 0), (1, 0, -1), (0, 1, -1))
        elif entry.tag == TAG_HEX:
            assert total == 1
        elif entry.tag == TAG_BORDER:
            assert total == 0 and (K == 0 or L == 0)
        elif entry.tag == TAG_TRI:
            assert total == 0 and K >= 1 and L >= 1
