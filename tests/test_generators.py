"""Generator determinism and distribution-free structural checks.

The random generator promises bit-exact output across platforms, so one
instance is frozen here in full.  The subset unranking is checked against
itertools.combinations, which enumerates in the same lexicographic order.
"""

from itertools import combinations
from math import comb

import pytest

from kindep import (
    HypergraphError,
    WordStream,
    gen_complete,
    gen_random_uniform,
    parse_hg,
    write_hg,
)
from kindep.generators import _unrank_subset

GOLDEN_SEED42 = """p hyp 8 20 3
e 1 2 3
e 1 3 4
e 1 3 5
e 1 3 6
e 1 4 8
e 1 5 6
e 1 5 7
e 1 6 8
e 1 7 8
e 2 3 8
e 2 4 7
e 3 4 5
e 3 4 6
e 3 4 8
e 3 6 7
e 3 6 8
e 4 5 6
e 4 5 7
e 4 6 7
e 5 6 8
"""


def test_complete_counts():
    for n, s in [(4, 3), (5, 2), (6, 4), (3, 3)]:
        h = gen_complete(n, s)
        assert h.e == comb(n, s)
        assert h.max_degree == comb(n - 1, s - 1)


def test_complete_rejects_small():
    with pytest.raises(HypergraphError):
        gen_complete(2, 3)


@pytest.mark.parametrize("n, s", [(5, 2), (6, 3), (7, 4), (8, 3), (9, 5)])
def test_unranking_matches_lexicographic_enumeration(n, s):
    expected = list(combinations(range(n), s))
    got = [_unrank_subset(r, n, s) for r in range(comb(n, s))]
    assert got == expected


@pytest.mark.parametrize("n, s", [(2, 2), (5, 2), (6, 3), (7, 4), (8, 5)])
def test_complete_edges_follow_the_unranking_order(n, s):
    unranked = tuple(_unrank_subset(r, n, s) for r in range(comb(n, s)))
    assert gen_complete(n, s).edges == unranked


def test_random_uniform_frozen_instance():
    h = gen_random_uniform(8, 20, 3, 42)
    assert write_hg(h) == GOLDEN_SEED42
    assert parse_hg(GOLDEN_SEED42) == h


def test_random_uniform_is_deterministic():
    a = gen_random_uniform(10, 15, 3, 7)
    b = gen_random_uniform(10, 15, 3, 7)
    assert a == b
    c = gen_random_uniform(10, 15, 3, 8)
    assert c != a


def test_random_uniform_shape():
    h = gen_random_uniform(9, 12, 4, 0)
    assert (h.n, h.e, h.s) == (9, 12, 4)
    assert len(set(h.edges)) == 12


def test_random_uniform_full_density_is_complete():
    total = comb(6, 3)
    assert gen_random_uniform(6, total, 3, 123) == gen_complete(6, 3)


def test_random_uniform_empty():
    h = gen_random_uniform(5, 0, 2, 99)
    assert h.e == 0


def test_random_uniform_rejects_overfull():
    with pytest.raises(HypergraphError):
        gen_random_uniform(4, 5, 3, 0)


def test_word_stream_determinism():
    a = WordStream(1234)
    b = WordStream(1234)
    assert [a.next_word() for _ in range(8)] == [b.next_word() for _ in range(8)]


def test_randbelow_bounds_and_reach():
    stream = WordStream(5)
    draws = [stream.randbelow(7) for _ in range(4000)]
    assert set(draws) == set(range(7))
    assert all(0 <= d < 7 for d in draws)
    assert WordStream(5).randbelow(1) == 0
