"""Generator determinism and distribution-free structural checks.

The random generator promises bit-exact output across platforms, so one
instance is frozen here in full.  The subset unranking is checked against
itertools.combinations, which enumerates in the same lexicographic order,
with its comb columns both tabulated and computed on demand.  The six
large-file shapes of the benchmark are pinned by the sha256 of their .hg
text, so a change to the word stream or the unranking fails here.
"""

import hashlib
import tracemalloc
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
from kindep.generators import _tabulates, _unrank_subsets

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
    # all ranks at once tabulate the columns; one rank at a time does not
    assert _tabulates(n, len(expected), s) and not _tabulates(n, 1, s)
    got = [_unrank_subsets([r], n, s)[0] for r in range(comb(n, s))]
    assert got == expected
    assert _unrank_subsets(range(comb(n, s)), n, s) == expected


@pytest.mark.parametrize("n, s", [(2, 2), (5, 2), (6, 3), (7, 4), (8, 5)])
def test_complete_edges_follow_the_unranking_order(n, s):
    unranked = tuple(_unrank_subsets(range(comb(n, s)), n, s))
    assert gen_complete(n, s).edges == unranked


def test_unranking_tabulated_matches_combinations_at_60():
    expected = list(combinations(range(60), 3))
    assert _tabulates(60, len(expected), 3)
    assert _unrank_subsets(range(len(expected)), 60, 3) == expected


def test_table_rule():
    # (s - 1)(n + 1) column entries against m * bit_length(n) lookups
    assert _tabulates(2000, 20000, 3)
    assert _tabulates(4000, 334, 2) and not _tabulates(4000, 333, 2)
    assert _tabulates(11, 3, 2) and not _tabulates(12, 3, 2)  # 12 <= 3 * 4 < 13
    assert not _tabulates(10**6, 10, 3)


# sha256 of write_hg(gen_random_uniform(n, m, s, seed)) for the benchmark's
# large-file shapes (sparse: s = 2, m = n; dense: s = 3, m = 10n), seed 7
LARGE_SHAPE_DIGESTS = {
    (1000, 1000, 2):
        "1973e65a760aebabec51ac2b65515e15a13f8bf1f0af29530e8ce49a50548c27",
    (2000, 2000, 2):
        "2b1c4846f986010969b9df9ad201d396ab044ac9e808aac012fe341602f4ad55",
    (4000, 4000, 2):
        "e84b4676076340e2b5a7e56fc98dd87f0db6386a2e3e5eb91cdf7f00082710dd",
    (500, 5000, 3):
        "f788ba50e1ee70367f55acc18253332350686adbee897bf1cf7aab857edcd063",
    (1000, 10000, 3):
        "4211e7e24d9da7736c4cffe49a22b291eac4009afdf25200b995f2fd01cfd1f0",
    (2000, 20000, 3):
        "07b10c181053ac592d00b7d8bec1905b3f589356a88d834eb16247141edd0197",
}


@pytest.mark.parametrize("n, m, s", sorted(LARGE_SHAPE_DIGESTS))
def test_random_uniform_pinned_at_scale(n, m, s):
    text = write_hg(gen_random_uniform(n, m, s, 7))
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_SHAPE_DIGESTS[n, m, s]


def test_random_uniform_sparse_draw_builds_no_table():
    # C(10^6, 3) ranks, ten drawn: the columns stay lazy, where two
    # tabulated columns would hold 2 * 10^6 ints (tens of MB)
    assert not _tabulates(10**6, 10, 3)
    tracemalloc.start()
    try:
        h = gen_random_uniform(10**6, 10, 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (h.n, h.e) == (10**6, 10)
    assert all(a < b < c for a, b, c in h.edges)


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
