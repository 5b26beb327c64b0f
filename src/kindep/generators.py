"""Deterministic hypergraph generators for corpus construction.

Random instances must reproduce bit-exactly across platforms and Python
versions for the same (n, m, s, seed), so nothing here touches
`random.Random` (whose sampling helpers are CPython implementation
details).  Instead we draw raw 64-bit words from NumPy's PCG64 stream,
reduce them by rejection sampling, pick m distinct subset *ranks* with
Floyd's algorithm, and unrank each into an s-subset in lexicographic
(combinatorial number system) order.  Every step is integer arithmetic
on a fixed word stream.

Unranking an edge takes s - 1 binary searches over the columns
C(j, t), j = 0..n, t = s..2, of about bit_length(n) lookups each.  When
the (s - 1)(n + 1) column entries cost no more than the m * bit_length(n)
lookups of all m edges, the columns are tabulated once per call and a
lookup is a list read inside a C-level `bisect`; otherwise it is one
`comb` call, so a very sparse draw on a huge vertex set builds no O(n)
table.  The edges are the same either way.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import combinations, repeat
from math import comb

import numpy as np

from kindep.hypergraph import Hypergraph, HypergraphError

_WORD = 1 << 64


class WordStream:
    """Buffered 64-bit words from a seeded PCG64 bit generator."""

    _CHUNK = 64

    def __init__(self, seed: int | np.random.SeedSequence) -> None:
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        self._bits = np.random.PCG64(seed)
        self._buf: list[int] = []

    def next_word(self) -> int:
        if not self._buf:
            raw = self._bits.random_raw(self._CHUNK)
            self._buf = [int(w) for w in raw[::-1]]
        return self._buf.pop()

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection on the top of a
        power-of-two range; unbiased and stream-deterministic.

        A bound below 2^64 draws one word per try against the cutoff
        2^64 - 2^64 % bound; a larger bound (2^64 itself included, whose
        bit length is 65) draws enough words for its bit length."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        if bound == 1:
            return 0
        if bound < _WORD:
            cutoff = _WORD - _WORD % bound
            while True:
                value = self.next_word()
                if value < cutoff:
                    return value % bound
        span = bound.bit_length()
        words_needed = (span + 63) // 64
        limit = 1 << (64 * words_needed)
        cutoff = limit - limit % bound
        while True:
            value = 0
            for _ in range(words_needed):
                value = (value << 64) | self.next_word()
            if value < cutoff:
                return value % bound


class _CombColumn:
    """The column C(j, t), each entry computed when it is read: what
    `bisect` searches, within the bounds it is given, when no table is
    built."""

    __slots__ = ("_t",)

    def __init__(self, t: int) -> None:
        self._t = t

    def __getitem__(self, j: int) -> int:
        return comb(j, self._t)


def _tabulates(n: int, m: int, s: int) -> bool:
    """Whether unranking m subsets tabulates its comb columns: when the
    (s - 1)(n + 1) entries cost no more than the m * bit_length(n)
    lookups of the binary searches."""
    return (s - 1) * (n + 1) <= m * n.bit_length()


def _unrank_subsets(ranks: Sequence[int], n: int, s: int) -> list[tuple[int, ...]]:
    """The s-subsets of {0..n-1} at the given lexicographic ranks.

    The subset of rank r, mirrored by v -> n-1-v, has colex rank
    R = C(n, s) - 1 - r, which the combinatorial number system writes
    as C(d_1, s) + C(d_2, s-1) + ... + C(d_s, 1) with d_1 > ... > d_s.
    Each d_i is the largest j with C(j, t) <= R at slot t, which
    `bisect_right` finds in the column C(j, t), j = 0..n; the previous
    slot's d bounds the search, and at t = 1 the rest of R is d_s.
    See `_tabulates` for when the columns are lists.
    """
    if _tabulates(n, len(ranks), s):
        cols = [list(map(comb, range(n + 1), repeat(t))) for t in range(s, 1, -1)]
    else:
        cols = [_CombColumn(t) for t in range(s, 1, -1)]
    top = comb(n, s) - 1
    last = n - 1
    out = []
    for r in ranks:
        rest = top - r
        j = n + 1
        edge = []
        for col in cols:
            j = bisect_right(col, rest, 0, j) - 1
            rest -= col[j]
            edge.append(last - j)
        edge.append(last - rest)
        out.append(tuple(edge))
    return out


def gen_complete(n: int, s: int) -> Hypergraph:
    """Complete s-uniform hypergraph: all C(n, s) subsets as edges, in the
    lexicographic order `_unrank_subsets` numbers them by."""
    if s > n:
        raise HypergraphError(f"uniformity {s} exceeds vertex count {n}")
    return Hypergraph(n, s, tuple(combinations(range(n), s)))


def gen_random_uniform(n: int, m: int, s: int, seed: int) -> Hypergraph:
    """m distinct s-subsets of {0..n-1}, uniform without replacement.

    Floyd's sampling draws m distinct ranks out of C(n, s) with exactly m
    randbelow calls, independent of how sparse or dense the instance is.
    """
    if s > n:
        raise HypergraphError(f"uniformity {s} exceeds vertex count {n}")
    total = comb(n, s)
    if m > total:
        raise HypergraphError(f"requested {m} edges but only {total} {s}-subsets exist")
    if m < 0:
        raise HypergraphError(f"edge count must be nonnegative, got {m}")
    stream = WordStream(seed)
    chosen: set[int] = set()
    for j in range(total - m, total):
        r = stream.randbelow(j + 1)
        chosen.add(r if r not in chosen else j)
    return Hypergraph(n, s, tuple(_unrank_subsets(sorted(chosen), n, s)))
