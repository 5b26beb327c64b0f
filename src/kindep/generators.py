"""Deterministic hypergraph generators for corpus construction.

Random instances must reproduce bit-exactly across platforms and Python
versions for the same (n, m, s, seed), so nothing here touches
`random.Random` (whose sampling helpers are CPython implementation
details).  Instead we draw raw 64-bit words from NumPy's PCG64 stream,
reduce them by rejection sampling, pick m distinct subset *ranks* with
Floyd's algorithm, and unrank each into an s-subset in lexicographic
(combinatorial number system) order.  Every step is integer arithmetic
on a fixed word stream.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from kindep.hypergraph import Hypergraph, HypergraphError


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
        power-of-two range; unbiased and stream-deterministic."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        if bound == 1:
            return 0
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


def _unrank_subset(rank: int, n: int, s: int) -> tuple[int, ...]:
    """The `rank`-th s-subset of {0..n-1} in lexicographic order.

    With the first free id at x, the C(n-x, slot) subsets left split
    into blocks by first element y, and the blocks for y' > y hold
    C(n-y-1, slot) subsets in all.  So the rank falls in the block of
    the least y with C(n-y-1, slot) < C(n-x, slot) - rank, which a
    binary search over y finds with O(log n) `comb` calls per slot.
    For the last slot every block holds one subset, so y = x + rank.
    """
    out = []
    x = 0
    for slot in range(s, 1, -1):
        above = comb(n - x, slot) - rank  # subsets at or after the rank
        lo, hi = x, n - slot
        while lo < hi:
            mid = (lo + hi) // 2
            if comb(n - mid - 1, slot) < above:
                hi = mid
            else:
                lo = mid + 1
        rank = comb(n - lo, slot) - above
        out.append(lo)
        x = lo + 1
    out.append(x + rank)
    return tuple(out)


def gen_complete(n: int, s: int) -> Hypergraph:
    """Complete s-uniform hypergraph: all C(n, s) subsets as edges, in the
    lexicographic order `_unrank_subset` numbers them by."""
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
    edges = tuple(_unrank_subset(r, n, s) for r in sorted(chosen))
    return Hypergraph(n, s, edges)
