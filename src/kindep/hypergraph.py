"""Uniform hypergraphs as immutable canonical values.

A hypergraph here is a pair (V, E) with V = {0, ..., n-1} and E a *set* of
s-element subsets of V (multi-edges are rejected, matching the power-set
model of an edge set).  Instances are frozen after construction and every
operation returns a new value, so hypergraphs can be shared freely between
workers.

Canonical form: each edge is stored as a strictly increasing tuple and the
edge list is sorted lexicographically.  Two equal hypergraphs therefore
compare equal, hash equal, and serialize identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import lt
from typing import Iterable


class HypergraphError(ValueError):
    """A hypergraph value would violate a structural invariant."""


def normalize_vertex_set(ids: Iterable[int], n: int) -> tuple[int, ...]:
    """Sort a vertex id collection and validate it against a host of order n.

    Returns a strictly increasing tuple.  Duplicate or out-of-range ids
    raise HypergraphError.
    """
    out = sorted(ids)
    for a, b in zip(out, out[1:]):
        if a == b:
            raise HypergraphError(f"duplicate vertex id {a} in vertex set")
    if out and (out[0] < 0 or out[-1] >= n):
        bad = out[0] if out[0] < 0 else out[-1]
        raise HypergraphError(f"vertex id {bad} out of range [0, {n})")
    return tuple(out)


def _is_canonical(edges: object, n: int, s: int) -> bool:
    """True when `edges` is already a canonical edge tuple for (n, s).

    That is a tuple of int tuples, each of length s and strictly
    increasing inside [0, n), the list itself strictly increasing.  The
    checks run over whole columns at C speed and the order checks come
    first, stopping at the first pair out of order, so a scrambled input
    costs little more than the canonicalizing loop it falls back to.  A
    comparison that raises TypeError also means "not canonical", and the
    loop then reports the input's fault itself.
    """
    if type(edges) is not tuple:
        return False
    if not edges:
        return True
    try:
        if not all(map(lt, edges, edges[1:])):
            return False
        cols = tuple(zip(*edges))
        if not all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:])):
            return False
        return (set(map(type, edges)) == {tuple} and set(map(len, edges)) == {s}
                and set(map(type, chain.from_iterable(cols))) == {int}
                and edges[0][0] >= 0 and max(cols[-1]) < n)
    except TypeError:
        return False


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex edge-membership counts plus the derived degree statistics.

    avg_degree is the exact rational s*e/n, so integer breakpoints of the
    bound formulas are never blurred by floating point.
    """

    degrees: tuple[int, ...]
    max_degree: int
    avg_degree: Fraction


@dataclass(frozen=True)
class Violation:
    """Witness that a vertex set is not k-independent.

    `vertex` has induced degree at least k+1; `edges` lists k+1 of the
    offending edges, all fully contained in the tested set.
    """

    vertex: int
    edges: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Hypergraph:
    """An s-uniform hypergraph on vertex ids 0..n-1.

    The constructor canonicalizes: vertices within an edge are sorted,
    the edge list is sorted lexicographically, and duplicate vertices
    within an edge or duplicate edges raise HypergraphError.  An edge
    tuple that is already canonical (what the generators, `induced`,
    `remove_vertex`, `replicate` and a canonical .hg file give) is
    checked in one linear pass and kept as it is, not re-sorted.
    Isolated vertices are legal and count toward n.
    """

    n: int
    s: int
    edges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise HypergraphError(f"vertex count must be a positive integer, got {self.n!r}")
        if not isinstance(self.s, int) or self.s < 2:
            raise HypergraphError(f"uniformity must be an integer >= 2, got {self.s!r}")
        if _is_canonical(self.edges, self.n, self.s):
            return
        canon = []
        for raw in self.edges:
            edge = tuple(sorted(raw))
            if len(edge) != self.s:
                raise HypergraphError(
                    f"edge {tuple(raw)!r} has {len(edge)} vertices, expected {self.s}"
                )
            for a, b in zip(edge, edge[1:]):
                if a == b:
                    raise HypergraphError(f"duplicate vertex {a} within edge {tuple(raw)!r}")
            if edge[0] < 0 or edge[-1] >= self.n:
                bad = edge[0] if edge[0] < 0 else edge[-1]
                raise HypergraphError(
                    f"vertex id {bad} of edge {tuple(raw)!r} out of range [0, {self.n})"
                )
            canon.append(edge)
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise HypergraphError(f"duplicate edge {a!r}")
        object.__setattr__(self, "edges", tuple(canon))

    # -- degree arithmetic -------------------------------------------------

    @property
    def e(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for edge in self.edges:
            for v in edge:
                deg[v] += 1
        return tuple(deg)

    @property
    def max_degree(self) -> int:
        return max(self.degrees)

    @property
    def avg_degree(self) -> Fraction:
        return Fraction(self.s * self.e, self.n)

    def degree_profile(self) -> DegreeProfile:
        return DegreeProfile(self.degrees, self.max_degree, self.avg_degree)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Edge indexes incident to each vertex, in lexicographic edge order."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, edge in enumerate(self.edges):
            for v in edge:
                inc[v].append(i)
        return tuple(tuple(lst) for lst in inc)

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        """Each edge as a bitmask over vertex ids (exact-search workhorse)."""
        return tuple(sum(1 << v for v in edge) for edge in self.edges)

    # -- structural operations ---------------------------------------------

    def induced(self, vertices: Iterable[int]) -> Hypergraph:
        """Subhypergraph on the given vertices, keeping exactly the edges
        completely contained in them.  Ids are relabeled to 0..|S|-1
        preserving order; uniformity is unchanged.
        """
        sub = normalize_vertex_set(vertices, self.n)
        if not sub:
            raise HypergraphError("induced subhypergraph needs at least one vertex")
        relabel = {v: i for i, v in enumerate(sub)}
        members = set(sub)
        kept = [
            tuple(relabel[v] for v in edge)
            for edge in self.edges
            if members.issuperset(edge)
        ]
        return Hypergraph(len(sub), self.s, tuple(kept))

    def remove_vertex(self, v: int) -> Hypergraph:
        """Drop vertex v and every edge through it; ids above v shift down."""
        if not 0 <= v < self.n:
            raise HypergraphError(f"vertex id {v} out of range [0, {self.n})")
        if self.n == 1:
            raise HypergraphError("cannot remove the last vertex")
        kept = [
            tuple(u - 1 if u > v else u for u in edge)
            for edge in self.edges
            if v not in edge
        ]
        return Hypergraph(self.n - 1, self.s, tuple(kept))

    def replicate(self, copies: int) -> Hypergraph:
        """Disjoint union of `copies` copies; average degree is unchanged."""
        if not isinstance(copies, int) or copies < 1:
            raise HypergraphError(f"copy count must be a positive integer, got {copies!r}")
        edges = [
            tuple(v + i * self.n for v in edge)
            for i in range(copies)
            for edge in self.edges
        ]
        return Hypergraph(copies * self.n, self.s, tuple(edges))

    # -- k-independence ------------------------------------------------------

    def induced_degrees(self, vertices: Iterable[int]) -> dict[int, int]:
        """Degrees inside the induced subhypergraph, keyed by original id."""
        sub = normalize_vertex_set(vertices, self.n)
        members = set(sub)
        deg = {v: 0 for v in sub}
        for edge in self.edges:
            if members.issuperset(edge):
                for v in edge:
                    deg[v] += 1
        return deg

    def k_independence_violation(self, vertices: Iterable[int], k: int) -> Violation | None:
        """None when the set is k-independent, else a Violation witness.

        The witness vertex is one of maximum induced degree (ties broken by
        lowest id) together with k+1 of its edges inside the set.
        """
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"k must be a nonnegative integer, got {k!r}")
        sub = normalize_vertex_set(vertices, self.n)
        if not sub:
            return None
        deg = self.induced_degrees(sub)
        worst = max(sub, key=lambda v: (deg[v], -v))
        if deg[worst] <= k:
            return None
        members = set(sub)
        witness = []
        for edge in self.edges:
            if worst in edge and members.issuperset(edge):
                witness.append(edge)
                if len(witness) == k + 1:
                    break
        return Violation(worst, tuple(witness))

    def is_k_independent(self, vertices: Iterable[int], k: int) -> bool:
        return self.k_independence_violation(vertices, k) is None
