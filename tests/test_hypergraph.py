"""Domain type invariants: construction, canonical form, induced
subhypergraphs, removal, replication, and k-independence testing."""

from fractions import Fraction

import pytest

from kindep import Hypergraph, HypergraphError
from kindep.generators import gen_complete


@pytest.fixture
def k4():
    return gen_complete(4, 3)


def test_canonical_edge_order():
    h = Hypergraph(4, 3, ((3, 1, 2), (2, 1, 0)))
    assert h.edges == ((0, 1, 2), (1, 2, 3))


def test_canonical_edge_tuple_is_kept():
    edges = ((0, 1, 2), (0, 1, 3), (1, 2, 3))
    assert Hypergraph(4, 3, edges).edges is edges
    # same edges in another container or order are rebuilt, not kept
    assert Hypergraph(4, 3, list(edges)).edges == edges
    assert Hypergraph(4, 3, edges[::-1]).edges == edges


def test_rejects_bad_construction():
    with pytest.raises(HypergraphError):
        Hypergraph(0, 3)
    with pytest.raises(HypergraphError):
        Hypergraph(3, 1)
    with pytest.raises(HypergraphError):
        Hypergraph(3, 3, ((0, 1, 1),))
    with pytest.raises(HypergraphError):
        Hypergraph(3, 3, ((0, 1, 3),))
    with pytest.raises(HypergraphError):
        Hypergraph(3, 3, ((-1, 0, 1),))
    with pytest.raises(HypergraphError):
        Hypergraph(4, 3, ((0, 1, 2), (2, 1, 0)))
    with pytest.raises(HypergraphError):
        Hypergraph(3, 2, ((0, 1, 2),))


def test_degree_profile_complete(k4):
    prof = k4.degree_profile()
    assert prof.degrees == (3, 3, 3, 3)
    assert prof.max_degree == 3
    assert prof.avg_degree == Fraction(3)


def test_degree_profile_trivial_cases():
    empty = Hypergraph(5, 3)
    assert empty.degrees == (0, 0, 0, 0, 0)
    assert empty.max_degree == 0
    assert empty.avg_degree == 0
    single = Hypergraph(3, 3, ((0, 1, 2),))
    assert single.degrees == (1, 1, 1)
    assert single.avg_degree == Fraction(1)


def test_degree_sum_identity(k4):
    assert sum(k4.degrees) == k4.s * k4.e


def test_induced_keeps_contained_edges(k4):
    sub = k4.induced([1, 2, 3])
    assert sub.n == 3
    assert sub.edges == ((0, 1, 2),)


def test_induced_identity_and_small(k4):
    assert k4.induced(range(4)) == k4
    assert k4.induced([0, 1]).e == 0


def test_induced_rejects_bad_sets(k4):
    with pytest.raises(HypergraphError):
        k4.induced([])
    with pytest.raises(HypergraphError):
        k4.induced([0, 4])
    with pytest.raises(HypergraphError):
        k4.induced([1, 1, 2])


def test_remove_vertex(k4):
    smaller = k4.remove_vertex(0)
    assert smaller.n == 3
    assert smaller.edges == ((0, 1, 2),)
    assert k4.e - smaller.e == k4.degrees[0]


def test_remove_matches_induced_complement(k4):
    for v in range(4):
        rest = [u for u in range(4) if u != v]
        assert k4.remove_vertex(v) == k4.induced(rest)


def test_remove_vertex_errors(k4):
    with pytest.raises(HypergraphError):
        k4.remove_vertex(4)
    with pytest.raises(HypergraphError):
        Hypergraph(1, 2).remove_vertex(0)


def test_replicate(k4):
    twice = k4.replicate(2)
    assert (twice.n, twice.e) == (8, 8)
    assert twice.avg_degree == k4.avg_degree
    assert k4.replicate(1) == k4
    five = k4.replicate(5)
    assert five.avg_degree == Fraction(3)
    with pytest.raises(HypergraphError):
        k4.replicate(0)


def test_induced_degrees_never_grow(k4):
    sub = [0, 1, 2]
    induced = k4.induced_degrees(sub)
    for v in sub:
        assert induced[v] <= k4.degrees[v]


def test_k_independence_on_complete(k4):
    assert k4.is_k_independent([0, 1], 0)
    assert not k4.is_k_independent([0, 1, 2], 0)
    assert k4.is_k_independent([0, 1, 2], 1)
    assert not k4.is_k_independent(range(4), 2)
    assert k4.is_k_independent(range(4), 3)
    assert k4.is_k_independent([], 0)


def test_violation_witness(k4):
    violation = k4.k_independence_violation(range(4), 1)
    assert violation.vertex == 0
    assert len(violation.edges) == 2
    for edge in violation.edges:
        assert 0 in edge
    assert k4.k_independence_violation([0, 1], 0) is None


def test_values_hash_and_compare():
    a = Hypergraph(3, 2, ((0, 1), (1, 2)))
    b = Hypergraph(3, 2, ((1, 2), (0, 1)))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
