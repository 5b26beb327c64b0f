"""Exact oracle correctness.

The pruned branch-and-bound is validated against a plain 2^n sweep on a
random sample, which is slow but obviously correct.  Witnesses are
re-verified through the public k-independence predicate rather than
trusted.
"""

import ast
import inspect

import pytest

import kindep.exact
from kindep import (
    Hypergraph,
    alpha_k_bruteforce,
    alpha_k_exact,
    chi_k_exact,
    gen_complete,
    gen_random_uniform,
)


@pytest.fixture
def k4():
    return gen_complete(4, 3)


def test_known_complete_values(k4):
    assert alpha_k_exact(k4, 0).value == 2
    assert alpha_k_exact(k4, 1).value == 3
    assert alpha_k_exact(k4, 2).value == 3
    assert alpha_k_exact(k4, 3).value == 4
    assert chi_k_exact(k4, 1).value == 2


def test_alpha_witness_is_valid(k4):
    for k in range(4):
        res = alpha_k_exact(k4, k)
        assert res.status == "exact"
        assert len(res.witness) == res.value
        assert k4.is_k_independent(res.witness, k)


def test_alpha_matches_bruteforce_on_random_sample():
    for seed in range(12):
        n = 7 + seed % 3
        m = 2 * (seed % 5) + seed // 3
        s = 2 + seed % 3
        h = gen_random_uniform(n, m, s, seed)
        for k in range(4):
            assert alpha_k_exact(h, k).value == alpha_k_bruteforce(h, k)


def test_alpha_trivial_shapes():
    empty = Hypergraph(6, 3)
    for k in range(3):
        res = alpha_k_exact(empty, k)
        assert res.value == 6
        assert res.nodes == 1  # the root has no violator: only the root counts
    one_edge = Hypergraph(4, 4, ((0, 1, 2, 3),))
    assert alpha_k_exact(one_edge, 0).value == 3
    assert alpha_k_exact(one_edge, 1).value == 4


def test_alpha_pinned_beyond_property_sizes():
    # n = 26 is above the n <= 14 the reference comparisons draw; value,
    # witness and node count are fixed output
    res = alpha_k_exact(gen_random_uniform(26, 78, 3, 221), 2)
    assert res.to_json_dict() == {
        "quantity": "alpha_k",
        "k": 2,
        "value": 18,
        "status": "exact",
        "witness": [1, 3, 5, 6, 7, 9, 10, 13, 14, 15, 16, 17, 19, 20, 21, 22, 24, 25],
        "nodes": 46485,
    }


@pytest.mark.parametrize("args, k, expected", [
    ((48, 48, 2, 110), 0, {
        "value": 28,
        "witness": [2, 3, 4, 6, 9, 11, 14, 16, 17, 23, 27, 28, 30, 32, 33, 34, 35, 36,
                    37, 38, 39, 40, 41, 42, 43, 44, 47, 48],
        "nodes": 36870,
    }),
    ((32, 96, 3, 201), 0, {
        "value": 18,
        "witness": [1, 4, 7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 22, 24, 25, 26, 27, 29],
        "nodes": 49649,
    }),
    ((24, 72, 4, 303), 1, {
        "value": 16,
        "witness": [1, 3, 4, 5, 7, 9, 11, 14, 15, 16, 17, 18, 19, 20, 22, 23],
        "nodes": 25982,
    }),
], ids=["s2-n48-k0", "s3-n32-k0", "s4-n24-k1"])
def test_alpha_pinned_at_bench_scale(args, k, expected):
    # searches of the bench's size: the s = 2 and s = 3 instances are
    # oracle-deep base instances (unrelabelled); the whole result is output
    res = alpha_k_exact(gen_random_uniform(*args), k)
    assert res.to_json_dict() == {"quantity": "alpha_k", "k": k, "status": "exact",
                                  **expected}
    assert list(res.to_json_dict()) == ["quantity", "k", "value", "status", "witness",
                                        "nodes"]


def test_alpha_budget_exceeded():
    h = gen_complete(7, 3)
    res = alpha_k_exact(h, 1, node_budget=3)
    assert res.status == "budget_exceeded"
    assert res.value is None
    assert res.witness is None
    assert res.nodes > 3


def test_alpha_argument_guards(k4):
    with pytest.raises(ValueError):
        alpha_k_exact(k4, -1)
    with pytest.raises(ValueError, match="node budget must be nonnegative, got -5"):
        alpha_k_exact(k4, 1, -5)
    # no cap on n: an edgeless 65-vertex graph is solved at the root
    res = alpha_k_exact(Hypergraph(65, 2), 0)
    assert (res.status, res.value, res.nodes) == ("exact", 65, 1)
    with pytest.raises(ValueError):
        alpha_k_bruteforce(Hypergraph(21, 2), 0)


def test_chi_witness_is_a_valid_partition():
    for seed in range(6):
        h = gen_random_uniform(8, 10 + seed, 3, seed)
        for k in (1, 2):
            res = chi_k_exact(h, k)
            assert res.status == "exact"
            assert len(res.witness) == res.value
            covered = sorted(v for cls in res.witness for v in cls)
            assert covered == list(range(h.n))
            for cls in res.witness:
                assert h.is_k_independent(cls, k)


def test_chi_minimality_on_small_instances():
    # one class fewer must be infeasible; re-check by raw enumeration
    from itertools import product

    def chi_reference(h, k):
        for classes in range(1, h.n + 1):
            for assign in product(range(classes), repeat=h.n):
                groups = [
                    [v for v in range(h.n) if assign[v] == t] for t in range(classes)
                ]
                if all(not g or h.is_k_independent(g, k) for g in groups):
                    return classes
        raise AssertionError

    for seed in range(4):
        h = gen_random_uniform(6, 8, 3, seed)
        for k in (1, 2):
            assert chi_k_exact(h, k).value == chi_reference(h, k)


def test_chi_trivial_and_guards(k4):
    assert chi_k_exact(Hypergraph(5, 3), 1).value == 1
    with pytest.raises(ValueError):
        chi_k_exact(k4, 0)
    with pytest.raises(ValueError, match="node budget must be nonnegative, got -5"):
        chi_k_exact(k4, 1, -5)


def test_chi_pinned_on_a_dense_graph():
    # the bench's chi query: n = 30 and 200 edges, above the n <= 20 the
    # graph reference draws; value, witness and node count are fixed output
    res = chi_k_exact(gen_random_uniform(30, 200, 2, 114), 2)
    assert res.to_json_dict() == {
        "quantity": "chi_k",
        "k": 2,
        "value": 4,
        "status": "exact",
        "witness": [
            [1, 2, 3, 5, 15, 20, 24],
            [4, 6, 10, 13, 17, 19, 28, 29],
            [7, 8, 11, 14, 16, 22, 25, 27, 30],
            [9, 12, 18, 21, 23, 26],
        ],
        "nodes": 138842,
    }


def test_chi_pinned_on_a_3_uniform_hypergraph():
    # s = 3 runs the per-edge search; n = 24 is above the n <= 14 the
    # hypergraph reference draws.  Recorded before the search counted its
    # nodes inline and kept one degree per vertex.
    h = gen_random_uniform(24, 120, 3, 0)
    assert chi_k_exact(h, 1).to_json_dict() == {
        "quantity": "chi_k",
        "k": 1,
        "value": 3,
        "status": "exact",
        "witness": [
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16],
            [10, 11, 13, 14, 15, 17, 18],
            [19, 20, 21, 22, 23, 24],
        ],
        "nodes": 11152,
    }
    over = chi_k_exact(h, 1, node_budget=11151)
    assert (over.status, over.value, over.nodes) == ("budget_exceeded", None, 11152)


def test_chi_budget_exceeded():
    h = gen_complete(8, 3)
    res = chi_k_exact(h, 1, node_budget=2)
    assert res.status == "budget_exceeded"
    assert res.value is None


def test_result_json_shape(k4):
    doc = alpha_k_exact(k4, 1).to_json_dict()
    assert list(doc) == ["quantity", "k", "value", "status", "witness", "nodes"]
    assert doc["quantity"] == "alpha_k"
    assert doc["value"] == 3
    assert all(1 <= v <= 4 for v in doc["witness"])

    chi_doc = chi_k_exact(k4, 1).to_json_dict()
    assert chi_doc["quantity"] == "chi_k"
    assert chi_doc["value"] == 2
    assert sorted(v for cls in chi_doc["witness"] for v in cls) == [1, 2, 3, 4]

    exceeded = alpha_k_exact(gen_complete(7, 3), 1, node_budget=1).to_json_dict()
    assert exceeded["status"] == "budget_exceeded"
    assert exceeded["value"] is None and exceeded["witness"] is None


def test_oracles_import_no_kindep_module_but_hypergraph():
    # the ground truth must not depend on the extractors it checks
    modules = set()
    for node in ast.walk(ast.parse(inspect.getsource(kindep.exact))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "kindep." * bool(node.level) + (node.module or "")
            if base.rstrip(".") == "kindep":
                # `from kindep import x` and `from . import x` load the
                # package, which imports the extractors
                modules.update(f"kindep.{alias.name}" for alias in node.names)
            else:
                modules.add(base)
    assert {m for m in modules if m.split(".")[0] == "kindep"} == {"kindep.hypergraph"}
