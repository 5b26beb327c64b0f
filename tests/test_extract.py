"""Extraction engines: frozen small cases, guarantee sweeps, trace
replay, the re-verification safety net, and sets and traces pinned at
the scale of the benchmark's large files."""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from kindep import (
    ExtractionDefect,
    Hypergraph,
    VerifyConfig,
    alpha_k_exact,
    band_peel,
    best_extract,
    bound_report,
    corpus_instance,
    eval_f,
    gen_complete,
    gen_random_uniform,
    greedy_peel,
    k_partition,
    load_hg,
    partition_extract,
)
from kindep.extract import _finalize


@pytest.fixture
def k4():
    return gen_complete(4, 3)


def sweep_instances():
    for seed in range(10):
        n = 8 + seed % 4
        m = 3 * (seed % 4) + 2 * seed
        s = 2 + seed % 3
        yield gen_random_uniform(n, m, s, seed)


def test_greedy_peel_complete_k0(k4):
    res = greedy_peel(k4, 0)
    assert res.algorithm == "greedy_peel"
    assert res.vertices == (2, 3)
    assert res.certified_max_degree == 0
    assert [(t.op, t.vertex, t.degree) for t in res.trace] == [
        ("remove", 0, 3),
        ("remove", 1, 1),
    ]


def test_greedy_peel_guarantee():
    for h in sweep_instances():
        for k in range(4):
            res = greedy_peel(h, k)
            assert res.size >= h.n - Fraction(h.e, k + 1)
            assert res.certified_max_degree <= k


def test_greedy_peel_trace_replay(k4):
    for h in list(sweep_instances()) + [k4]:
        for k in range(3):
            res = greedy_peel(h, k)
            removed = [t.vertex for t in res.trace]
            assert len(set(removed)) == len(removed)
            assert tuple(sorted(set(range(h.n)) - set(removed))) == res.vertices


def test_finalize_rejects_a_dependent_set(k4):
    with pytest.raises(ExtractionDefect):
        # all of K4 keeps every edge at k = 0, and the mandatory
        # re-verification must catch it
        _finalize(k4, 0, "greedy_peel", (0, 1, 2, 3), ())
    with pytest.raises(ValueError):
        greedy_peel(k4, -1)


def test_band_peel_complete_k0(k4):
    res = band_peel(k4, 0)
    assert res.algorithm == "band_peel"
    assert res.vertices == (2, 3)
    assert [(t.op, t.vertex, t.degree) for t in res.trace] == [
        ("remove", 0, 3),
        ("remove", 1, 1),
    ]


def test_band_peel_guarantee():
    for h in sweep_instances():
        for k in range(4):
            res = band_peel(h, k)
            x = Fraction(2 * h.e, h.n * (k + 1))
            assert res.size >= math.ceil(eval_f(x) * h.n)
            assert res.certified_max_degree <= k


def test_band_peel_all_remove_traces_replay():
    for h in sweep_instances():
        for k in range(3):
            res = band_peel(h, k)
            if all(t.op == "remove" for t in res.trace):
                removed = set(t.vertex for t in res.trace)
                assert tuple(sorted(set(range(h.n)) - removed)) == res.vertices


def test_band_peel_probe_entries():
    h = gen_random_uniform(10, 30, 3, 3)
    probe = []
    band_peel(h, 0, probe=probe)
    assert probe
    for entry in probe:
        assert entry["r"] >= 1
        assert entry["removed"] <= entry["cap"]
        assert entry["early_stop"] == (entry["removed"] < entry["cap"])


def test_partition_contract():
    for h in sweep_instances():
        for k in (1, 2, 3):
            part = k_partition(h, k)
            expected_classes = max(1, -(-h.max_degree // k))
            assert len(part.classes) == expected_classes
            assert len(part.moves) <= h.e
            assert sorted(v for cls in part.classes for v in cls) == list(range(h.n))
            assert all(d <= k for d in part.class_max_degrees)


def test_partition_without_improving_move_is_a_defect(k4):
    # a host that under-reports delta leaves too few classes for the
    # local search; that must raise, not open an extra class
    class UnderReportedDelta(Hypergraph):
        @property
        def max_degree(self):
            return 1

    lying = UnderReportedDelta(k4.n, k4.s, k4.edges)
    with pytest.raises(ExtractionDefect, match="no improving move"):
        k_partition(lying, 1)


def test_partition_rejects_k0(k4):
    with pytest.raises(ValueError):
        k_partition(k4, 0)
    with pytest.raises(ValueError):
        partition_extract(k4, 0)


def test_partition_extract_pigeonhole():
    for h in sweep_instances():
        for k in (1, 2):
            res = partition_extract(h, k)
            classes = max(1, -(-h.max_degree // k))
            assert res.size >= -(-h.n // classes)
            assert res.certified_max_degree <= k


def test_partition_extract_complete(k4):
    res = partition_extract(k4, 1)
    assert res.size == 2
    assert res.trace == ()


def test_partition_extract_from_a_held_partition():
    for h in sweep_instances():
        for k in (1, 2):
            assert partition_extract(h, k, k_partition(h, k)) == partition_extract(h, k)


def test_best_extract_dominates_and_is_maximal(k4):
    for h in list(sweep_instances()) + [k4]:
        for k in range(3):
            best = best_extract(h, k)
            assert best.size >= greedy_peel(h, k).size
            assert best.size >= band_peel(h, k).size
            if k >= 1:
                assert best.size >= partition_extract(h, k).size
            chosen = set(best.vertices)
            for v in range(h.n):
                if v not in chosen:
                    assert not h.is_k_independent(sorted(chosen | {v}), k)


def test_extraction_never_beats_oracle():
    for h in sweep_instances():
        for k in range(3):
            exact = alpha_k_exact(h, k).value
            assert best_extract(h, k).size <= exact


def test_extraction_achieves_best_bound():
    for h in sweep_instances():
        for k in range(4):
            report = bound_report(h, k)
            assert best_extract(h, k).size >= report.best_lower_bound


def test_result_json_shape(k4):
    doc = band_peel(k4, 0).to_json_dict()
    assert list(doc) == [
        "algorithm",
        "k",
        "size",
        "set",
        "certified_max_degree",
        "trace",
    ]
    assert doc["set"] == [3, 4]
    assert doc["trace"][0] == {"op": "remove", "vertex": 1, "degree": 3}
    assert doc["size"] == 2


R388 = Path(__file__).parent / "data" / "r388_band_peel.hg"


def test_r388_instance_facts():
    h, k = load_hg(str(R388)), 1
    assert h == corpus_instance(VerifyConfig(master_seed=5), "r388").h
    assert (h.n, h.e, h.s) == (8, 22, 2)
    target = math.ceil(eval_f(Fraction(2 * h.e, h.n * (k + 1))) * h.n)
    assert target == 3
    assert alpha_k_exact(h, k).value == 3


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="band_peel returns 2 on r388 (kindep verify --seed 5), "
                          "short of the ceil(f(x) * n) = 3 target that alpha_1 = 3 allows")
def test_band_peel_reaches_f_target_on_r388():
    h = load_hg(str(R388))
    assert band_peel(h, 1).size >= 3


def test_defect_names_the_worst_vertex(k4):
    # every K4 vertex keeps induced degree 3; the lowest id is named
    with pytest.raises(ExtractionDefect, match=r"^greedy_peel returned a non-0-independent "
                                               r"set: vertex 0 has induced degree > 0$"):
        _finalize(k4, 0, "greedy_peel", (0, 1, 2, 3), ())


def test_band_peel_deep_band_regression():
    # 149 phases at k = 0: the figures were recorded from the recursive
    # implementation, which built an induced copy per phase
    h = gen_random_uniform(300, 40000, 3, 1)
    probe = []
    res = band_peel(h, 0, probe=probe)
    assert len(probe) == 149
    assert res.size == 35


# sha256 of json.dumps(to_json_dict(), sort_keys=True) on instances of the
# benchmark's large-file shapes at seed 7: (n, m, s, k) -> algorithm -> digest
AT_SCALE_DIGESTS = {
    (2000, 20000, 3, 1): {
        best_extract: "26fb804d326b0a7160b1b75458861f17109938b43ac4be25065e5521fa20b298",
        band_peel: "880aed56fbcebc29c4bb95a08d90cb8fcae63f17ed137b7e453827d7d9c79bf0",
        partition_extract: "e4003253c2adf14480b3cbefffd3649321d14cc27f11e7cc9476f6276c1f46c6",
    },
    (4000, 4000, 2, 0): {
        best_extract: "b3d3cfcc2a5cf62957e0f82cdb2e80e0a71b559da7d82ced143e9fd62aa72270",
        band_peel: "d3a19b16f8b18f056d28d783845f0c962bd740c2ad26595140f244038c70674c",
    },
    # the dense shape converges from the round-robin start; this one takes
    # 63 local-search moves
    (2000, 4000, 2, 1): {
        partition_extract: "4d08918801eae3dbc4b8449911bc495e9bd967f0698a974c960d89c9e65bc3d8",
    },
}


@pytest.mark.parametrize("shape", list(AT_SCALE_DIGESTS))
def test_extractors_pinned_at_scale(shape):
    n, m, s, k = shape
    h = gen_random_uniform(n, m, s, 7)
    for algo, digest in AT_SCALE_DIGESTS[shape].items():
        text = json.dumps(algo(h, k).to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, algo.__name__
