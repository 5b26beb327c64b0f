"""Property tests: the fast extraction, generation, oracle and bound paths
against plain reference implementations kept here.

The references are the straightforward versions: a peel that finds each
victim by an O(n) scan, a band recursion over induced copies, a
partition search that recounts every class degree per move, an
augmentation that re-checks the whole set with `is_k_independent`, an
unranker that walks the first element up one id at a time, a rejection
sampler that draws every bound's words in the multi-word loop, exact
oracles that recount every induced degree at every search node and
recurse once per assigned vertex, a brute-force alpha that
sweeps every mask in ascending order, a .hg parser that sorts every edge
line and keeps a dict of every edge, a constructor that sorts and
checks every edge, degree-sequence bounds that add one weight per
vertex, rebuilding the product for each, and f, g, the product table
and the whole bound report evaluated with a Fraction at every step (the
integer-numerator evaluation must give the same values).  Hypothesis
runs derandomized, so every run draws the same cases.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kindep import (
    DIAGNOSTIC_BOUNDS,
    BoundReport,
    BoundValue,
    ExtractionDefect,
    HgParseError,
    Hypergraph,
    HypergraphError,
    alpha_k_bruteforce,
    alpha_k_exact,
    band_peel,
    best_extract,
    bound_caro_tuza_alpha,
    bound_caro_tuza_k,
    bound_cps,
    bound_report,
    chi_k_exact,
    cps_per_vertex,
    eval_f,
    eval_g,
    gen_complete,
    gen_random_uniform,
    greedy_peel,
    k_partition,
    parse_hg,
    partition_extract,
    write_hg,
)
from kindep.bounds import _ordinary_products
from kindep.exact import OracleResult
from kindep.extract import _augment, _best_of, _PeelState
from kindep.generators import WordStream, _tabulates, _unrank_subsets
from kindep.verify import CorpusInstance, _RunCache

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@st.composite
def hypergraphs(draw, n_max=24, s_max=4):
    n = draw(st.integers(1, n_max))
    s = draw(st.integers(2, s_max))
    if s > n:
        return Hypergraph(n, s)
    raw = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=s, max_size=s, unique=True),
        max_size=4 * n,
    ))
    return Hypergraph(n, s, tuple({tuple(sorted(e)) for e in raw}))


# -- reference peeling: O(n) scan per removal -------------------------------

def scan_peel(h, keep_going):
    """Remove the alive vertex of maximum degree (ties to lowest id) while
    keep_going(removals so far, its degree) holds.

    Returns the survivors and the (vertex, degree) of each removal.
    """
    alive = [True] * h.n
    edge_alive = [True] * h.e
    deg = list(h.degrees)
    steps = []
    while True:
        best, best_deg = -1, -1
        for v in range(h.n):
            if alive[v] and deg[v] > best_deg:
                best, best_deg = v, deg[v]
        if best < 0 or not keep_going(len(steps), best_deg):
            break
        steps.append((best, best_deg))
        alive[best] = False
        for i in h.incidence[best]:
            if edge_alive[i]:
                edge_alive[i] = False
                for u in h.edges[i]:
                    if u != best:
                        deg[u] -= 1
    return tuple(v for v in range(h.n) if alive[v]), steps


def ref_greedy(h, k):
    return scan_peel(h, lambda _, d: d >= k + 1)


def ref_band(h, k):
    x = Fraction(2 * h.e, h.n * (k + 1))
    r = max(0, math.ceil(x) - 1)
    if r == 0:
        return ref_greedy(h, k)
    cap = math.ceil(Fraction(2 * h.e - h.n * r * (k + 1), (r + 2) * (k + 1)))
    tau_twice = h.s * (r + 1) * (k + 1)
    survivors, steps = scan_peel(h, lambda done, d: done < cap and 2 * d >= tau_twice)
    if not steps:
        contenders = [ref_greedy(h, k)]
        if k >= 1:
            part = partition_extract(h, k)
            contenders.append((part.vertices, [(t.vertex, t.degree) for t in part.trace]))
        return max(contenders, key=lambda c: len(c[0]))
    rec_set, rec_steps = ref_band(h.induced(survivors), k)
    plain = ref_greedy(h, k)
    if len(plain[0]) > len(rec_set):
        return plain
    return (tuple(survivors[v] for v in rec_set),
            steps + [(survivors[v], d) for v, d in rec_steps])


def as_pair(result):
    return result.vertices, [(t.vertex, t.degree) for t in result.trace]


@SETTINGS
@given(hypergraphs(), st.integers(0, 3))
def test_greedy_peel_matches_scan_reference(h, k):
    assert as_pair(greedy_peel(h, k)) == ref_greedy(h, k)


@SETTINGS
@given(hypergraphs(), st.integers(0, 3))
def test_band_peel_matches_scan_reference(h, k):
    assert as_pair(band_peel(h, k)) == ref_band(h, k)


def test_band_peel_takes_the_partition_after_a_stall():
    # the third phase stalls at r = 1 with cap 1; the largest partition
    # class of the 7-vertex remainder (4) beats greedy peeling of it (3),
    # which the drawn cases above almost never reach.  Recorded from the
    # implementation that ran a nested greedy_peel on an induced copy.
    h = gen_random_uniform(11, 46, 2, 779972)
    res = band_peel(h, 2)
    assert res.to_json_dict() == {
        "algorithm": "band_peel", "k": 2, "size": 4, "set": [1, 4, 5, 7],
        "certified_max_degree": 2,
        "trace": [
            {"op": "remove", "vertex": 6, "degree": 10},
            {"op": "remove", "vertex": 11, "degree": 9},
            {"op": "remove", "vertex": 3, "degree": 7},
            {"op": "remove", "vertex": 8, "degree": 7},
            {"op": "move", "vertex": 10, "degree": 3},
            {"op": "move", "vertex": 5, "degree": 3},
        ],
    }
    assert as_pair(res) == ref_band(h, 2)


def replay_removals(h, result):
    """Remove the trace's vertices in order, checking each step's degree
    against a recount in the remainder; the survivors must be the set."""
    alive = set(range(h.n))
    for step in result.trace:
        assert step.vertex in alive
        degree = sum(1 for edge in h.edges if step.vertex in edge and alive.issuperset(edge))
        assert step.degree == degree
        alive.remove(step.vertex)
    assert tuple(sorted(alive)) == result.vertices


@SETTINGS
@given(hypergraphs(), st.integers(0, 3))
def test_peel_traces_replay_to_their_sets(h, k):
    greedy = greedy_peel(h, k)
    assert all(step.op == "remove" for step in greedy.trace)
    replay_removals(h, greedy)
    band = band_peel(h, k)
    # a band trace that ends in partition moves has no removal order to replay
    if all(step.op == "remove" for step in band.trace):
        replay_removals(h, band)


def ref_band_probe(h, k, probe):
    """Append band_peel's probe entries, one recursion level per phase,
    reading each remainder's statistics off a fresh induced copy."""
    x = Fraction(2 * h.e, h.n * (k + 1))
    r = max(0, math.ceil(x) - 1)
    if r == 0:
        return
    t = Fraction(2 * h.e - h.n * r * (k + 1), (r + 2) * (k + 1))
    cap = math.ceil(t)
    tau_twice = h.s * (r + 1) * (k + 1)
    survivors, steps = scan_peel(h, lambda done, d: done < cap and 2 * d >= tau_twice)
    rest = h.induced(survivors)
    removed = len(steps)
    entry = {
        "n": h.n, "e": h.e, "k": k, "r": r, "x": x, "t": t, "cap": cap,
        "removed": removed, "early_stop": removed < cap,
        "remainder_n": rest.n, "remainder_e": rest.e,
        "remainder_d_ok": rest.avg_degree <= Fraction(h.s * r * (k + 1), 2)
        if removed == cap else None,
    }
    if removed < cap and k >= 1:
        entry["stop_classes_ok"] = math.ceil(Fraction(rest.max_degree, k)) <= r + 1
    probe.append(entry)
    if removed:
        ref_band_probe(rest, k, probe)


@SETTINGS
@given(hypergraphs(), st.integers(0, 3))
def test_band_peel_probe_matches_recursive_reference(h, k):
    probe, ref = [], []
    band_peel(h, k, probe)
    ref_band_probe(h, k, ref)
    assert probe == ref


@SETTINGS
@given(hypergraphs(), st.integers(1, 30), st.integers(1, 30), st.integers(1, 40))
def test_peel_state_peeled_twice_removes_only_live_vertices(h, first, second, cap):
    state = _PeelState(h)
    gone = [t.vertex for t in state.peel(first, cap)]
    survivors = state.survivors()
    again = [t.vertex for t in state.peel(second)]
    assert not set(gone) & set(again)
    # the second peel is a fresh greedy peel of the induced remainder
    rest = h.induced(survivors)
    _, ref_steps = scan_peel(rest, lambda _, d: d >= second)
    assert again == [survivors[v] for v, _ in ref_steps]
    assert state.peel(second) == []
    alive = set(state.survivors())
    induced = h.induced_degrees(alive)
    assert state.deg == [induced.get(v, 0) for v in range(h.n)]
    assert (state.n_alive, state.e_alive) == (len(alive), sum(state.edge_alive))
    assert state.e_alive == sum(induced.values()) // h.s


# -- reference partition: a full mono-degree recount per move -----------------

def ref_k_partition(h, k):
    """Classes, class maxima and (vertex, degree) moves of the local
    search, recounting every class's induced degrees before each move."""
    c = max(1, -(-h.max_degree // k))
    assign = [v % c for v in range(h.n)]
    moves = []

    def mono_degrees():
        deg = [0] * h.n
        for edge in h.edges:
            if len({assign[u] for u in edge}) == 1:
                for u in edge:
                    deg[u] += 1
        return deg

    while True:
        deg = mono_degrees()
        worst = max(range(h.n), key=lambda v: (deg[v], -v))
        if deg[worst] <= k:
            break
        options = [
            (sum(1 for edge in h.edges
                 if worst in edge and all(assign[u] == t for u in edge if u != worst)), t)
            for t in range(c) if t != assign[worst]
        ]
        gain, target = min(options, default=(deg[worst], -1))
        if gain >= deg[worst]:
            raise ExtractionDefect("no improving move")
        moves.append((worst, deg[worst]))
        assign[worst] = target
    classes = tuple(tuple(v for v in range(h.n) if assign[v] == t) for t in range(c))
    maxima = tuple(max(h.induced_degrees(cls).values(), default=0) for cls in classes)
    return classes, maxima, moves


@st.composite
def clustered_hypergraphs(draw):
    """s >= 3 with extra edges inside residue classes mod c: random edges
    of uniformity 3 or 4 rarely fall in one class of the round-robin
    start, so without these the local search seldom moves at s >= 3."""
    s = draw(st.integers(3, 4))
    c = draw(st.integers(2, 4))
    n = draw(st.integers(c * s, 30))
    spread = st.lists(st.integers(0, n - 1), min_size=s, max_size=s, unique=True)
    inside = st.integers(0, c - 1).flatmap(lambda r: st.lists(
        st.sampled_from(range(r, n, c)), min_size=s, max_size=s, unique=True))
    raw = draw(st.lists(spread, max_size=2 * n)) + draw(st.lists(inside, max_size=3 * n))
    return Hypergraph(n, s, tuple({tuple(sorted(e)) for e in raw}))


@SETTINGS
@given(st.one_of(hypergraphs(), clustered_hypergraphs()), st.integers(1, 3))
def test_k_partition_matches_recount_reference(h, k):
    part = k_partition(h, k)
    got = part.classes, part.class_max_degrees, [(t.vertex, t.degree) for t in part.moves]
    assert got == ref_k_partition(h, k)


# -- reference augmentation: whole-set re-check per candidate ----------------

def recheck_augment(h, k, vertices):
    chosen = set(vertices)
    for v in range(h.n):
        if v not in chosen and h.is_k_independent(sorted(chosen | {v}), k):
            chosen.add(v)
    return tuple(sorted(chosen))


@SETTINGS
@given(hypergraphs(), st.integers(0, 3), st.data())
def test_augment_matches_recheck_reference(h, k, data):
    # a k-independent start that is rarely maximal: grow one in a drawn order
    order = data.draw(st.permutations(range(h.n)))
    start = set()
    for v in order[:data.draw(st.integers(0, h.n))]:
        if h.is_k_independent(sorted(start | {v}), k):
            start.add(v)
    start = tuple(sorted(start))
    assert _augment(h, k, start) == recheck_augment(h, k, start)


@SETTINGS
@given(hypergraphs(), st.integers(0, 3))
def test_best_extract_matches_recheck_reference(h, k):
    contenders = [greedy_peel(h, k), band_peel(h, k)]
    if k >= 1:
        contenders.append(partition_extract(h, k))
    winner = max(contenders, key=lambda res: res.size)
    best = best_extract(h, k)
    assert best.vertices == recheck_augment(h, k, winner.vertices)
    assert best.trace == winner.trace


@SETTINGS
@given(hypergraphs(n_max=14), st.integers(0, 3))
def test_best_extract_size_between_every_extractor_and_alpha(h, k):
    sizes = [greedy_peel(h, k).size, band_peel(h, k).size]
    if k >= 1:
        sizes.append(partition_extract(h, k).size)
    best = best_extract(h, k).size
    assert best >= max(sizes)
    assert best <= alpha_k_exact(h, k).value


@SETTINGS
@given(hypergraphs(), st.integers(0, 3))
def test_best_of_held_contenders_matches_best_extract(h, k):
    # compare's CSV row builds best_size from the contenders it printed
    contenders = [greedy_peel(h, k), band_peel(h, k)]
    if k >= 1:
        contenders.append(partition_extract(h, k))
    assert _best_of(h, k, contenders).to_json_dict() == best_extract(h, k).to_json_dict()


# -- reference degree-sequence bounds: one weight per vertex -----------------

def ref_product(i, s):
    out = Fraction(1)
    for j in range(1, i + 1):
        out *= 1 - Fraction(1, j * (s - 1) + 1)
    return out


def ref_caro_tuza_weight(i, kc, s):
    if i <= kc:
        return 1 - Fraction(i, kc * s)
    return ref_product(i - kc + 1, s)


@SETTINGS
@given(hypergraphs())
def test_caro_tuza_bounds_match_per_vertex_reference(h):
    alpha = sum((ref_product(d, h.s) for d in h.degrees), Fraction(0))
    assert bound_caro_tuza_alpha(h).value == alpha
    for kc in range(1, h.max_degree + 3):
        ref = sum((ref_caro_tuza_weight(d, kc, h.s) for d in h.degrees), Fraction(0))
        assert bound_caro_tuza_k(h, kc).value == ref


@SETTINGS
@given(hypergraphs(), st.integers(0, 3), st.integers(2, 3))
def test_bounds_scale_with_replication(h, k, copies):
    base = bound_report(h, k)
    rep = bound_report(h.replicate(copies), k)
    assert [b.name for b in rep.bounds] == [b.name for b in base.bounds]
    for b, r in zip(base.bounds, rep.bounds):
        if isinstance(b.value, Fraction):
            assert r.value == copies * b.value
        else:
            assert r.applicable == b.applicable
    if h.s >= 3:
        assert cps_per_vertex(h.replicate(copies)) == cps_per_vertex(h)


def relabelled(h, perm):
    return Hypergraph(h.n, h.s, tuple(tuple(perm[v] for v in e) for e in h.edges))


@SETTINGS
@given(st.lists(st.tuples(hypergraphs(n_max=10), st.integers(0, 3)), min_size=1, max_size=6),
       st.data())
def test_run_cache_report_matches_fresh_report(pairs, data):
    instances = []
    for i, (h, k) in enumerate(pairs):
        perm = data.draw(st.permutations(range(h.n)))
        instances.append(CorpusInstance(f"a{i}", h, k, "drawn"))
        instances.append(CorpusInstance(f"b{i}", relabelled(h, perm), k, "drawn"))
    order = data.draw(st.permutations(instances))
    cache = _RunCache(None)
    for inst in order + order[::-1]:
        fresh = bound_report(inst.h, inst.k)
        cached = cache.report(inst)
        assert cached == fresh
        assert cached.to_json_dict() == fresh.to_json_dict()
    # each relabelled copy shares its original's report
    assert len(cache._reports) <= len(pairs)


def test_run_cache_report_keys_on_the_whole_histogram():
    # equal n, s, e and delta; degree histograms {2: 3, 0: 2} and {1: 4, 2: 1}
    triangle = Hypergraph(5, 2, ((0, 1), (0, 2), (1, 2)))
    path = Hypergraph(5, 2, ((0, 1), (1, 2), (3, 4)))
    cache = _RunCache(None)
    for uid, h in (("t", triangle), ("p", path)):
        assert cache.report(CorpusInstance(uid, h, 0, "fixed")) == bound_report(h, 0)


# -- reference bound evaluation: a Fraction at every step -------------------

def ref_eval_f(x):
    x = Fraction(x)
    fl = math.floor(x)
    fpart = x - fl
    return (1 + Fraction(fpart * (1 - fpart), (fl + 1) * (fl + 2))) / (1 + x)


def ref_eval_g(x):
    x = Fraction(x)
    if x == 0:
        return Fraction(1)
    cl = math.ceil(x)
    return (2 * cl - x) / Fraction(cl * (cl + 1))


def ref_ordinary_products(s, top):
    out = [Fraction(1)]
    for j in range(1, top + 1):
        q = j * (s - 1) + 1
        out.append(out[-1] * Fraction(q - 1, q))
    return out


def ref_caro_tuza_k(h, kc, name):
    hist = Counter(h.degrees)
    prods = ref_ordinary_products(h.s, max(1, max(hist) - kc + 1))
    total = sum(
        count * (1 - Fraction(d, kc * h.s) if d <= kc else prods[d - kc + 1])
        for d, count in hist.items()
    )
    return BoundValue(name, total, True)


def ref_bound_report(h, k):
    if k == 0:
        bounds = [BoundValue("max_degree", None, False, "k = 0 (bound divides by k)")]
    else:
        bounds = [BoundValue("max_degree", Fraction(h.n, max(1, -(-h.max_degree // k))), True)]
    x = Fraction(2 * h.e, h.n * (k + 1))
    bounds += [
        BoundValue("edge_count", h.n - Fraction(h.e, k + 1), True),
        BoundValue("avg_degree", ref_eval_f(x) * h.n, True),
        BoundValue("avg_degree_simple",
                   Fraction(h.n * h.n * (k + 1), h.n * (k + 1) + 2 * h.e), True),
    ]
    if k == 0:
        hist = Counter(h.degrees)
        prods = ref_ordinary_products(h.s, max(hist))
        total = sum(count * prods[d] for d, count in hist.items())
        bounds += [BoundValue("caro_tuza_alpha", total, True), bound_cps(h)]
    bounds.append(ref_caro_tuza_k(h, k + 1, "caro_tuza_k"))
    if k >= 1:
        bounds.append(ref_caro_tuza_k(h, k, "caro_tuza_k_diag"))
    else:
        bounds.append(BoundValue("caro_tuza_k_diag", None, False, "index 0 is outside the bound"))
    best = max(b.ceiled() for b in bounds if b.applicable and b.name not in DIAGNOSTIC_BOUNDS)
    return BoundReport(h.n, h.e, h.s, k, h.max_degree, h.avg_degree, tuple(bounds), best)


rationals = st.one_of(
    st.integers(0, 10**6),
    st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**4)),
)


@SETTINGS
@given(rationals)
def test_f_and_g_match_fraction_step_reference(x):
    assert eval_f(x) == ref_eval_f(x)
    assert eval_g(x) == ref_eval_g(x)


@SETTINGS
@given(st.integers(2, 6), st.sets(st.integers(0, 200), min_size=1, max_size=6))
def test_ordinary_products_match_fraction_step_reference(s, indexes):
    nums, den = _ordinary_products(s, indexes)
    ref = ref_ordinary_products(s, max(indexes))
    assert sorted(nums) == sorted(indexes)
    assert {i: Fraction(num, den) for i, num in nums.items()} == {i: ref[i] for i in indexes}
    assert den == math.prod(j * (s - 1) + 1 for j in range(1, max(indexes) + 1))


@SETTINGS
@given(hypergraphs(n_max=30), st.integers(0, 3))
def test_bound_report_matches_fraction_step_reference(h, k):
    assert bound_report(h, k).to_json_dict() == ref_bound_report(h, k).to_json_dict()


def star(leaves):
    return Hypergraph(leaves + 1, 2, tuple((0, v) for v in range(1, leaves + 1)))


def test_high_degree_products_match_closed_forms():
    # s = 2 products telescope, P[i] = 1/(i+1): the Caro-Wei sum
    h = star(5000)
    assert bound_caro_tuza_alpha(h).value == Fraction(5000, 2) + Fraction(1, 5001)
    assert bound_caro_tuza_k(h, 2).value == 5000 * Fraction(3, 4) + Fraction(1, 5000)
    assert bound_report(h, 1).to_json_dict() == ref_bound_report(h, 1).to_json_dict()


@pytest.mark.parametrize("h", [
    Hypergraph(5, 3), gen_complete(4, 3), gen_complete(6, 2), star(40),
    gen_random_uniform(14, 30, 3, 5), gen_random_uniform(30, 90, 4, 7),
], ids=["edgeless", "K4-3", "K6-2", "star40", "r14-30-s3", "r30-90-s4"])
def test_exact_bounds_are_fractions(h):
    # JSON num/den and the table's exact column read the Fraction fields
    for k in range(4):
        for b in bound_report(h, k).bounds:
            if b.applicable and b.name != "cps":
                assert type(b.value) is Fraction, (k, b.name)


# -- reference unranking: linear walk over the first element -----------------

def walk_unrank(rank, n, s):
    out = []
    x = 0
    for slot in range(s, 0, -1):
        while True:
            block = comb(n - x - 1, slot - 1)
            if rank < block:
                break
            rank -= block
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


@SETTINGS
@given(st.data(), st.integers(2, 4))
def test_unrank_matches_linear_walk(data, s):
    n = data.draw(st.integers(s, 4000))
    total = comb(n, s)
    rank = data.draw(st.integers(0, total - 1))
    ranks = [0, rank, total - 1]
    assert _unrank_subsets(ranks, n, s) == [walk_unrank(r, n, s) for r in ranks]


@pytest.mark.parametrize("n, s", [(4000, 2), (1000, 3), (300, 4), (60, 5)])
def test_unrank_tabulated_matches_linear_walk(n, s):
    # the fewest ranks that tabulate the columns, both ends included
    m = next(m for m in range(1, n) if _tabulates(n, m, s))
    total = comb(n, s)
    ranks = sorted({0, total - 1, *random.Random(n).sample(range(1, total - 1), m)})
    assert _tabulates(n, len(ranks), s)
    assert _unrank_subsets(ranks, n, s) == [walk_unrank(r, n, s) for r in ranks]


@pytest.mark.parametrize("n, s", [(10**5, 2), (10**5, 3), (20000, 4)])
def test_unrank_lazy_matches_linear_walk_at_large_n(n, s):
    total = comb(n, s)
    ranks = sorted({0, total - 1, *random.Random(n + s).sample(range(1, total - 1), 3)})
    assert not _tabulates(n, len(ranks), s)
    assert _unrank_subsets(ranks, n, s) == [walk_unrank(r, n, s) for r in ranks]


# -- reference rejection sampling: the multi-word loop for every bound -------

def ref_randbelow(stream, bound):
    if bound == 1:
        return 0
    words = (bound.bit_length() + 63) // 64
    limit = 1 << (64 * words)
    cutoff = limit - limit % bound
    while True:
        value = 0
        for _ in range(words):
            value = (value << 64) | stream.next_word()
        if value < cutoff:
            return value % bound


def assert_randbelow_matches_reference(seed, bounds):
    fast, ref = WordStream(seed), WordStream(seed)
    for bound in bounds:
        assert fast.randbelow(bound) == ref_randbelow(ref, bound), bound
    # both consumed the same words
    assert fast.next_word() == ref.next_word()


@pytest.mark.parametrize("bound", [1, 2, 3, 2**63, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1,
                                   2**130 + 7])
def test_randbelow_matches_multiword_reference(bound):
    # 2^63 + 1 rejects almost half its words; 2^64 takes two words a try
    assert_randbelow_matches_reference(bound % 1000, [bound] * 200)


@SETTINGS
@given(st.integers(0, 2**64),
       st.lists(st.one_of(st.integers(1, 2**16), st.integers(1, 2**64 + 2),
                          st.integers(1, 2**200)), min_size=1, max_size=40))
def test_randbelow_matches_multiword_reference_at_drawn_bounds(seed, bounds):
    assert_randbelow_matches_reference(seed, bounds)



# -- reference oracles: a full degree recount per search node ----------------

class RefBudgetExceeded(Exception):
    pass


class RefMeter:
    def __init__(self, limit):
        self.spent = 0
        self.limit = limit

    def tick(self):
        self.spent += 1
        if self.limit is not None and self.spent > self.limit:
            raise RefBudgetExceeded


def mask_vertices(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def max_violator(h, smask, k):
    deg = [0] * h.n
    for emask, edge in zip(h.edge_masks, h.edges):
        if emask & smask == emask:
            for v in edge:
                deg[v] += 1
    worst, worst_deg = -1, k
    for v in range(h.n):
        if smask >> v & 1 and deg[v] > worst_deg:
            worst, worst_deg = v, deg[v]
    return worst


def witness_union(h, smask, v, k):
    out = 1 << v
    found = 0
    for emask in h.edge_masks:
        if emask >> v & 1 and emask & smask == emask:
            out |= emask
            found += 1
            if found == k + 1:
                break
    return out


def ref_alpha(h, k, node_budget=None):
    meter = RefMeter(node_budget)
    best_mask = (1 << h.n) - 1
    while (v := max_violator(h, best_mask, k)) >= 0:
        best_mask &= ~(1 << v)
    best = bin(best_mask).count("1")

    def explore(smask, required):
        nonlocal best, best_mask
        meter.tick()
        size = bin(smask).count("1")
        if size <= best:
            return
        v = max_violator(h, smask, k)
        if v < 0:
            best, best_mask = size, smask
            return
        union = witness_union(h, smask, v, k)
        req = required
        for u in [v] + [u for u in mask_vertices(union) if u != v]:
            bit = 1 << u
            if req & bit:
                continue
            explore(smask & ~bit, req)
            req |= bit

    try:
        explore((1 << h.n) - 1, 0)
    except RefBudgetExceeded:
        return OracleResult("alpha_k", k, None, "budget_exceeded", None, meter.spent, 0.0)
    return OracleResult("alpha_k", k, best, "exact", mask_vertices(best_mask), meter.spent, 0.0)


def ref_partition_search(h, k, classes, meter):
    by_last = [[] for _ in range(h.n)]
    for i, edge in enumerate(h.edges):
        by_last[edge[-1]].append(i)
    assign = [-1] * h.n
    cls_deg = [[0] * h.n for _ in range(classes)]

    def place(v, t):
        done = [i for i in by_last[v] if all(assign[u] == t for u in h.edges[i] if u != v)]
        touched = []
        for i in done:
            for u in h.edges[i]:
                cls_deg[t][u] += 1
                touched.append(u)
                if cls_deg[t][u] > k:
                    for w in touched:
                        cls_deg[t][w] -= 1
                    return None
        return done

    def descend(v, used):
        if v == h.n:
            return True
        meter.tick()
        for t in range(min(used + 1, classes)):
            assign[v] = t
            done = place(v, t)
            if done is not None:
                if descend(v + 1, max(used, t + 1)):
                    return True
                for i in done:
                    for u in h.edges[i]:
                        cls_deg[t][u] -= 1
            assign[v] = -1
        return False

    return assign if descend(0, 0) else None


def ref_chi(h, k, node_budget=None):
    meter = RefMeter(node_budget)
    for classes in range(1, h.n + 1):
        try:
            assign = ref_partition_search(h, k, classes, meter)
        except RefBudgetExceeded:
            return OracleResult("chi_k", k, None, "budget_exceeded", None, meter.spent, 0.0)
        if assign is not None:
            witness = tuple(
                tuple(v for v in range(h.n) if assign[v] == t)
                for t in range(classes)
                if t in assign
            )
            return OracleResult("chi_k", k, classes, "exact", witness, meter.spent, 0.0)
    raise AssertionError("singleton partition must have succeeded")


@SETTINGS
@given(hypergraphs(n_max=14), st.integers(0, 2))
def test_alpha_matches_recount_reference(h, k):
    assert alpha_k_exact(h, k).to_json_dict() == ref_alpha(h, k).to_json_dict()


@SETTINGS
@given(hypergraphs(n_max=14), st.integers(0, 2), st.integers(0, 40))
def test_alpha_budget_trips_at_reference_node(h, k, budget):
    got = alpha_k_exact(h, k, node_budget=budget).to_json_dict()
    assert got == ref_alpha(h, k, node_budget=budget).to_json_dict()


@pytest.mark.parametrize("h, k", [
    (gen_complete(7, 3), 1),
    (gen_random_uniform(14, 30, 3, 5), 0),
    (gen_random_uniform(12, 40, 2, 9), 1),
    (gen_random_uniform(12, 45, 4, 7), 2),
], ids=["K7-3-k1", "r14-30-s3-k0", "r12-40-s2-k1", "r12-45-s4-k2"])
def test_alpha_every_budget_matches_reference(h, k):
    # cut children are charged in bulk: every budget, including one that
    # runs out inside such a group, must stop at the reference's node
    nodes = ref_alpha(h, k).nodes
    for budget in range(nodes + 2):
        got = alpha_k_exact(h, k, node_budget=budget).to_json_dict()
        assert got == ref_alpha(h, k, node_budget=budget).to_json_dict(), budget


def hub_with_leaf_edges(leaves, extra, seed):
    # vertex 0 joined to every leaf, plus `extra` random edges among the leaves
    rng = random.Random(seed)
    edges = {(0, v) for v in range(1, leaves + 1)}
    while len(edges) < leaves + extra:
        edges.add(tuple(sorted(rng.sample(range(1, leaves + 1), 2))))
    return Hypergraph(leaves + 1, 2, tuple(sorted(edges)))


@pytest.mark.parametrize("extra, k", [(6, 0), (20, 1), (48, 2)])
def test_alpha_degree_fields_wider_than_a_byte_every_budget(extra, k):
    # the hub's degree 130 needs a packed field of nine bits
    h = hub_with_leaf_edges(130, extra, 0)
    assert max(h.degrees) >= 128
    nodes = ref_alpha(h, k).nodes
    assert nodes > 50
    for budget in range(nodes + 2):
        got = alpha_k_exact(h, k, node_budget=budget).to_json_dict()
        assert got == ref_alpha(h, k, node_budget=budget).to_json_dict(), budget


def test_alpha_drop_lowering_max_degree_by_more_than_one_every_budget():
    # in K8^(3) every degree is 21 and one drop takes the others to 15, so
    # a child's violator search starts six levels above its maximum
    h = gen_complete(8, 3)
    assert set(h.degrees) == {21}
    assert set(h.induced([1, 2, 3, 4, 5, 6, 7]).degrees) == {15}
    nodes = ref_alpha(h, 1).nodes
    for budget in range(nodes + 2):
        got = alpha_k_exact(h, 1, node_budget=budget).to_json_dict()
        assert got == ref_alpha(h, 1, node_budget=budget).to_json_dict(), budget


def test_alpha_beyond_64_vertices_matches_reference():
    # above the old n <= 64 cap, against the recount reference
    h = gen_random_uniform(80, 40, 2, 1)
    assert alpha_k_exact(h, 1).to_json_dict() == ref_alpha(h, 1).to_json_dict()


@SETTINGS
@given(hypergraphs(n_max=14), st.integers(1, 3))
def test_chi_matches_recursive_reference(h, k):
    assert chi_k_exact(h, k).to_json_dict() == ref_chi(h, k).to_json_dict()


@SETTINGS
@given(hypergraphs(n_max=14), st.integers(1, 3), st.integers(0, 40))
def test_chi_budget_trips_at_reference_node(h, k, budget):
    got = chi_k_exact(h, k, node_budget=budget).to_json_dict()
    assert got == ref_chi(h, k, node_budget=budget).to_json_dict()


@SETTINGS
@given(hypergraphs(n_max=20, s_max=2), st.integers(1, 3))
def test_chi_on_graphs_matches_recursive_reference(h, k):
    # graphs take the neighbour-mask class test; larger n than the mixed draw
    assert chi_k_exact(h, k).to_json_dict() == ref_chi(h, k).to_json_dict()


@pytest.mark.parametrize("h, k", [
    (gen_random_uniform(14, 40, 2, 9), 2),
    (gen_random_uniform(12, 60, 3, 0), 2),
    (gen_random_uniform(12, 120, 4, 0), 1),
], ids=["r14-40-s2-k2", "r12-60-s3-k2", "r12-120-s4-k1"])
def test_chi_every_budget_matches_reference(h, k):
    # every budget, through every deepening round, stops at the reference's node
    nodes = ref_chi(h, k).nodes
    for budget in range(nodes + 2):
        got = chi_k_exact(h, k, node_budget=budget).to_json_dict()
        assert got == ref_chi(h, k, node_budget=budget).to_json_dict(), budget


def ref_alpha_bruteforce(h, k):
    """The ascending 2^n sweep: every mask larger than the best so far
    is checked by a full degree recount."""
    best = 0
    for smask in range(1 << h.n):
        size = bin(smask).count("1")
        if size <= best:
            continue
        deg = [0] * h.n
        ok = True
        for emask, edge in zip(h.edge_masks, h.edges):
            if emask & smask == emask:
                for v in edge:
                    deg[v] += 1
                    if deg[v] > k:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            best = size
    return best


@SETTINGS
@given(hypergraphs(n_max=12), st.integers(0, 3))
def test_alpha_bruteforce_matches_ascending_sweep(h, k):
    # the draw includes n < s and edgeless hypergraphs
    assert alpha_k_bruteforce(h, k) == ref_alpha_bruteforce(h, k)


# -- reference .hg parser and constructor: sort and check every edge ---------

def ref_canonical_edges(n, s, edges):
    """The constructor's canonicalizing loop: sort and check each edge,
    sort the edge list, reject equal neighbours."""
    canon = []
    for raw in edges:
        edge = tuple(sorted(raw))
        if len(edge) != s:
            raise HypergraphError(f"edge {tuple(raw)!r} has {len(edge)} vertices, expected {s}")
        for a, b in zip(edge, edge[1:]):
            if a == b:
                raise HypergraphError(f"duplicate vertex {a} within edge {tuple(raw)!r}")
        if edge[0] < 0 or edge[-1] >= n:
            bad = edge[0] if edge[0] < 0 else edge[-1]
            raise HypergraphError(f"vertex id {bad} of edge {tuple(raw)!r} out of range [0, {n})")
        canon.append(edge)
    canon.sort()
    for a, b in zip(canon, canon[1:]):
        if a == b:
            raise HypergraphError(f"duplicate edge {a!r}")
    return tuple(canon)


def ref_parse_hg(text):
    """A parser that sorts every edge line and keeps a dict of all edges
    seen; returns (n, s, canonical edges)."""
    n = m = s = -1
    header_line = 0
    edges = []
    seen = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header_line:
                raise HgParseError(line_no, f"second problem line (first at line {header_line})")
            if len(fields) != 5 or fields[1] != "hyp":
                raise HgParseError(line_no, f"malformed problem line {line!r}, expected 'p hyp <n> <m> <s>'")
            try:
                n, m, s = (int(f) for f in fields[2:])
            except ValueError:
                raise HgParseError(line_no, f"non-integer field in problem line {line!r}") from None
            if n < 1 or m < 0 or s < 2:
                raise HgParseError(line_no, f"problem line values out of range: n={n} m={m} s={s}")
            header_line = line_no
        elif fields[0] == "e":
            if not header_line:
                raise HgParseError(line_no, "edge line before problem line")
            try:
                ids = [int(f) for f in fields[1:]]
            except ValueError:
                raise HgParseError(line_no, f"non-integer vertex id in edge line {line!r}") from None
            if len(ids) != s:
                raise HgParseError(line_no, f"edge has {len(ids)} vertices, expected {s}")
            for v in ids:
                if not 1 <= v <= n:
                    raise HgParseError(line_no, f"vertex id {v} out of range [1, {n}]")
            edge = tuple(sorted(v - 1 for v in ids))
            for a, b in zip(edge, edge[1:]):
                if a == b:
                    raise HgParseError(line_no, f"duplicate vertex {a + 1} within edge")
            if edge in seen:
                raise HgParseError(line_no, f"duplicate edge (first at line {seen[edge]})")
            seen[edge] = line_no
            edges.append(edge)
        else:
            raise HgParseError(line_no, f"unrecognized line type {fields[0]!r}")
    if not header_line:
        raise HgParseError(0, "missing problem line")
    if len(edges) != m:
        raise HgParseError(0, f"problem line announced {m} edges, found {len(edges)}")
    return n, s, ref_canonical_edges(n, s, edges)


def parse_outcome(parse, text):
    """(n, s, edges) of a parse, or its error's class, line and message."""
    try:
        result = parse(text)
    except HgParseError as exc:
        return type(exc), exc.line_no, str(exc).partition(": ")[2]
    if isinstance(result, Hypergraph):
        return result.n, result.s, result.edges
    return result


def assert_parses_like_reference(text):
    got, ref = parse_outcome(parse_hg, text), parse_outcome(ref_parse_hg, text)
    if ref[0] is HgParseError and ref[1] == 0:
        # the two end-of-file errors: the reference numbers no line; the
        # parser names the problem line, or the last line of a headerless text
        lines = text.splitlines()
        header = [i for i, line in enumerate(lines, 1) if line.split()[:1] == ["p"]]
        ref = (ref[0], header[0] if header else max(1, len(lines)), ref[2])
    assert got == ref


def hg_records(h, rnd, scramble):
    """The header and edge lines of h as token lists; with scramble the
    edge lines are shuffled and so are the ids inside each."""
    edges = []
    for edge in h.edges:
        ids = [str(v + 1) for v in edge]
        if scramble:
            rnd.shuffle(ids)
        edges.append(["e"] + ids)
    if scramble:
        rnd.shuffle(edges)
    return [["p", "hyp", str(h.n), str(h.e), str(h.s)]] + edges


FILLERS = ("", "  ", "\t", "c", "c a comment", " c 1 2", "cx 3")
PADS = ("", "", " ", "\t", "  ")
GAPS = (" ", " ", "  ", "\t")


def render(records, rnd):
    """Join token lists into .hg text with comment, blank and
    whitespace-padded lines mixed in."""
    lines = []
    for tokens in records:
        while rnd.random() > 0.8:
            lines.append(rnd.choice(FILLERS))
        body = tokens[0] + "".join(rnd.choice(GAPS) + t for t in tokens[1:])
        lines.append(rnd.choice(PADS) + body + rnd.choice(PADS))
    end = rnd.choice(["\n", "\n", "\r\n"])
    return end.join(lines) + rnd.choice([end, ""])


CORRUPTIONS = ("range", "dup_id", "arity", "non_int", "dup_edge", "header", "count", "tag",
               "early_edge", "no_header")


def corrupt(records, kind, rnd, h):
    """Apply one corruption of the given kind to h's token lists in place."""
    edge_rows = [i for i, tokens in enumerate(records) if tokens[0] == "e" and len(tokens) > 1]
    if not edge_rows:
        records.append(["e"] + [str(v) for v in range(1, h.s + 1)])
        edge_rows = [len(records) - 1]
    row = rnd.choice(edge_rows)
    tokens = records[row]
    j = rnd.randrange(1, len(tokens))
    if kind == "range":
        tokens[j] = rnd.choice(["0", "-1", str(h.n + 1), str(h.n + 7)])
    elif kind == "dup_id":
        tokens[j] = tokens[rnd.randrange(1, len(tokens))]
    elif kind == "arity":
        if rnd.random() < 0.5:
            del tokens[j]
        else:
            tokens.insert(j, str(rnd.randint(1, h.n)))
    elif kind == "non_int":
        tokens[j] = rnd.choice(["x", "1.5", "2a", "0x1"])
    elif kind == "dup_edge":
        copy = ["e"] + rnd.sample(tokens[1:], len(tokens) - 1)
        records.insert(rnd.randint(row + 1, len(records)), copy)
    elif kind == "header":
        records.insert(rnd.randint(0, len(records)), ["p", "hyp", str(h.n), str(h.e), str(h.s)])
    elif kind == "count":
        del records[row]
    elif kind == "early_edge":
        records.insert(0, list(tokens))
    elif kind == "no_header":
        gone = ("p", "e") if rnd.random() < 0.5 else ("p",)
        records[:] = [tokens for tokens in records if tokens[0] not in gone]
    else:
        records.insert(rnd.randint(0, len(records)), [rnd.choice(["x", "q", "E", "P"]), "1"])


@SETTINGS
@given(hypergraphs(), st.lists(st.text(alphabet="abc 12", max_size=8), max_size=3))
def test_parse_inverts_write(h, comments):
    assert parse_hg(write_hg(h, tuple(comments))) == h


@SETTINGS
@given(hypergraphs(n_max=12), st.randoms(use_true_random=False), st.booleans())
def test_parse_scrambled_text_matches_reference(h, rnd, scramble):
    text = render(hg_records(h, rnd, scramble), rnd)
    assert parse_hg(text) == h
    assert_parses_like_reference(text)


@SETTINGS
@given(hypergraphs(n_max=12), st.randoms(use_true_random=False), st.booleans(),
       st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=3))
def test_parse_corrupted_text_matches_reference(h, rnd, scramble, kinds):
    records = hg_records(h, rnd, scramble)
    for kind in kinds:
        corrupt(records, kind, rnd, h)
    assert_parses_like_reference(render(records, rnd))


@SETTINGS
@given(hypergraphs(n_max=12), st.randoms(use_true_random=False), st.booleans(),
       st.integers(1, 2))
def test_parse_duplicate_edge_matches_reference(h, rnd, scramble, copies):
    # each copy, its ids permuted, lands after its original in a sorted
    # or a shuffled file
    records = hg_records(h, rnd, scramble)
    for _ in range(copies):
        corrupt(records, "dup_edge", rnd, h)
    assert_parses_like_reference(render(records, rnd))


@st.composite
def edge_collections(draw):
    """(n, s, edges) for the constructor: tuples or lists, sorted or not,
    with duplicates, out-of-range ids, wrong lengths or bools mixed in."""
    n = draw(st.integers(1, 10))
    s = draw(st.integers(2, 4))
    lo, hi = draw(st.sampled_from([(0, n - 1), (-2, n + 1)]))
    size = draw(st.sampled_from([(s, s), (s - 1, s + 1)]))
    edges = draw(st.lists(
        st.lists(st.integers(lo, hi), min_size=size[0], max_size=size[1],
                 unique=hi - lo >= size[1] and draw(st.booleans())),
        max_size=12,
    ))
    if draw(st.booleans()):
        edges = [sorted(edge) for edge in edges]
    if draw(st.booleans()):
        edges.sort()
    if draw(st.booleans()):
        edges = [list(edge) for edge in dict.fromkeys(map(tuple, edges))]
    if edges and edges[0] and edges[0][0] in (0, 1) and draw(st.booleans()):
        edges[0][0] = bool(edges[0][0])
    edge_type = draw(st.sampled_from([tuple, list]))
    container = draw(st.sampled_from([tuple, list]))
    return n, s, container(edge_type(edge) for edge in edges)


@SETTINGS
@given(edge_collections())
def test_constructor_matches_canonicalizing_reference(case):
    n, s, edges = case
    try:
        ref = ref_canonical_edges(n, s, edges)
    except HypergraphError as exc:
        with pytest.raises(HypergraphError) as exc_info:
            Hypergraph(n, s, edges)
        assert str(exc_info.value) == str(exc)
        return
    got = Hypergraph(n, s, edges).edges
    assert repr(got) == repr(ref)
    # an input already in canonical form is checked and kept, not rebuilt
    canonical = (type(edges) is tuple and edges == ref
                 and all(type(edge) is tuple for edge in edges)
                 and all(type(v) is int for edge in edges for v in edge))
    assert (got is edges) == canonical
