"""Constructive extraction of large k-independent sets.

Three engines, each realizing one of the lower-bound arguments:

    greedy_peel        threshold peeling; survivors number >= n - e/(k+1)
    band_peel          banded threshold recursion achieving f(x) * n
    partition_extract  largest class of a bounded-degree partition,
                       size >= ceil(n / ceil(delta/k)) by pigeonhole

plus `best_extract`, which runs all applicable engines and augments the
winner to a maximal set.  Every result is re-verified against the input
hypergraph before it is returned; a failed re-verification raises
ExtractionDefect and is a bug by definition, never a degraded answer.

All reported vertex ids refer to the caller's hypergraph, also where
band_peel partitions an induced copy of a stalled remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heapreplace
from itertools import compress

from kindep.hypergraph import Hypergraph


class ExtractionDefect(RuntimeError):
    """An extractor produced a set that failed re-verification."""


@dataclass(frozen=True)
class TraceStep:
    """One audited algorithm step.

    op is "remove" (peeling) or "move" (partition local search);
    degree is the induced degree that triggered the step.
    """

    op: str
    vertex: int
    degree: int

    def to_json_dict(self) -> dict:
        return {"op": self.op, "vertex": self.vertex + 1, "degree": self.degree}


@dataclass(frozen=True)
class ExtractionResult:
    """A verified k-independent set plus the steps that produced it."""

    algorithm: str
    k: int
    vertices: tuple[int, ...]
    certified_max_degree: int
    trace: tuple[TraceStep, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "k": self.k,
            "size": self.size,
            "set": [v + 1 for v in self.vertices],
            "certified_max_degree": self.certified_max_degree,
            "trace": [t.to_json_dict() for t in self.trace],
        }


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of V with bounded induced degree per class."""

    k: int
    classes: tuple[tuple[int, ...], ...]
    class_max_degrees: tuple[int, ...]
    moves: tuple[TraceStep, ...]


def _finalize(h: Hypergraph, k: int, algorithm: str,
              vertices: tuple[int, ...], trace: tuple[TraceStep, ...]) -> ExtractionResult:
    """Re-verify and package; the re-check is the module's safety net."""
    deg = h.induced_degrees(vertices)
    certified = max(deg.values(), default=0)
    if certified > k:
        worst = min(v for v, d in deg.items() if d == certified)
        raise ExtractionDefect(
            f"{algorithm} returned a non-{k}-independent set: vertex "
            f"{worst} has induced degree > {k}"
        )
    return ExtractionResult(algorithm, k, vertices, certified, trace)


class _PeelState:
    """Mutable view of a hypergraph under vertex deletion.

    Tracks alive vertices, alive edges (all endpoints alive), their
    counts n_alive and e_alive, and the induced degree of every vertex,
    so one deletion costs only the edges it kills: O(s * deg v).  A
    deleted vertex's degree drops to 0, as all its edges die with it.

    `peel` picks each victim from a lazy max-degree heap of int keys
    v - deg * n, so the smallest key is the highest degree with ties to
    the lowest id.  Deletions only lower degrees, so a stale key
    overstates its vertex and surfaces at the top, where it is re-keyed
    (or dropped once below the threshold, which it can never regain).
    Each re-key pays for an earlier degree decrement, so a peel costs
    O((n + s * e) log n) in all and its heap is freed when it returns.
    A state can be peeled again: each call heaps only the vertices at or
    above its threshold (at least 1), and those are always alive.
    """

    def __init__(self, h: Hypergraph) -> None:
        self.h = h
        self.alive = [True] * h.n
        self.edge_alive = [True] * h.e
        self.deg = list(h.degrees)
        self.n_alive, self.e_alive = h.n, h.e

    def peel(self, threshold: int, cap: int | None = None) -> list[TraceStep]:
        """Remove the alive vertex of maximum induced degree (ties to
        lowest id) while that degree is >= threshold, at most cap times."""
        h = self.h
        n, edges, incidence = h.n, h.edges, h.incidence
        deg, alive, edge_alive = self.deg, self.alive, self.edge_alive
        heap = [v - d * n for v, d in enumerate(deg) if d >= threshold]
        heapify(heap)
        trace, killed = [], 0
        left = n if cap is None else cap
        while heap and left:
            key = heap[0]
            v = key % n
            d = deg[v]
            if d < threshold:
                heappop(heap)
            elif key != v - d * n:
                heapreplace(heap, v - d * n)
            else:
                heappop(heap)
                left -= 1
                trace.append(TraceStep("remove", v, d))
                alive[v] = False
                deg[v] = 0
                killed += d
                for i in incidence[v]:
                    if edge_alive[i]:
                        edge_alive[i] = False
                        for u in edges[i]:
                            if u != v:
                                deg[u] -= 1
        self.n_alive -= len(trace)
        self.e_alive -= killed
        return trace

    def survivors(self) -> tuple[int, ...]:
        return tuple(compress(range(self.h.n), self.alive))


def greedy_peel(h: Hypergraph, k: int) -> ExtractionResult:
    """Peel vertices of current degree >= k+1 until none remain.

    Every survivor's induced degree is then at most k, and each removal
    kills at least k+1 edges, so the survivor count is at least
    n - e/(k+1).
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    state = _PeelState(h)
    trace = state.peel(k + 1)
    return _finalize(h, k, "greedy_peel", state.survivors(), tuple(trace))


def band_peel(h: Hypergraph, k: int, probe: list | None = None) -> ExtractionResult:
    """Banded threshold peeling realizing the f(x) * n guarantee.

    One phase: with the alive remainder (n vertices, e edges) in band
    r >= 1 (that is, (s/2) r (k+1) < d <= (s/2)(r+1)(k+1)), remove up to
    T = ceil(t) vertices of current degree >= s(r+1)(k+1)/2, where
    t = (2e - n r (k+1)) / ((r+2)(k+1)); the remainder lands in a lower
    band and the next phase runs on it.  Band 0 is plain greedy peeling.
    All phases peel one `_PeelState`, so a phase costs O(n) plus its
    removals, and the trace is the phases concatenated in input ids.
    Band 0 and a phase that removes nothing end at one exit: greedy
    peeling of the same state at k+1 finishes the remainder, unless the
    phase stalled at k >= 1 and the largest class of a partition of the
    remainder (an induced copy, ids mapped back) is strictly larger.

    Greedy peeling of a remainder never beats this: a band threshold is
    at least k+1, so greedy on it removes the same victims as the phase
    (maximum degree, lowest id) and then goes on as greedy on the next
    remainder.  By induction over the phases its set is never larger.

    `probe`, when given, collects one diagnostics dict per phase for
    the verification harness.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    state = _PeelState(h)
    trace = []
    part = None
    while True:
        n, e = state.n_alive, state.e_alive
        # band: the least r >= 0 with d <= (s/2)(r+1)(k+1), that is, with
        # x = 2e/(n(k+1)) <= r+1
        r = max(0, -(-2 * e // (n * (k + 1))) - 1)
        if r == 0:
            break
        t_num, t_den = 2 * e - n * r * (k + 1), (r + 2) * (k + 1)
        cap = -(-t_num // t_den)
        # degree threshold s(r+1)(k+1)/2, rounded up: degrees are integers
        phase = state.peel(-(-h.s * (r + 1) * (k + 1) // 2), cap)
        trace += phase
        removed = len(phase)
        if probe is not None:
            rem_n, rem_e = state.n_alive, state.e_alive
            entry = {
                "n": n, "e": e, "k": k, "r": r, "x": Fraction(2 * e, n * (k + 1)),
                "t": Fraction(t_num, t_den), "cap": cap,
                "removed": removed, "early_stop": removed < cap,
                "remainder_n": rem_n, "remainder_e": rem_e,
                # average degree s rem_e / rem_n <= s r (k+1) / 2
                "remainder_d_ok": 2 * rem_e <= r * (k + 1) * rem_n
                if removed == cap and rem_n else None,
            }
            if removed < cap and k >= 1:
                entry["stop_classes_ok"] = -(-max(state.deg) // k) <= r + 1
            probe.append(entry)
        if removed == 0:
            # the threshold found no vertex at all: rather than peel an
            # unchanged remainder, finish it greedily, against a partition
            if k >= 1:
                survivors = state.survivors()
                rest = h.induced(survivors) if state.n_alive < h.n else h
                part = partition_extract(rest, k)
            break
    finish = state.peel(k + 1)
    vertices = state.survivors()
    if part is not None and part.size > len(vertices):
        vertices = tuple(survivors[v] for v in part.vertices)
        finish = [TraceStep(t.op, survivors[t.vertex], t.degree) for t in part.trace]
    trace += finish
    return _finalize(h, k, "band_peel", vertices, tuple(trace))


def k_partition(h: Hypergraph, k: int) -> Partition:
    """Partition V into ceil(delta/k) classes of induced max degree <= k.

    Local search from a round-robin start: while some vertex exceeds k
    inside its class, move the worst offender (maximum degree, lowest
    id) to the class where it would have the fewest fully-contained
    edges.  Each move strictly lowers the count of single-class edges,
    so at most e moves happen.

    Each vertex's degree inside its own class is kept across moves.  A
    move reads the classes of each edge through the mover once, with the
    mover's own class masked out: an edge whose other endpoints form one
    class t closes in t.  That groups the edges the mover would close in
    every class, its own included, in O(s * deg v); picking the target
    costs O(c), updating the degrees of the edges the mover leaves and
    closes O(s * deg v), and finding the next worst vertex O(n).  One
    from-scratch recount after convergence gives the class maxima and
    re-checks every class.
    """
    if k < 1:
        raise ValueError(f"partitioning requires k >= 1, got {k}")
    delta = h.max_degree
    c = max(1, -(-delta // k))
    edges, incidence = h.edges, h.incidence
    assign = [v % c for v in range(h.n)]
    class_of = assign.__getitem__
    moves = []
    hard_cap = 4 * h.e + 2 * h.n + 16

    def mono_degrees() -> list[int]:
        deg = [0] * h.n
        for edge in edges:
            if len(set(map(class_of, edge))) == 1:
                for u in edge:
                    deg[u] += 1
        return deg

    deg = mono_degrees()
    while (worst_deg := max(deg)) > k:
        worst = deg.index(worst_deg)
        if len(moves) >= hard_cap:
            raise ExtractionDefect("partition local search failed to converge")
        own = assign[worst]
        assign[worst] = -1  # below every class, so max() reads the others
        closing: dict[int, list[tuple[int, ...]]] = {}
        for i in incidence[worst]:
            edge = edges[i]
            classes = set(map(class_of, edge))
            if len(classes) == 2:
                closing.setdefault(max(classes), []).append(edge)
        options = [(len(closing.get(t, ())), t) for t in range(c) if t != own]
        best_gain, target = min(options, default=(worst_deg, -1))
        if best_gain >= worst_deg:
            # the other c-1 classes close at most delta - worst_deg
            # < (c-1)k of the worst vertex's edges, so one closes < k
            raise ExtractionDefect("partition local search found no improving move")
        moves.append(TraceStep("move", worst, worst_deg))
        for edge in closing.get(own, ()):
            for u in edge:
                deg[u] -= 1
        assign[worst] = target
        for edge in closing.get(target, ()):
            for u in edge:
                deg[u] += 1

    class_max = [0] * c
    for v, d in enumerate(mono_degrees()):
        class_max[assign[v]] = max(class_max[assign[v]], d)
    if max(class_max) > k:
        raise ExtractionDefect("partition converged with an invalid class")
    classes = tuple(tuple(v for v in range(h.n) if assign[v] == t) for t in range(c))
    return Partition(k, classes, tuple(class_max), tuple(moves))


def partition_extract(h: Hypergraph, k: int) -> ExtractionResult:
    """Largest class of k_partition; pigeonhole gives n/ceil(delta/k)."""
    part = k_partition(h, k)
    best = max(part.classes, key=len)
    return _finalize(h, k, "partition_extract", best, part.moves)


def _augment(h: Hypergraph, k: int, vertices: tuple[int, ...]) -> tuple[int, ...]:
    """Extend a k-independent set to a maximal one, trying every other
    vertex once in ascending id order.

    Keeps the induced degrees of the chosen set: a candidate v is
    admitted when it closes at most k edges and no endpoint of those
    edges rises above k.  As v itself is not chosen, an edge through v
    closes when s - 1 of its endpoints are, a count `sum` takes over
    `map` at C speed.  That costs O(s * deg v) per candidate and
    O(s * e) for the whole pass.
    """
    chosen = [False] * h.n
    deg = [0] * h.n
    for v, d in h.induced_degrees(vertices).items():
        chosen[v] = True
        deg[v] = d
    edges, is_chosen, others = h.edges, chosen.__getitem__, h.s - 1
    for v in range(h.n):
        if chosen[v]:
            continue
        closed = [edge for edge in map(edges.__getitem__, h.incidence[v])
                  if sum(map(is_chosen, edge)) == others]
        if len(closed) > k:
            continue
        for edge in closed:
            for u in edge:
                deg[u] += 1
        if all(deg[u] <= k for edge in closed for u in edge):
            chosen[v] = True
        else:
            for edge in closed:
                for u in edge:
                    deg[u] -= 1
    return tuple(compress(range(h.n), chosen))


def best_extract(h: Hypergraph, k: int) -> ExtractionResult:
    """Best of all engines, then augmented to a maximal set.

    Augmentation retries every excluded vertex in ascending id order
    and keeps those that preserve k-independence, so no single vertex
    can extend the returned set; see `_augment` for its O(s * e) cost.
    """
    return _best_of(h, k, _contenders(h, k))


def _contenders(h: Hypergraph, k: int) -> list[ExtractionResult]:
    """Greedy, band and (k >= 1) partition on (h, k), in the order
    `_best_of` breaks ties by."""
    contenders = [greedy_peel(h, k), band_peel(h, k)]
    if k >= 1:
        contenders.append(partition_extract(h, k))
    return contenders


def _best_of(h: Hypergraph, k: int, contenders: list[ExtractionResult]) -> ExtractionResult:
    """`best_extract` from the `_contenders(h, k)` a caller already holds:
    the first of the largest, augmented."""
    winner = max(contenders, key=lambda res: res.size)
    return _finalize(h, k, "best_extract", _augment(h, k, winner.vertices), winner.trace)
