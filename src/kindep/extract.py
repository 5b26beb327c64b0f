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

All reported vertex ids refer to the caller's hypergraph even where the
recursion internally relabels subinstances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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

    Tracks alive vertices, alive edges (all endpoints alive), and the
    induced degree of every alive vertex, so one deletion costs only
    the edges it kills: O(s * deg v).

    `peel` picks each victim from a lazy max-degree heap of int keys
    v - deg * n, so the smallest key is the highest degree with ties to
    the lowest id.  Deletions only lower degrees, so a stale key
    overstates its vertex and surfaces at the top, where it is re-keyed
    (or dropped once below the threshold, which it can never regain).
    Each re-key pays for an earlier degree decrement, so a peel costs
    O((n + s * e) log n) in all and its heap is freed when it returns.
    A state is peeled once.
    """

    def __init__(self, h: Hypergraph) -> None:
        self.h = h
        self.alive = [True] * h.n
        self.edge_alive = [True] * h.e
        self.deg = list(h.degrees)

    def peel(self, threshold: int, cap: int | None = None) -> list[TraceStep]:
        """Remove the alive vertex of maximum induced degree (ties to
        lowest id) while that degree is >= threshold, at most cap times."""
        h = self.h
        n, edges, incidence = h.n, h.edges, h.incidence
        deg, alive, edge_alive = self.deg, self.alive, self.edge_alive
        heap = [v - d * n for v, d in enumerate(deg) if d >= threshold]
        heapify(heap)
        trace = []
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
                for i in incidence[v]:
                    if edge_alive[i]:
                        edge_alive[i] = False
                        for u in edges[i]:
                            if u != v:
                                deg[u] -= 1
        return trace

    def survivors(self) -> tuple[int, ...]:
        return tuple(compress(range(self.h.n), self.alive))


def greedy_peel(h: Hypergraph, k: int, threshold: int | None = None) -> ExtractionResult:
    """Peel vertices of current degree >= threshold until none remain.

    The default threshold k+1 makes every survivor's induced degree at
    most k, and each removal kills at least k+1 edges, so the survivor
    count is at least n - e/(k+1).
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    theta = k + 1 if threshold is None else threshold
    if theta < 1:
        raise ValueError(f"threshold must be >= 1, got {theta}")
    state = _PeelState(h)
    trace = state.peel(theta)
    return _finalize(h, k, "greedy_peel", state.survivors(), tuple(trace))


def band_peel(h: Hypergraph, k: int, probe: list | None = None) -> ExtractionResult:
    """Banded threshold peeling realizing the f(x) * n guarantee.

    One phase: with the instance in band r >= 1 (that is,
    (s/2) r (k+1) < d <= (s/2)(r+1)(k+1)), remove up to T = ceil(t)
    vertices of current degree >= s(r+1)(k+1)/2, where
    t = (2e - n r (k+1)) / ((r+2)(k+1)); the remainder lands in a lower
    band and is handled recursively.  Band 0 is plain greedy peeling.
    Each level also runs greedy_peel on its own instance and returns
    whichever set is larger (ties favor the banded recursion).

    `probe`, when given, collects one diagnostics dict per phase for
    the verification harness.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    # band: the least r >= 0 with d <= (s/2)(r+1)(k+1), that is, with
    # x = 2e/(n(k+1)) <= r+1
    r = max(0, -(-2 * h.e // (h.n * (k + 1))) - 1)
    if r == 0:
        inner = greedy_peel(h, k)
        return replace(inner, algorithm="band_peel")

    t_num, t_den = 2 * h.e - h.n * r * (k + 1), (r + 2) * (k + 1)
    cap = -(-t_num // t_den)
    state = _PeelState(h)
    # degree threshold s(r+1)(k+1)/2, rounded up: degrees are integers
    trace = state.peel(-(-h.s * (r + 1) * (k + 1) // 2), cap)

    removed = len(trace)
    if probe is not None:
        survivors = state.survivors()
        rem_e = sum(state.edge_alive)
        rem_n = len(survivors)
        entry = {
            "n": h.n, "e": h.e, "k": k, "r": r, "x": Fraction(2 * h.e, h.n * (k + 1)),
            "t": Fraction(t_num, t_den), "cap": cap,
            "removed": removed, "early_stop": removed < cap,
            "remainder_n": rem_n, "remainder_e": rem_e,
            "remainder_d_ok": Fraction(h.s * rem_e, rem_n) <= Fraction(h.s * r * (k + 1), 2)
            if removed == cap and rem_n else None,
        }
        if removed < cap and k >= 1:
            rem_delta = max((state.deg[v] for v in survivors), default=0)
            entry["stop_classes_ok"] = -(-rem_delta // k) <= r + 1
        probe.append(entry)

    if removed == 0:
        # threshold found no vertex at all: fall back to the best of the
        # other engines rather than recursing on an unchanged instance
        contenders = [greedy_peel(h, k)]
        if k >= 1:
            contenders.append(partition_extract(h, k))
        winner = max(contenders, key=lambda res: res.size)
        return replace(winner, algorithm="band_peel")

    survivors = state.survivors()
    del state  # keep one level's peel state alive at a time
    remainder = h.induced(survivors)
    rec = band_peel(remainder, k, probe)
    rec_vertices = tuple(survivors[i] for i in rec.vertices)
    rec_trace = tuple(trace) + tuple(
        TraceStep(step.op, survivors[step.vertex], step.degree) for step in rec.trace
    )
    plain = greedy_peel(h, k)
    if plain.size > len(rec_vertices):
        return replace(plain, algorithm="band_peel")
    return _finalize(h, k, "band_peel", rec_vertices, rec_trace)


def k_partition(h: Hypergraph, k: int) -> Partition:
    """Partition V into ceil(delta/k) classes of induced max degree <= k.

    Local search from a round-robin start: while some vertex exceeds k
    inside its class, move the worst offender to the class where it
    would have the fewest fully-contained edges.  Each move strictly
    lowers the count of single-class edges, so at most e moves happen.
    """
    if k < 1:
        raise ValueError(f"partitioning requires k >= 1, got {k}")
    delta = h.max_degree
    c = max(1, -(-delta // k))
    assign = [v % c for v in range(h.n)]
    moves = []
    hard_cap = 4 * h.e + 2 * h.n + 16

    def mono_degrees() -> list[int]:
        deg = [0] * h.n
        for edge in h.edges:
            t = assign[edge[0]]
            if all(assign[u] == t for u in edge[1:]):
                for u in edge:
                    deg[u] += 1
        return deg

    def prospective(v: int, t: int) -> int:
        return sum(
            1
            for i in h.incidence[v]
            if all(assign[u] == t for u in h.edges[i] if u != v)
        )

    while True:
        deg = mono_degrees()
        worst, worst_deg = -1, k
        for v in range(h.n):
            if deg[v] > worst_deg:
                worst, worst_deg = v, deg[v]
        if worst < 0:
            break
        if len(moves) >= hard_cap:
            raise ExtractionDefect("partition local search failed to converge")
        options = [
            (prospective(worst, t), t)
            for t in range(c)
            if t != assign[worst]
        ]
        best_gain, target = min(options, default=(worst_deg, -1))
        if best_gain >= worst_deg:
            # the other c-1 classes close at most delta - worst_deg
            # < (c-1)k of the worst vertex's edges, so one closes < k
            raise ExtractionDefect("partition local search found no improving move")
        moves.append(TraceStep("move", worst, worst_deg))
        assign[worst] = target

    classes = tuple(
        tuple(v for v in range(h.n) if assign[v] == t) for t in range(c)
    )
    class_max = []
    for cls in classes:
        if cls:
            induced = h.induced_degrees(cls)
            worst_in_cls = max(induced.values(), default=0)
        else:
            worst_in_cls = 0
        if worst_in_cls > k:
            raise ExtractionDefect("partition converged with an invalid class")
        class_max.append(worst_in_cls)
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
    edges rises above k.  That costs O(s * deg v) per candidate and
    O(s * e) for the whole pass.
    """
    chosen = [False] * h.n
    deg = [0] * h.n
    for v, d in h.induced_degrees(vertices).items():
        chosen[v] = True
        deg[v] = d
    edges = h.edges
    for v in range(h.n):
        if chosen[v]:
            continue
        closed = []
        for i in h.incidence[v]:
            edge = edges[i]
            if all(chosen[u] for u in edge if u != v):
                closed.append(edge)
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
    contenders = [greedy_peel(h, k), band_peel(h, k)]
    if k >= 1:
        contenders.append(partition_extract(h, k))
    winner = max(contenders, key=lambda res: res.size)
    return _finalize(h, k, "best_extract", _augment(h, k, winner.vertices), winner.trace)
