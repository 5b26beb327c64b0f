"""Exact oracles for the k-independence and k-chromatic numbers.

Ground truth by exhaustive search.  Vertex sets are Python-int
bitmasks, so n has no fixed cap (cost is what limits it), and edge
containment is a mask-subset test, so the searches stay cheap enough to
run over whole corpora.  Both searches update degrees incrementally
from per-vertex edge lists instead of recounting O(e + n) per node, and
both keep their path on an explicit stack, so depth is not bounded by
the interpreter's recursion limit.  The alpha search packs every
induced degree into one int, so an alpha node costs one mask test per
edge through its dropped vertex and one big-int subtraction per live
one, one subtraction and mask per degree level it tries for its
violator, and O(1) to snapshot or restore the degrees; children cut on
entry still count in `nodes` but cost O(1) as a group.  The alpha root
has no incumbent: the first descent is the greedy peel.  On a graph
(s = 2) a chi node costs three mask operations per class tried and
O(k) for the class it accepts; for s >= 3 it costs O(s * deg v) per
class tried, and keeps one degree per vertex, inside its own class.
The node count is part of every result, so the search tree itself is
fixed output: a pruning rule that cuts it changes the printed bytes.

Every search follows one node-budget contract: it counts each node it
enters, the root included, and stops at the first node past the budget,
and `nodes` reports that count.  The chi oracle carries one count
through its deepening rounds.  An overrun is an explicit
"budget_exceeded" result; the oracle never returns an approximation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from kindep.hypergraph import Hypergraph


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one exact computation.

    status is "exact" (value and witness are trustworthy ground truth)
    or "budget_exceeded" (value and witness are None).  The witness is
    a vertex tuple for alpha queries and a tuple of classes for chi.
    """

    quantity: str
    k: int
    value: int | None
    status: str
    witness: tuple | None
    nodes: int
    elapsed: float

    def to_json_dict(self) -> dict:
        witness: object = None
        if self.witness is not None:
            if self.quantity == "alpha_k":
                witness = [v + 1 for v in self.witness]
            else:
                witness = [[v + 1 for v in cls] for cls in self.witness]
        return {
            "quantity": self.quantity,
            "k": self.k,
            "value": self.value,
            "status": self.status,
            "witness": witness,
            "nodes": self.nodes,
        }


def _mask_to_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _undo(deg: list[int], edges: list[tuple[int, ...]]) -> None:
    """Decrement the degree of every endpoint of every edge."""
    for edge in edges:
        for w in edge:
            deg[w] -= 1


def alpha_k_exact(h: Hypergraph, k: int, node_budget: int | None = None) -> OracleResult:
    """Maximum size of a k-independent set, by branch and bound.

    Search state is (candidate mask, required mask).  At an invalid
    node some vertex of the violator's witness union must leave the
    candidate set; branching over those exclusions, each branch
    requiring the previously tried vertices to stay, partitions the
    space.  Nodes with no more candidates than the incumbent are cut.
    Masks are Python ints, so n has no cap.

    The induced degrees in the current candidate mask (0 outside it)
    live in one int, `packed`: vertex v's field is bits [v*b, (v+1)*b)
    with b = max_degree.bit_length() + 1, and holds deg(v) plus a guard
    bit at its top.  Subtracting t from every field borrows from no
    field, so the guard bits left set mark the vertices of degree >= t.
    The violator search tries t from the parent's maximum degree down
    (dropping a vertex only lowers degrees) and stops at the first t
    with a mark; the lowest mark is the worst violator: highest degree,
    then lowest id.  A child drops its vertex u through u's list of
    (edge mask, one unit at every endpoint): each edge still inside the
    parent's mask takes one from each of its endpoints' fields, so u's
    own field falls to 0 with the rest.  Snapshot and restore are int
    assignments.  So an entered node costs one mask test per edge
    through u and one big-int subtraction per live one, one subtraction
    and mask per degree level tried, and a walk of the violator's drop
    list for its witness union.  A child is cut on entry when
    size - 1 <= best, and since best only grows, all of a node's
    remaining children are then cut: they are counted in `nodes` by one
    popcount, O(1) for the group, without being entered.

    The path from the root is an explicit stack of branching frames
    (candidate mask, size, saved degrees, pending children, required
    mask, current child, maximum degree), so a deep search is bounded
    by memory, not by the interpreter's recursion limit.  The root has
    no incumbent: a node enters its worst violator's child first, so the
    first descent is the greedy peel, and no extractor code runs.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be nonnegative, got {node_budget}")
    start = time.perf_counter()
    best, best_mask, spent = _alpha_search(h, k, node_budget)
    if node_budget is not None and spent > node_budget:
        # the count stops at the first node past the budget
        return OracleResult("alpha_k", k, None, "budget_exceeded", None,
                            node_budget + 1, time.perf_counter() - start)
    return OracleResult("alpha_k", k, best, "exact", _mask_to_vertices(best_mask),
                        spent, time.perf_counter() - start)


def _alpha_search(h: Hypergraph, k: int, limit: int | None) -> tuple[int, int, int]:
    """`alpha_k_exact` from its root, where there is no incumbent and
    the first descent is the greedy peel: returns the final incumbent
    and the node count, root included.  The count is checked against
    `limit` only as a child is entered, so an overrun stops with a count
    past `limit` no later than its next entered node.  The innermost
    frame lives in local variables, its ancestors on `stack`.
    """
    n = h.n
    top = max(h.degrees)
    # field v of `packed` is bits [v*width, (v+1)*width) and holds
    # guard + deg(v), the guard being its top bit, 1 << width - 1
    width = top.bit_length() + 1
    unit = [1 << v * width for v in range(n)]
    # per vertex, in edge order: (edge mask, one unit at every endpoint)
    drops: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for emask, edge in zip(h.edge_masks, h.edges):
        edec = sum(map(unit.__getitem__, edge))
        for v in edge:
            drops[v].append((emask, edec))
    ones = sum(unit)
    guards = ones << width - 1
    # floor[t] & guards == 0, and packed - floor[t] keeps field v's guard
    # iff deg(v) >= t: no field borrows, since t <= top < guard
    floor = [t * ones for t in range(top + 1)]
    packed = guards + sum(d * unit[v] for v, d in enumerate(h.degrees))
    best = best_mask = 0
    spent = 1  # the root
    stack: list[tuple[int, int, int, int, int, int, int]] = []
    # innermost frame; these zeros stand for "no frame", and the search
    # ends when it would resume them.  ftop is the frame's maximum
    # degree, an upper bound for each child's (the root's own here)
    fmask = fsize = saved = pending = req = bit = 0
    ftop = top
    smask, size, required = (1 << n) - 1, n, 0
    while True:
        # entered: size > best and packed holds smask's degrees
        top = ftop
        while top > k:
            over = (packed - floor[top]) & guards
            if over:
                break
            top -= 1
        if top <= k:
            best, best_mask = size, smask
            todo = 0
        else:
            # the worst violator: highest degree, then lowest id
            v = (over & -over).bit_length() // width - 1
            # witness union: v plus its first k+1 edges inside smask
            union = 1 << v
            found = 0
            for emask, _ in drops[v]:
                if emask & smask == emask:
                    union |= emask
                    found += 1
                    if found > k:
                        break
            # children in branch order: v, then ascending ids
            todo = union & ~required
            if size - 1 <= best:
                spent += todo.bit_count()
                todo = 0
        if todo:
            stack.append((fmask, fsize, saved, pending, req, bit, ftop))
            fmask, fsize, saved, pending, req, ftop = smask, size, packed, todo, required, top
            bit = todo & 1 << v or todo & -todo
        else:
            # back up to the innermost frame with a child left to enter
            while True:
                pending ^= bit
                if pending:
                    if fsize - 1 > best:
                        packed = saved
                        req |= bit
                        bit = pending & -pending
                        break
                    # best only grows: every pending child is cut
                    spent += pending.bit_count()
                if not stack:
                    return best, best_mask, spent
                fmask, fsize, saved, pending, req, bit, ftop = stack.pop()
        spent += 1
        if limit is not None and spent > limit:
            return best, best_mask, spent
        # each live edge of the child's vertex takes one from each of its
        # endpoints, so that vertex's own field falls to 0
        for emask, edec in drops[bit.bit_length() - 1]:
            if emask & fmask == emask:
                packed -= edec
        smask, size, required = fmask ^ bit, fsize - 1, req


def alpha_k_bruteforce(h: Hypergraph, k: int) -> int:
    """Plain exhaustive sweep; reference for the pruned search.

    Tries the subsets by size from n down, the masks of one size in
    increasing order (Gosper's next-combination step), and returns the
    size of the first k-independent one.  Each candidate is checked by
    counting its induced degrees from scratch; nothing is pruned and
    nothing is shared with `alpha_k_exact`.
    """
    if h.n > 20:
        raise ValueError("bruteforce reference is for small n only")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    n = h.n
    masks = h.edge_masks
    edges = h.edges
    for size in range(n, 0, -1):
        smask = (1 << size) - 1
        while smask >> n == 0:
            deg = [0] * n
            ok = True
            for emask, edge in zip(masks, edges):
                if emask & smask == emask:
                    for v in edge:
                        deg[v] += 1
                        if deg[v] > k:
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                return size
            low = smask & -smask
            ripple = smask + low
            smask = ((ripple ^ smask) >> 2) // low | ripple
    return 0


def _partition_search(by_last: list[list[tuple[int, tuple[int, ...]]]], k: int,
                      classes: int, spent: int,
                      limit: int | None) -> tuple[list[int] | None, int]:
    """Backtracking assignment of vertices (in id order) to `classes`
    classes, each keeping induced max degree <= k; returns the class
    membership masks (None if there are none, or at the first node
    entered past `limit`) and `spent` plus the nodes entered here, root
    included.  Symmetry is broken by allowing a vertex only the used
    classes plus one fresh one.

    An edge is charged to its last vertex: `by_last[v]` holds (rest
    mask, edge) for each edge ending at v, and the edge closes in class
    t when its rest is already in t, a mask-subset test against
    `members[t]`.  All endpoints of a closed edge are then in t, so one
    list `deg` serves every class: the degree of each assigned vertex
    inside its own class, and of v inside the class it tries.  A node
    costs O(s * deg v) per class tried: the closed edges are charged,
    and uncharged again when the class fails.  The search keeps an
    explicit stack, one entry per assigned vertex, so its depth is not
    bounded by the interpreter's recursion limit.
    """
    n = len(by_last)
    members = [0] * classes
    deg = [0] * n
    # per assigned vertex: (its class, classes used before it, edges it closed)
    stack: list[tuple[int, int, list[tuple[int, ...]]]] = []
    v, used, t = 0, 0, 0
    spent += 1  # the root
    if limit is not None and spent > limit:
        return None, spent
    while True:
        avail = min(used + 1, classes)
        while t < avail:
            m = members[t]
            done = []
            over = False
            for rest, edge in by_last[v]:
                if rest & m == rest:
                    done.append(edge)
                    for u in edge:
                        deg[u] += 1
                        if deg[u] > k:
                            over = True
            if not over:
                break
            _undo(deg, done)
            t += 1
        if t < avail:
            stack.append((t, used, done))
            members[t] |= 1 << v
            if t == used:
                used += 1
            v += 1
            if v == n:
                return members, spent
            spent += 1
            if limit is not None and spent > limit:
                return None, spent
            t = 0
        elif stack:
            v -= 1
            t, used, done = stack.pop()
            members[t] &= ~(1 << v)
            _undo(deg, done)
            t += 1
        else:
            return None, spent


def _graph_partition_search(lower: list[int], k: int, classes: int, spent: int,
                            limit: int | None) -> tuple[list[int] | None, int]:
    """`_partition_search` on a graph, whose edges ending at v have the
    rests `lower[v]`, the mask of v's lower-id neighbours.

    The edges v closes in class t are `lower[v] & members[t]`, and v's
    degree inside t is their count.  `full` holds the assigned vertices
    whose degree inside their own class is already k; classes are
    disjoint, so class t fails exactly when v would close more than k
    edges or close one at a vertex of `full`.  A rejected class costs
    three mask operations and changes nothing; degrees and `full` move
    only when a class is accepted and when the stack pops, O(k) each.
    Same tree, node count and result as the per-edge loop.
    """
    n = len(lower)
    members = [0] * classes
    deg = [0] * n  # degree of each assigned vertex inside its own class
    full = 0
    # per assigned vertex: (its class, classes used before it, closed mask)
    stack: list[tuple[int, int, int]] = []
    v, used, t = 0, 0, 0
    spent += 1  # the root
    if limit is not None and spent > limit:
        return None, spent
    while True:
        avail = min(used + 1, classes)
        low = lower[v]
        while t < avail:
            closed = low & members[t]
            if not closed & full and closed.bit_count() <= k:
                break
            t += 1
        if t < avail:
            stack.append((t, used, closed))
            bit = 1 << v
            members[t] |= bit
            deg[v] = closed.bit_count()
            if deg[v] == k:
                full |= bit
            while closed:
                bit = closed & -closed
                u = bit.bit_length() - 1
                deg[u] += 1
                if deg[u] == k:
                    full |= bit
                closed ^= bit
            if t == used:
                used += 1
            v += 1
            if v == n:
                return members, spent
            spent += 1
            if limit is not None and spent > limit:
                return None, spent
            t = 0
        elif stack:
            v -= 1
            t, used, closed = stack.pop()
            members[t] &= ~(1 << v)
            # every closed vertex drops below k, and v leaves its class
            full &= ~(closed | 1 << v)
            while closed:
                bit = closed & -closed
                deg[bit.bit_length() - 1] -= 1
                closed ^= bit
            t += 1
        else:
            return None, spent


def chi_k_exact(h: Hypergraph, k: int, node_budget: int | None = None) -> OracleResult:
    """Minimum class count of a partition with induced max degree <= k
    per class, by iterative deepening over the class count.

    n singleton classes are always valid (s >= 2), so deepening from 1
    terminates without leaning on any bound under test.  The rounds
    share one count of entered nodes, reported as `nodes`, which stops
    the search at the first node past `node_budget`, and the table of
    charged edges that `_graph_partition_search` (s = 2) or
    `_partition_search` (s >= 3) reads.
    """
    if k < 1:
        raise ValueError(f"the partition oracle needs k >= 1, got {k}")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be nonnegative, got {node_budget}")
    start = time.perf_counter()
    if h.s == 2:
        lower = [0] * h.n
        for u, v in h.edges:
            lower[v] |= 1 << u
        search, table = _graph_partition_search, lower
    else:
        by_last: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(h.n)]
        for emask, edge in zip(h.edge_masks, h.edges):
            last = edge[-1]
            by_last[last].append((emask & ~(1 << last), edge))
        search, table = _partition_search, by_last
    spent = 0
    for classes in range(1, h.n + 1):
        members, spent = search(table, k, classes, spent, node_budget)
        if node_budget is not None and spent > node_budget:
            return OracleResult("chi_k", k, None, "budget_exceeded", None,
                                spent, time.perf_counter() - start)
        if members is not None:
            witness = tuple(_mask_to_vertices(m) for m in members if m)
            return OracleResult("chi_k", k, classes, "exact", witness,
                                spent, time.perf_counter() - start)
    raise AssertionError("singleton partition must have succeeded")
