"""
Constructing large k-independent sets
=====================================

The three extraction engines, their audit traces, and the guarantee
each one carries.  Every returned set is re-verified against the input
before the caller sees it.
"""

import math
from fractions import Fraction

from kindep import (
    band_peel,
    best_extract,
    bound_report,
    eval_f,
    gen_random_uniform,
    greedy_peel,
    k_partition,
    partition_extract,
)

h = gen_random_uniform(14, 35, 3, 11)
k = 1
print(f"instance: n={h.n} m={h.e} s={h.s}, extracting at k={k}")

# Greedy peeling removes the current worst vertex while any vertex has
# degree >= k+1.  Each removal kills at least k+1 edges, so at least
# n - e/(k+1) vertices survive.
g = greedy_peel(h, k)
print(f"\ngreedy_peel: size {g.size}, guarantee n-e/(k+1) = {h.n - Fraction(h.e, k + 1)}")
print(f"  first steps: {[(t.vertex, t.degree) for t in g.trace[:5]]}")

# Band peeling sharpens the threshold band by band and achieves
# ceil(f(x) * n) at x = 2e/(n(k+1)), which never loses to the greedy
# guarantee and wins strictly off the integers.
b = band_peel(h, k)
x = Fraction(2 * h.e, h.n * (k + 1))
target = math.ceil(eval_f(x) * h.n)
print(f"\nband_peel: size {b.size}, guarantee ceil(f({x})*n) = {target}")

# Partitioning splits V into ceil(delta/k) classes, each inducing max
# degree <= k, by local search; the move count is bounded by e because
# every move strictly reduces the number of single-class edges.
part = k_partition(h, k)
print(f"\nk_partition: {len(part.classes)} classes "
      f"(= ceil({h.max_degree}/{k})), {len(part.moves)} moves")
print(f"  class sizes: {sorted(len(c) for c in part.classes)}")

# Its largest class is k-independent and pigeonhole-sized.
p = partition_extract(h, k)
classes = max(1, -(-h.max_degree // k))
print(f"partition_extract: size {p.size} >= ceil(n/{classes}) = {-(-h.n // classes)}")

# best_extract runs all engines and then augments the winner until no
# single vertex can be added, so the answer is always maximal.
best = best_extract(h, k)
report = bound_report(h, k)
print(f"\nbest_extract: size {best.size} "
      f"(best lower bound was {report.best_lower_bound})")
print(f"  certified max induced degree: {best.certified_max_degree} <= {k}")

chosen = set(best.vertices)
blocked = sum(
    not h.is_k_independent(sorted(chosen | {v}), k)
    for v in range(h.n) if v not in chosen
)
print(f"  maximality: all {blocked} excluded vertices are blocked")
