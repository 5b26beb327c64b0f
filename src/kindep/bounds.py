"""Lower bounds on the k-independence number of a uniform hypergraph.

Every bound except the Euler-constant one is evaluated in exact rational
arithmetic: several of the comparison properties (monotonicity breakpoints,
"equality iff integer") live exactly at rational boundary points where
floating point cannot be trusted.  The Euler-constant bound is inherently
irrational and is evaluated in double precision.

Bound identifiers used throughout reports, CSV columns, and the verifier:

    max_degree         n / ceil(max_degree / k)           (k >= 1)
    edge_count         n - e / (k + 1)
    avg_degree         f(2e / (n(k+1))) * n
    avg_degree_simple  n^2 (k+1) / (n(k+1) + 2e)
    caro_tuza_alpha    sum over v of prod_{i<=deg(v)} (1 - 1/(i(s-1)+1))
    cps                e^(-gamma/(s-1)) * sum (deg+1)^(-1/(s-1))  (s >= 3)
    caro_tuza_k        degree-wise piecewise product at index k+1
    caro_tuza_k_diag   same formula at index k (diagnostic only)

The last four are sums over the degree histogram, count(d) * weight(d)
per distinct degree d, with the product weights read from one table;
a report builds one histogram and one table for all of them.

The exact values are computed in integer arithmetic: each bound is one
integer numerator over one integer denominator, and the only Fraction
built is the returned value, which normalises to the same numerator
and denominator as a step-by-step Fraction evaluation.  f(x) and g(x)
work on x's numerator and denominator, and the product table holds
integer numerators over one common denominator.

`caro_tuza_k_diag` probes an index-convention question and never
participates in `best_lower_bound` or soundness checking.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from kindep.hypergraph import Hypergraph

GAMMA = 0.57721566490153286

DIAGNOSTIC_BOUNDS = frozenset({"caro_tuza_k_diag"})


def eval_f(x: Fraction | int) -> Fraction:
    """f(x) = (1/(1+x)) * (1 + {x}(1-{x}) / ((floor(x)+1)(floor(x)+2))).

    With x = p/q and p = floor(x) q + r, this is
    (q B + r(q-r)) / (B(q+p)) where B = q (floor(x)+1)(floor(x)+2).
    """
    p, q = x.numerator, x.denominator
    if p < 0:
        raise ValueError(f"f is defined for x >= 0, got {x}")
    fl, r = divmod(p, q)
    b = q * (fl + 1) * (fl + 2)
    return Fraction(q * b + r * (q - r), b * (q + p))


def eval_g(x: Fraction | int) -> Fraction:
    """g(0) = 1; g(x) = (2*ceil(x) - x) / (ceil(x)(1+ceil(x))) for x > 0.

    Coincides with eval_f on all of x > 0; the closed form makes the
    per-band behavior of the peeling recursion easier to reason about.
    With x = p/q this is (2 ceil(x) q - p) / (q ceil(x)(ceil(x)+1)).
    """
    p, q = x.numerator, x.denominator
    if p < 0:
        raise ValueError(f"g is defined for x >= 0, got {x}")
    if p == 0:
        return Fraction(1)
    cl = -(-p // q)
    return Fraction(2 * cl * q - p, q * cl * (cl + 1))


@dataclass(frozen=True)
class BoundValue:
    """One evaluated bound: exact Fraction, float (cps only), or untaken."""

    name: str
    value: Fraction | float | None
    applicable: bool
    reason: str | None = None

    def __post_init__(self) -> None:
        assert self.applicable == (self.value is not None)

    def ceiled(self) -> int:
        if not self.applicable:
            raise ValueError(f"bound {self.name} is not applicable: {self.reason}")
        return math.ceil(self.value)

    def to_json_dict(self) -> dict:
        num = den = None
        if isinstance(self.value, Fraction):
            num, den = self.value.numerator, self.value.denominator
        return {
            "name": self.name,
            "num": num,
            "den": den,
            "float": None if self.value is None else float(self.value),
            "applicable": self.applicable,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class BoundReport:
    """Every bound evaluated on one (hypergraph, k) pair."""

    n: int
    e: int
    s: int
    k: int
    delta: int
    d: Fraction
    bounds: tuple[BoundValue, ...]
    best_lower_bound: int

    def bound(self, name: str) -> BoundValue:
        for b in self.bounds:
            if b.name == name:
                return b
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "e": self.e,
            "s": self.s,
            "k": self.k,
            "delta": self.delta,
            "d": {"num": self.d.numerator, "den": self.d.denominator},
            "bounds": [b.to_json_dict() for b in self.bounds],
            "best": self.best_lower_bound,
        }


def bound_max_degree(h: Hypergraph, k: int) -> BoundValue:
    """n / max(1, ceil(Delta/k)) via the partition route; needs k >= 1."""
    if k == 0:
        return BoundValue("max_degree", None, False, "k = 0 (bound divides by k)")
    classes = max(1, -(-h.max_degree // k))
    return BoundValue("max_degree", Fraction(h.n, classes), True)


def bound_edge_count(h: Hypergraph, k: int) -> BoundValue:
    """n - e/(k+1); may be nonpositive on dense instances, never clamped."""
    return BoundValue("edge_count", Fraction(h.n * (k + 1) - h.e, k + 1), True)


def bound_avg_degree(h: Hypergraph, k: int) -> BoundValue:
    """f(x) * n at x = 2d/(s(k+1)) = 2e/(n(k+1))."""
    x = Fraction(2 * h.e, h.n * (k + 1))
    return BoundValue("avg_degree", eval_f(x) * h.n, True)


def bound_avg_degree_simple(h: Hypergraph, k: int) -> BoundValue:
    """s(k+1)n / (s(k+1) + 2d) = n^2 (k+1) / (n(k+1) + 2e)."""
    value = Fraction(h.n * h.n * (k + 1), h.n * (k + 1) + 2 * h.e)
    return BoundValue("avg_degree_simple", value, True)


def _range_product(start: int, stop: int, step: int = 1) -> int:
    """prod(range(start, stop, step)), multiplied as a balanced tree: a
    running product over a long range costs time quadratic in its size."""
    count = len(range(start, stop, step))
    if count <= 32:
        return math.prod(range(start, stop, step))
    mid = start + count // 2 * step
    return _range_product(start, mid, step) * _range_product(mid, stop, step)


def _ordinary_products(s: int, indexes: set[int]) -> tuple[dict[int, int], int]:
    """P[i] = prod_{j=1..i} (1 - 1/(j(s-1)+1)) at each i in `indexes`, as
    integer numerators over the common denominator D = prod_{j=1..top}
    (j(s-1)+1), top = max(indexes).

    The numerator of P[i] is the prefix product of j(s-1) over j <= i
    times the suffix product of j(s-1)+1 over i < j <= top.  Only the
    requested entries are kept: the full table would hold top+1
    integers of O(top log top) bits each, quadratic in the maximum
    degree.
    """
    m = s - 1
    wanted = sorted(indexes)
    nums: dict[int, int] = {}
    prefix, last = 1, 0
    for i in wanted:
        prefix *= m ** (i - last) * _range_product(last + 1, i + 1)
        nums[i], last = prefix, i
    suffix = 1
    for i in reversed(wanted):
        suffix *= _range_product((i + 1) * m + 1, last * m + 2, m)
        nums[i] *= suffix
        last = i
    return nums, suffix * _range_product(m + 1, last * m + 2, m)


# (degree histogram, product numerators by index, their common denominator)
_Table = tuple[Counter, dict[int, int], int]


def _degree_table(h: Hypergraph, kcs: tuple[int, ...]) -> _Table:
    """The degree histogram of h, with P[d - kc + 1] for every degree d
    and index kc in `kcs` (and P[1]) over one common denominator.

    `caro_tuza_k` at index kc reads these entries; `caro_tuza_alpha`
    is `caro_tuza_k` at kc = 1.
    """
    hist = Counter(h.degrees)
    wanted = {1}
    for kc in kcs:
        wanted.update(d - kc + 1 for d in hist if d >= kc - 1)
    return (hist, *_ordinary_products(h.s, wanted))


def _caro_tuza_k(s: int, kc: int, table: _Table, name: str) -> BoundValue:
    hist, nums, den = table
    # both branches give 1 - 1/s at d = kc: (kc s - kc)/(kc s) = P[1] = (s-1)/s
    assert (kc * s - kc) * den == kc * s * nums[1] == kc * (s - 1) * den
    low = sum(count * (kc * s - d) for d, count in hist.items() if d <= kc)
    high = sum(count * nums[d - kc + 1] for d, count in hist.items() if d > kc)
    return BoundValue(name, Fraction(low * den + kc * s * high, kc * s * den), True)


def bound_caro_tuza_alpha(h: Hypergraph) -> BoundValue:
    """Degree-sequence product bound for plain independence (k = 0)."""
    return _caro_tuza_k(h.s, 1, _degree_table(h, (1,)), "caro_tuza_alpha")


def bound_caro_tuza_k(h: Hypergraph, kc: int) -> BoundValue:
    """Sum of the piecewise weights over the degree sequence; kc >= 1
    is the bound's own index (one more than this package's k).

    A vertex of degree d weighs 1 - d/(kc s) up to d = kc and P[d-kc+1]
    beyond.  Both branches give 1 - 1/s at d = kc; the crossover is
    evaluated on both sides and asserted rather than trusted.  The sum
    is one integer numerator over kc s D, D the products' denominator.
    """
    if kc < 1:
        raise ValueError(f"index must be >= 1, got {kc}")
    return _caro_tuza_k(h.s, kc, _degree_table(h, (kc,)), "caro_tuza_k")


def cps_per_vertex(h: Hypergraph) -> float:
    """Per-vertex value of the Euler-constant bound, bitwise identical
    across replications of the same hypergraph.

    The sum is grouped by distinct degree with exact rational vertex
    fractions as weights, so replicate(h, c) walks the identical float
    computation (counts scale by c, weights count/n do not move).
    """
    if h.s < 3:
        raise ValueError("bound requires s >= 3")
    return _cps_per_vertex(h, Counter(h.degrees))


def _cps_per_vertex(h: Hypergraph, hist: Counter) -> float:
    factor = math.exp(-GAMMA / (h.s - 1))
    terms = [
        float(Fraction(count, h.n)) * (d + 1) ** (-1.0 / (h.s - 1))
        for d, count in sorted(hist.items())
    ]
    return factor * math.fsum(terms)


def bound_cps(h: Hypergraph) -> BoundValue:
    """e^(-gamma/(s-1)) * sum over v of (deg(v)+1)^(-1/(s-1)); s >= 3 only."""
    return _bound_cps(h, Counter(h.degrees))


def _bound_cps(h: Hypergraph, hist: Counter) -> BoundValue:
    if h.s < 3:
        return BoundValue("cps", None, False, "s = 2 (bound requires s >= 3)")
    return BoundValue("cps", _cps_per_vertex(h, hist) * h.n, True)


def bound_report(h: Hypergraph, k: int) -> BoundReport:
    """Evaluate every bound for (h, k) and take the best integer floor.

    best_lower_bound is the max of ceil(value) over applicable bounds,
    excluding the diagnostic index variant (see module docstring).  The
    degree-sequence bounds share one histogram and one product table.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    bounds = [
        bound_max_degree(h, k),
        bound_edge_count(h, k),
        bound_avg_degree(h, k),
        bound_avg_degree_simple(h, k),
    ]
    table = _degree_table(h, (k + 1, k) if k else (1,))
    if k == 0:
        bounds.append(_caro_tuza_k(h.s, 1, table, "caro_tuza_alpha"))
        bounds.append(_bound_cps(h, table[0]))
    bounds.append(_caro_tuza_k(h.s, k + 1, table, "caro_tuza_k"))
    if k >= 1:
        bounds.append(_caro_tuza_k(h.s, k, table, "caro_tuza_k_diag"))
    else:
        bounds.append(
            BoundValue("caro_tuza_k_diag", None, False, "index 0 is outside the bound")
        )
    best = max(
        b.ceiled()
        for b in bounds
        if b.applicable and b.name not in DIAGNOSTIC_BOUNDS
    )
    return BoundReport(
        n=h.n,
        e=h.e,
        s=h.s,
        k=k,
        delta=h.max_degree,
        d=h.avg_degree,
        bounds=tuple(bounds),
        best_lower_bound=best,
    )
