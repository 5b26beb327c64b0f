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
per distinct degree d, with the product weights read from one table.

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
    """f(x) = (1/(1+x)) * (1 + {x}(1-{x}) / ((floor(x)+1)(floor(x)+2)))."""
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"f is defined for x >= 0, got {x}")
    fl = math.floor(x)
    fpart = x - fl
    return (1 + Fraction(fpart * (1 - fpart), (fl + 1) * (fl + 2))) / (1 + x)


def eval_g(x: Fraction | int) -> Fraction:
    """g(0) = 1; g(x) = (2*ceil(x) - x) / (ceil(x)(1+ceil(x))) for x > 0.

    Coincides with eval_f on all of x > 0; the closed form makes the
    per-band behavior of the peeling recursion easier to reason about.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"g is defined for x >= 0, got {x}")
    if x == 0:
        return Fraction(1)
    cl = math.ceil(x)
    return (2 * cl - x) / Fraction(cl * (cl + 1))


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
    return BoundValue("edge_count", h.n - Fraction(h.e, k + 1), True)


def bound_avg_degree(h: Hypergraph, k: int) -> BoundValue:
    """f(x) * n at x = 2d/(s(k+1)) = 2e/(n(k+1))."""
    x = Fraction(2 * h.e, h.n * (k + 1))
    return BoundValue("avg_degree", eval_f(x) * h.n, True)


def bound_avg_degree_simple(h: Hypergraph, k: int) -> BoundValue:
    """s(k+1)n / (s(k+1) + 2d) = n^2 (k+1) / (n(k+1) + 2e)."""
    value = Fraction(h.n * h.n * (k + 1), h.n * (k + 1) + 2 * h.e)
    return BoundValue("avg_degree_simple", value, True)


def _ordinary_products(s: int, top: int) -> list[Fraction]:
    """P[i] = prod_{j=1..i} (1 - 1/(j(s-1)+1)), with P[0] = 1."""
    out = [Fraction(1)]
    for j in range(1, top + 1):
        q = j * (s - 1) + 1
        out.append(out[-1] * Fraction(q - 1, q))
    return out


def bound_caro_tuza_alpha(h: Hypergraph) -> BoundValue:
    """Degree-sequence product bound for plain independence (k = 0)."""
    hist = Counter(h.degrees)
    prods = _ordinary_products(h.s, max(hist))
    total = sum(count * prods[d] for d, count in hist.items())
    return BoundValue("caro_tuza_alpha", total, True)


def bound_caro_tuza_k(h: Hypergraph, kc: int, name: str = "caro_tuza_k") -> BoundValue:
    """Sum of the piecewise weights over the degree sequence; kc >= 1
    is the bound's own index (one more than this package's k).

    A vertex of degree d weighs 1 - d/(kc s) up to d = kc and P[d-kc+1]
    beyond.  Both branches give 1 - 1/s at d = kc; the crossover is
    evaluated on both sides and asserted rather than trusted.
    """
    if kc < 1:
        raise ValueError(f"index must be >= 1, got {kc}")
    s = h.s
    hist = Counter(h.degrees)
    prods = _ordinary_products(s, max(1, max(hist) - kc + 1))
    assert 1 - Fraction(kc, kc * s) == prods[1] == 1 - Fraction(1, s)
    total = sum(
        count * (1 - Fraction(d, kc * s) if d <= kc else prods[d - kc + 1])
        for d, count in hist.items()
    )
    return BoundValue(name, total, True)


def cps_per_vertex(h: Hypergraph) -> float:
    """Per-vertex value of the Euler-constant bound, bitwise identical
    across replications of the same hypergraph.

    The sum is grouped by distinct degree with exact rational vertex
    fractions as weights, so replicate(h, c) walks the identical float
    computation (counts scale by c, weights count/n do not move).
    """
    if h.s < 3:
        raise ValueError("bound requires s >= 3")
    factor = math.exp(-GAMMA / (h.s - 1))
    hist = Counter(h.degrees)
    terms = [
        float(Fraction(count, h.n)) * (d + 1) ** (-1.0 / (h.s - 1))
        for d, count in sorted(hist.items())
    ]
    return factor * math.fsum(terms)


def bound_cps(h: Hypergraph) -> BoundValue:
    """e^(-gamma/(s-1)) * sum over v of (deg(v)+1)^(-1/(s-1)); s >= 3 only."""
    if h.s < 3:
        return BoundValue("cps", None, False, "s = 2 (bound requires s >= 3)")
    return BoundValue("cps", cps_per_vertex(h) * h.n, True)


def bound_report(h: Hypergraph, k: int) -> BoundReport:
    """Evaluate every bound for (h, k) and take the best integer floor.

    best_lower_bound is the max of ceil(value) over applicable bounds,
    excluding the diagnostic index variant (see module docstring).
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    bounds = [
        bound_max_degree(h, k),
        bound_edge_count(h, k),
        bound_avg_degree(h, k),
        bound_avg_degree_simple(h, k),
    ]
    if k == 0:
        bounds.append(bound_caro_tuza_alpha(h))
        bounds.append(bound_cps(h))
    bounds.append(bound_caro_tuza_k(h, k + 1))
    if k >= 1:
        bounds.append(bound_caro_tuza_k(h, k, name="caro_tuza_k_diag"))
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
