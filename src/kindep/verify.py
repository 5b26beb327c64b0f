"""Corpus-level verification: every bound, extractor, and oracle claim
checked against exact ground truth over reproducible instance corpora.

A flat key=value config fixes the corpus (an exhaustive sweep of all
edge subsets at one small size, plus seeded random instances) and the
checks to run.  The master seed fully determines every random instance,
and any instance can be rebuilt from the config plus its corpus uid, so
a failure report is always reproducible.  Violations are dumped as .hg
files with JSON diagnoses.

Reports contain no timing and no floats, so a fixed config yields
byte-identical report text on every run and platform.

The checks of one run share a `_RunCache`: each pair's exact alpha is
computed once, and each bound report once per (n, s, k, degree
histogram), so bound-soundness, extraction-achievement and
remark-regime read their bounds from one report.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

import numpy as np

from kindep.bounds import (
    DIAGNOSTIC_BOUNDS,
    BoundReport,
    bound_report,
    cps_per_vertex,
    eval_f,
    eval_g,
)
from kindep.exact import alpha_k_bruteforce, alpha_k_exact, chi_k_exact
from kindep.extract import band_peel, greedy_peel, k_partition, partition_extract
from kindep.generators import WordStream, gen_complete, gen_random_uniform
from kindep.hgio import save_hg
from kindep.hypergraph import Hypergraph


class ConfigError(ValueError):
    """Invalid verification config or an unusable corpus."""


CHECK_ORDER = (
    "bound-soundness",
    "extraction-achievement",
    "fg-properties",
    "replication",
    "partition",
    "oracle-self-agreement",
    "remark-regime",
)

FAULT_MODES = ("", "overclaim-bounds")

DEFAULT_CONFIG_TEXT = """\
# verification corpus and checks (key = value; '#' starts a comment)

# exhaustive sweep: all 2^C(n,s) edge subsets at this size, each k below
exhaustive_n = 5
exhaustive_s = 3
exhaustive_k = 0,1,2,3

# seeded random corpus; one k is drawn per instance
random_count = 500
random_n_min = 8
random_n_max = 14
random_m_max_factor = 3
random_s = 2,3,4
random_k = 0,1,2,3
master_seed = 1729

# replication-invariance sample (small instances, copies 2 and 3)
replication_count = 20
replication_n_max = 7

checks = bound-soundness,extraction-achievement,fg-properties,replication,partition,oracle-self-agreement,remark-regime

# 0 means unlimited
alpha_budget = 0
chi_budget = 2000000

output_dir = verify_out

# set to overclaim-bounds to self-test the harness (must then fail)
fault_injection =
"""


@dataclass(frozen=True)
class VerifyConfig:
    exhaustive_n: int = 5
    exhaustive_s: int = 3
    exhaustive_k: tuple[int, ...] = (0, 1, 2, 3)
    random_count: int = 500
    random_n_min: int = 8
    random_n_max: int = 14
    random_m_max_factor: int = 3
    random_s: tuple[int, ...] = (2, 3, 4)
    random_k: tuple[int, ...] = (0, 1, 2, 3)
    master_seed: int = 1729
    replication_count: int = 20
    replication_n_max: int = 7
    checks: tuple[str, ...] = CHECK_ORDER
    alpha_budget: int | None = None
    chi_budget: int | None = 2_000_000
    output_dir: str = "verify_out"
    fault_injection: str = ""


_INT_KEYS = {
    "exhaustive_n", "exhaustive_s", "random_count", "random_n_min",
    "random_n_max", "random_m_max_factor", "master_seed",
    "replication_count", "replication_n_max",
}
_INT_LIST_KEYS = {"exhaustive_k", "random_s", "random_k"}
_BUDGET_KEYS = {"alpha_budget", "chi_budget"}


def parse_verify_config(text: str) -> VerifyConfig:
    """Parse the flat key=value config; unknown keys are errors."""
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected key = value, got {raw!r}")
        key, _, rhs = line.partition("=")
        key, rhs = key.strip(), rhs.strip()
        try:
            if key in _INT_KEYS:
                values[key] = int(rhs)
            elif key in _INT_LIST_KEYS:
                values[key] = tuple(int(p) for p in rhs.split(",") if p.strip())
            elif key in _BUDGET_KEYS:
                n = int(rhs)
                values[key] = None if n == 0 else n
            elif key == "checks":
                values[key] = tuple(p.strip() for p in rhs.split(",") if p.strip())
            elif key == "output_dir":
                values[key] = rhs
            elif key == "fault_injection":
                values[key] = rhs
            else:
                raise ConfigError(f"config line {line_no}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"config line {line_no}: {exc}") from None
    cfg = VerifyConfig(**values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: VerifyConfig) -> None:
    if cfg.exhaustive_n and not 2 <= cfg.exhaustive_s <= cfg.exhaustive_n:
        raise ConfigError("exhaustive corpus needs 2 <= s <= n")
    if cfg.exhaustive_n and cfg.exhaustive_n > 7:
        raise ConfigError("exhaustive corpus beyond n = 7 is intractable")
    if cfg.random_count:
        if cfg.random_n_min > cfg.random_n_max:
            raise ConfigError("random_n_min exceeds random_n_max")
        if not cfg.random_s or min(cfg.random_s) < 2:
            raise ConfigError("random_s must list uniformities >= 2")
        if max(cfg.random_s) > cfg.random_n_min:
            raise ConfigError("random_n_min must be >= every uniformity in random_s")
        if not cfg.random_k:
            raise ConfigError("random_k must list k values >= 0")
        if cfg.random_m_max_factor < 0:
            raise ConfigError("random_m_max_factor must be nonnegative")
    # the replication sample reads random_k even when random_count = 0
    for key in ("exhaustive_k", "random_k"):
        if min(getattr(cfg, key), default=0) < 0:
            raise ConfigError(f"{key} must list k values >= 0")
    if not cfg.output_dir:
        raise ConfigError("output_dir must name a directory")
    for key in sorted(_BUDGET_KEYS):
        if (getattr(cfg, key) or 0) < 0:
            raise ConfigError(f"{key} must be nonnegative (0 = unlimited)")
    if cfg.replication_count and cfg.replication_n_max < 4:
        raise ConfigError("replication_n_max must be at least 4")
    for name in cfg.checks:
        if name not in CHECK_ORDER:
            raise ConfigError(f"unknown check {name!r}")
    if cfg.fault_injection not in FAULT_MODES:
        raise ConfigError(f"unknown fault_injection mode {cfg.fault_injection!r}")


@dataclass(frozen=True)
class CorpusInstance:
    """One (hypergraph, k) pair with a reproducible identity."""

    uid: str
    h: Hypergraph
    k: int
    origin: str


def _exhaustive_graph(cfg: VerifyConfig, slots: tuple[tuple[int, ...], ...],
                      index: int) -> Hypergraph:
    """The edges at the set bits of index over the subset list `slots`."""
    edges = tuple(slots[b] for b in range(len(slots)) if index >> b & 1)
    return Hypergraph(cfg.exhaustive_n, cfg.exhaustive_s, edges)


def build_exhaustive_corpus(cfg: VerifyConfig) -> list[CorpusInstance]:
    """Every edge subset of the complete s-uniform hypergraph on n
    vertices, crossed with every configured k.  Instance x<i>k<k> takes
    the edges at the set bits of i over the lexicographic subset list.
    """
    if not cfg.exhaustive_n:
        return []
    slots = gen_complete(cfg.exhaustive_n, cfg.exhaustive_s).edges
    out = []
    for index in range(1 << len(slots)):
        h = _exhaustive_graph(cfg, slots, index)
        for k in cfg.exhaustive_k:
            out.append(CorpusInstance(f"x{index}k{k}", h, k, "exhaustive"))
    return out


def _draw_random_instance(cfg: VerifyConfig, i: int) -> CorpusInstance:
    stream = WordStream(np.random.SeedSequence(cfg.master_seed, spawn_key=(0, i)))
    n = cfg.random_n_min + stream.randbelow(cfg.random_n_max - cfg.random_n_min + 1)
    s_choices = [s for s in cfg.random_s if s <= n]
    s = s_choices[stream.randbelow(len(s_choices))]
    m_cap = min(cfg.random_m_max_factor * n, comb(n, s))
    m = stream.randbelow(m_cap + 1)
    k = cfg.random_k[stream.randbelow(len(cfg.random_k))]
    edge_seed = stream.next_word() >> 1
    return CorpusInstance(f"r{i}", gen_random_uniform(n, m, s, edge_seed), k, "random")


def build_random_corpus(cfg: VerifyConfig) -> list[CorpusInstance]:
    return [_draw_random_instance(cfg, i) for i in range(cfg.random_count)]


def _draw_replication_instance(cfg: VerifyConfig, i: int) -> CorpusInstance:
    stream = WordStream(np.random.SeedSequence(cfg.master_seed, spawn_key=(1, i)))
    n = 4 + stream.randbelow(cfg.replication_n_max - 4 + 1)
    s_choices = [s for s in (2, 3, 4) if s <= n]
    s = s_choices[stream.randbelow(len(s_choices))]
    m = stream.randbelow(comb(n, s) + 1)
    k = cfg.random_k[stream.randbelow(len(cfg.random_k))] if cfg.random_k else 0
    edge_seed = stream.next_word() >> 1
    return CorpusInstance(f"p{i}", gen_random_uniform(n, m, s, edge_seed), k, "replication")


def corpus_instance(cfg: VerifyConfig, uid: str) -> CorpusInstance:
    """Rebuild any corpus instance from its uid (reproducibility hook)."""
    if uid.startswith("x"):
        idx_part, _, k_part = uid[1:].partition("k")
        index, k = int(idx_part), int(k_part)
        slots = gen_complete(cfg.exhaustive_n, cfg.exhaustive_s).edges
        return CorpusInstance(uid, _exhaustive_graph(cfg, slots, index), k, "exhaustive")
    if uid.startswith("r"):
        return _draw_random_instance(cfg, int(uid[1:]))
    if uid.startswith("p"):
        return _draw_replication_instance(cfg, int(uid[1:]))
    raise ConfigError(f"unrecognized instance uid {uid!r}")


def _plain(obj: object) -> object:
    """JSON-friendly rendering; Fractions become 'num/den' strings."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


class DumpSink:
    """Writes counterexample instances plus JSON diagnoses, up to `limit`
    of them; `dropped` counts the ones refused past that cap."""

    def __init__(self, out_dir: str, limit: int = 16) -> None:
        self.out_dir = out_dir
        self.limit = limit
        self.written: list[str] = []
        self.dropped = 0

    def dump(self, check: str, inst: CorpusInstance, detail: dict) -> None:
        if len(self.written) >= self.limit:
            self.dropped += 1
            return
        os.makedirs(self.out_dir, exist_ok=True)
        stem = f"{check}_{inst.uid}"
        if stem in self.written:
            serial = 2
            while f"{stem}-{serial}" in self.written:
                serial += 1
            stem = f"{stem}-{serial}"
        hg_path = os.path.join(self.out_dir, stem + ".hg")
        save_hg(inst.h, hg_path, comments=(f"counterexample {stem}",))
        diagnosis = {
            "check": check,
            "instance": inst.uid,
            "origin": inst.origin,
            "n": inst.h.n,
            "e": inst.h.e,
            "s": inst.h.s,
            "k": inst.k,
            "detail": _plain(detail),
        }
        json_path = os.path.join(self.out_dir, stem + ".json")
        with open(json_path, "w", encoding="ascii") as fh:
            json.dump(diagnosis, fh, indent=2, sort_keys=False)
            fh.write("\n")
        self.written.append(stem)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    comparisons: int
    violations: int
    skipped: int = 0
    notes: tuple[str, ...] = ()


def _budget_note(skipped: int, total: int, oracle: str, budget: int | None) -> tuple[str, ...]:
    """The coverage note of a check whose oracle ran out of node budget."""
    if not skipped:
        return ()
    return (f"skipped {skipped}/{total} pairs: the {oracle} oracle exceeded "
            f"its node budget of {budget}",)


class _RunCache:
    """What the checks of one run share: each pair's exact alpha and its
    bound report, each computed once.

    Alpha is keyed by uid.  Under a node budget its status depends on the
    vertex labelling, so isomorphic pairs must not share it.  Only the
    value is kept, None where the search overran the budget: the checks
    read nothing else, and whole results would hold every pair's witness
    for the run.

    The report is keyed by (n, s, k, sorted degree histogram), because
    `bound_report` reads nothing else of the hypergraph: e, delta and d
    follow from the histogram, and cps sums over its sorted items.  A hit
    is therefore the report a fresh call would build, the cps float
    included.  The default corpus's 4,596 pairs have 620 keys; its 4,096
    exhaustive pairs have 124.
    """

    def __init__(self, budget: int | None) -> None:
        self.budget = budget
        self._alphas: dict[str, int | None] = {}
        self._reports: dict[tuple, BoundReport] = {}

    def alpha(self, inst: CorpusInstance) -> int | None:
        if inst.uid not in self._alphas:
            self._alphas[inst.uid] = alpha_k_exact(inst.h, inst.k, self.budget).value
        return self._alphas[inst.uid]

    def report(self, inst: CorpusInstance) -> BoundReport:
        h = inst.h
        key = (h.n, h.s, inst.k, tuple(sorted(Counter(h.degrees).items())))
        found = self._reports.get(key)
        if found is None:
            found = self._reports[key] = bound_report(h, inst.k)
        return found


def check_bound_soundness(
    pairs: list[CorpusInstance],
    sink: DumpSink,
    cache: _RunCache,
    fault_injection: str = "",
) -> CheckResult:
    """ceil(bound) <= exact alpha for every applicable non-diagnostic
    bound on every pair; the diagnostic index variant is tallied in a
    note instead of failing."""
    comparisons = violations = skipped = 0
    diag_rows = diag_misses = 0
    overclaim = fault_injection == "overclaim-bounds"
    for inst in pairs:
        alpha = cache.alpha(inst)
        if alpha is None:
            skipped += 1
            continue
        for b in cache.report(inst).bounds:
            if not b.applicable:
                continue
            ceiling = b.ceiled()
            if b.name in DIAGNOSTIC_BOUNDS:
                diag_rows += 1
                if ceiling > alpha:
                    diag_misses += 1
                continue
            if overclaim:
                ceiling += 1
            comparisons += 1
            if ceiling > alpha:
                violations += 1
                sink.dump("bound-soundness", inst, {
                    "bound": b.name,
                    "value": b.value,
                    "ceiled": ceiling,
                    "alpha": alpha,
                    "fault_injection": fault_injection or None,
                })
    notes = (f"diagnostic caro_tuza_k_diag exceeded the oracle on {diag_misses}/{diag_rows} rows",
             *_budget_note(skipped, len(pairs), "alpha", cache.budget))
    return CheckResult("bound-soundness", violations == 0, comparisons,
                       violations, skipped, notes)


def check_extraction_achievement(pairs: list[CorpusInstance], sink: DumpSink,
                                 cache: _RunCache) -> CheckResult:
    """Every extractor reaches the size its originating bound promises."""
    comparisons = violations = 0
    early_stops = full_phases = d_drop_misses = 0
    stop_rows = stop_ok = 0
    for inst in pairs:
        h, k = inst.h, inst.k
        report = cache.report(inst)
        g = greedy_peel(h, k)
        target = report.bound("edge_count").value
        comparisons += 1
        if g.size < target:
            violations += 1
            sink.dump("extraction-achievement", inst, {
                "algorithm": "greedy_peel", "size": g.size, "target": target,
            })
        probe: list[dict] = []
        b = band_peel(h, k, probe)
        target = report.bound("avg_degree").ceiled()
        comparisons += 1
        if b.size < target:
            violations += 1
            sink.dump("extraction-achievement", inst, {
                "algorithm": "band_peel", "size": b.size, "target": target,
                "phases": probe,
            })
        for phase in probe:
            if phase["early_stop"]:
                early_stops += 1
                if "stop_classes_ok" in phase:
                    stop_rows += 1
                    stop_ok += bool(phase["stop_classes_ok"])
            else:
                full_phases += 1
                if phase["remainder_d_ok"] is False:
                    d_drop_misses += 1
        if k >= 1:
            p = partition_extract(h, k)
            target = report.bound("max_degree").ceiled()
            comparisons += 1
            if p.size < target:
                violations += 1
                sink.dump("extraction-achievement", inst, {
                    "algorithm": "partition_extract", "size": p.size, "target": target,
                })
    notes = (
        f"band phases: {full_phases} ran to the cap, {early_stops} stopped early",
        f"after full phases, remainder average degree left the band {d_drop_misses} times",
        f"early-stop class-count inequality held on {stop_ok}/{stop_rows} probed rows",
    )
    return CheckResult("extraction-achievement", violations == 0, comparisons,
                       violations, 0, notes)


def check_fg_properties(sink: DumpSink) -> CheckResult:
    """Exact identities of the two helper functions on a rational grid."""
    xs = sorted({Fraction(p, q) for p in range(0, 41) for q in range(1, 13)})
    fvals = {x: eval_f(x) for x in xs}
    comparisons = violations = 0
    dummy = CorpusInstance("fg", Hypergraph(1, 2), 0, "grid")

    def fail(detail: dict) -> None:
        nonlocal violations
        violations += 1
        sink.dump("fg-properties", dummy, detail)

    for x in xs:
        if x > 0:
            comparisons += 1
            if eval_g(x) != fvals[x]:
                fail({"property": "f-equals-g", "x": x, "f": fvals[x], "g": eval_g(x)})
        comparisons += 1
        base = Fraction(1, 1) / (1 + x)
        if fvals[x] < base or (fvals[x] == base) != (x.denominator == 1):
            fail({"property": "f-vs-harmonic", "x": x, "f": fvals[x], "harmonic": base})
    for a, b in zip(xs, xs[1:]):
        comparisons += 1
        if fvals[a] < fvals[b]:
            fail({"property": "monotone", "x1": a, "x2": b})
    # All-pairs midpoint convexity, 2 f((a+b)/2) <= f(a) + f(b), compared
    # by integer cross-multiplication (every denominator is positive):
    # Fraction arithmetic on the ~45k pairs would dominate the check.
    grid = [(x, x.numerator, x.denominator, fvals[x].numerator, fvals[x].denominator)
            for x in xs]
    mid_memo: dict[tuple[int, int], tuple[int, int]] = {}
    for i, (a, an, ad, fan, fad) in enumerate(grid):
        for b, bn, bd, fbn, fbd in grid[i + 1:]:
            num, den = an * bd + bn * ad, 2 * ad * bd
            common = gcd(num, den)
            key = (num // common, den // common)
            fmid = mid_memo.get(key)
            if fmid is None:
                value = eval_f(Fraction(*key))
                fmid = mid_memo[key] = (value.numerator, value.denominator)
            comparisons += 1
            if 2 * fmid[0] * fad * fbd > (fan * fbd + fbn * fad) * fmid[1]:
                fail({"property": "midpoint-convexity", "x1": a, "x2": b})
    return CheckResult("fg-properties", violations == 0, comparisons, violations)


def check_replication(cfg: VerifyConfig, sink: DumpSink) -> CheckResult:
    """alpha and all per-vertex bound values are invariant under taking
    disjoint copies; alpha scales exactly by the copy count.  An instance
    whose alpha, or the alpha of a copy, overruns the node budget is
    skipped for the alpha comparisons; its bound comparisons still run."""
    comparisons = violations = skipped = 0
    for i in range(cfg.replication_count):
        inst = _draw_replication_instance(cfg, i)
        h, k = inst.h, inst.k
        base = alpha_k_exact(h, k, cfg.alpha_budget)
        overran = base.status != "exact"
        base_report = bound_report(h, k)
        base_pv = cps_per_vertex(h) if h.s >= 3 else None
        for c in (2, 3):
            rep = h.replicate(c)
            if not overran:
                scaled = alpha_k_exact(rep, k, cfg.alpha_budget)
                overran = scaled.status != "exact"
            if not overran:
                comparisons += 1
                if scaled.value != c * base.value:
                    violations += 1
                    sink.dump("replication", inst, {
                        "copies": c, "alpha": base.value, "alpha_replicated": scaled.value,
                    })
            rep_report = bound_report(rep, k)
            for b, rb in zip(base_report.bounds, rep_report.bounds):
                comparisons += 1
                ok = b.name == rb.name and b.applicable == rb.applicable
                if ok and isinstance(b.value, Fraction):
                    ok = rb.value == c * b.value
                elif ok and b.name == "cps" and b.applicable:
                    ok = cps_per_vertex(rep) == base_pv
                if not ok:
                    violations += 1
                    sink.dump("replication", inst, {
                        "copies": c, "bound": b.name,
                        "value": b.value, "value_replicated": rb.value,
                    })
        if overran:
            skipped += 1
    return CheckResult("replication", violations == 0, comparisons, violations, skipped,
                       _budget_note(skipped, cfg.replication_count, "alpha", cfg.alpha_budget))


def check_partition(pairs: list[CorpusInstance], sink: DumpSink,
                    chi_budget: int | None) -> CheckResult:
    """Partition emits exactly ceil(delta/k) classes and at most e
    moves; the exact chi oracle never exceeds that class count where
    it completes."""
    comparisons = violations = skipped = 0
    for inst in pairs:
        h, k = inst.h, inst.k
        if k < 1:
            continue
        part = k_partition(h, k)
        expected = max(1, -(-h.max_degree // k))
        comparisons += 1
        problems = {}
        if len(part.classes) != expected:
            problems["classes"] = [len(part.classes), expected]
        if len(part.moves) > h.e:
            problems["moves"] = [len(part.moves), h.e]
        if problems:
            violations += 1
            sink.dump("partition", inst, problems)
        oracle = chi_k_exact(h, k, chi_budget)
        if oracle.status != "exact":
            skipped += 1
            continue
        comparisons += 1
        if oracle.value > expected:
            violations += 1
            sink.dump("partition", inst, {
                "chi": oracle.value, "class_bound": expected,
            })
    tried = sum(1 for inst in pairs if inst.k >= 1)
    return CheckResult("partition", violations == 0, comparisons, violations, skipped,
                       _budget_note(skipped, tried, "chi", chi_budget))


def check_oracle_self_agreement(pairs: list[CorpusInstance], sink: DumpSink,
                                cache: _RunCache) -> CheckResult:
    """Pruned search equals the plain subset sweep wherever n <= 12."""
    comparisons = violations = skipped = 0
    for inst in pairs:
        if inst.h.n > 12:
            continue
        alpha = cache.alpha(inst)
        if alpha is None:
            skipped += 1
            continue
        comparisons += 1
        sweep = alpha_k_bruteforce(inst.h, inst.k)
        if alpha != sweep:
            violations += 1
            sink.dump("oracle-self-agreement", inst, {
                "pruned": alpha, "sweep": sweep,
            })
    tried = sum(1 for inst in pairs if inst.h.n <= 12)
    return CheckResult("oracle-self-agreement", violations == 0, comparisons,
                       violations, skipped,
                       _budget_note(skipped, tried, "alpha", cache.budget))


def check_remark_regime(pairs: list[CorpusInstance], sink: DumpSink,
                        cache: _RunCache) -> CheckResult:
    """Where k >= 1 and delta >= k(k+1), the simple average-degree bound
    is at least the max-degree bound; strictness whenever k does not
    divide delta is tallied, not asserted."""
    comparisons = violations = 0
    strict_expected = strict_held = 0
    for inst in pairs:
        h, k = inst.h, inst.k
        if k < 1 or h.max_degree < k * (k + 1):
            continue
        report = cache.report(inst)
        simple = report.bound("avg_degree_simple").value
        degree = report.bound("max_degree").value
        comparisons += 1
        if simple < degree:
            violations += 1
            sink.dump("remark-regime", inst, {
                "avg_degree_simple": simple, "max_degree": degree,
            })
        if h.max_degree % k != 0:
            strict_expected += 1
            strict_held += simple > degree
    notes = (f"strict in {strict_held}/{strict_expected} rows with k not dividing delta",)
    return CheckResult("remark-regime", violations == 0, comparisons, violations, 0, notes)


@dataclass(frozen=True)
class VerifyOutcome:
    passed: bool
    checks: tuple[CheckResult, ...]
    dumps: tuple[str, ...]
    report_text: str


def run_verify(cfg: VerifyConfig, out_dir: str | None = None) -> VerifyOutcome:
    """Build the corpus, run the configured checks, render the report."""
    exhaustive = build_exhaustive_corpus(cfg)
    randoms = build_random_corpus(cfg)
    pairs = exhaustive + randoms
    if not pairs:
        raise ConfigError("no instances in corpus")
    sink = DumpSink(cfg.output_dir if out_dir is None else out_dir)
    cache = _RunCache(cfg.alpha_budget)
    runners = {
        "bound-soundness": lambda: check_bound_soundness(pairs, sink, cache,
                                                         cfg.fault_injection),
        "extraction-achievement": lambda: check_extraction_achievement(pairs, sink, cache),
        "fg-properties": lambda: check_fg_properties(sink),
        "replication": lambda: check_replication(cfg, sink),
        "partition": lambda: check_partition(pairs, sink, cfg.chi_budget),
        "oracle-self-agreement": lambda: check_oracle_self_agreement(pairs, sink, cache),
        "remark-regime": lambda: check_remark_regime(pairs, sink, cache),
    }
    results = [runners[name]() for name in CHECK_ORDER if name in cfg.checks]
    passed = all(r.passed for r in results)
    lines = [f"corpus: {len(exhaustive)} exhaustive pairs, {len(randoms)} random pairs"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        counters = f"comparisons={r.comparisons}, violations={r.violations}"
        if r.skipped:
            counters += f", skipped={r.skipped}"
        lines.append(f"check {r.name}: {status} ({counters})")
        for note in r.notes:
            lines.append(f"  note: {note}")
    for stem in sink.written:
        lines.append(f"counterexample: {stem}")
    if sink.dropped:
        lines.append(f"note: {len(sink.written)} counterexample dumps written, "
                     f"{sink.dropped} dropped at the cap of {sink.limit}")
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    report = "\n".join(lines) + "\n"
    return VerifyOutcome(passed, tuple(results), tuple(sink.written), report)
