"""Corpus-level verification: every bound, extractor, and oracle claim
checked against exact ground truth over reproducible instance corpora.

A flat key=value config fixes the corpus (an exhaustive sweep of all
edge subsets at one small size, plus seeded random instances) and the
checks to run; building an invalid `VerifyConfig`, by parsing,
construction or `dataclasses.replace`, raises `ConfigError`, before any
check runs.  The master seed fully determines every random instance,
and any instance can be rebuilt from the config plus its corpus uid, so
a failure report is always reproducible.  Violations are dumped as .hg
files with JSON diagnoses.

Reports contain no timing and no floats, so a fixed config yields
byte-identical report text on every run and platform.

`run_verify` uses every CPU in the process's affinity mask, so
`taskset -c 0` limits it to one.  The corpus is cut into chunks of
consecutive pairs, and each chunk, like fg-properties and replication,
is one task for `kindep.parallel.fan_out`.  The tallies come back in
task order and merge in check and pair order, and only then are the
dumps written: the report and the dumps do not depend on the worker
count.

The checks of one chunk share a `_RunCache`: each pair's exact alpha
and partition are computed once, and each process builds each bound
report once per (n, s, k, degree histogram), so bound-soundness,
extraction-achievement and remark-regime read their bounds from one
report.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
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
from kindep.extract import Partition, band_peel, greedy_peel, k_partition, partition_extract
from kindep.generators import WordStream, gen_complete, gen_random_uniform
from kindep.hgio import save_hg
from kindep.hypergraph import Hypergraph
from kindep.parallel import fan_out


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
    """One verify run's corpus, checks, budgets and dump directory.  The
    constructor, and so `replace` and `parse_verify_config`, raises
    `ConfigError` on an invalid config, before any check can run."""

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

    def __post_init__(self) -> None:
        if self.exhaustive_n and not 2 <= self.exhaustive_s <= self.exhaustive_n:
            raise ConfigError("exhaustive corpus needs 2 <= s <= n")
        if self.exhaustive_n and self.exhaustive_n > 7:
            raise ConfigError("exhaustive corpus beyond n = 7 is intractable")
        for key in ("master_seed", "random_count", "replication_count"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be nonnegative")
        if self.random_count:
            if self.random_n_min > self.random_n_max:
                raise ConfigError("random_n_min exceeds random_n_max")
            if not self.random_s or min(self.random_s) < 2:
                raise ConfigError("random_s must list uniformities >= 2")
            if max(self.random_s) > self.random_n_min:
                raise ConfigError("random_n_min must be >= every uniformity in random_s")
            if not self.random_k:
                raise ConfigError("random_k must list k values >= 0")
            if self.random_m_max_factor < 0:
                raise ConfigError("random_m_max_factor must be nonnegative")
        # the replication sample reads random_k even when random_count = 0
        for key in ("exhaustive_k", "random_k"):
            if min(getattr(self, key), default=0) < 0:
                raise ConfigError(f"{key} must list k values >= 0")
        if not self.output_dir:
            raise ConfigError("output_dir must name a directory")
        for key in sorted(_BUDGET_KEYS):
            if (getattr(self, key) or 0) < 0:
                raise ConfigError(f"{key} must be nonnegative (0 = unlimited)")
        if self.replication_count and self.replication_n_max < 4:
            raise ConfigError("replication_n_max must be at least 4")
        if not self.checks:
            raise ConfigError("checks must name at least one check")
        for name in self.checks:
            if name not in CHECK_ORDER:
                raise ConfigError(f"unknown check {name!r}")
        if self.fault_injection not in FAULT_MODES:
            raise ConfigError(f"unknown fault_injection mode {self.fault_injection!r}")


_INT_KEYS = {
    "exhaustive_n", "exhaustive_s", "random_count", "random_n_min",
    "random_n_max", "random_m_max_factor", "master_seed",
    "replication_count", "replication_n_max",
}
_INT_LIST_KEYS = {"exhaustive_k", "random_s", "random_k"}
_BUDGET_KEYS = {"alpha_budget", "chi_budget"}


def parse_verify_config(text: str) -> VerifyConfig:
    """Parse the flat key=value config; unknown and repeated keys are errors."""
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected key = value, got {raw!r}")
        key, _, rhs = line.partition("=")
        key, rhs = key.strip(), rhs.strip()
        if key in values:
            raise ConfigError(f"config line {line_no}: repeated key {key!r}")
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
            elif key in ("output_dir", "fault_injection"):
                values[key] = rhs
            else:
                raise ConfigError(f"config line {line_no}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"config line {line_no}: {exc}") from None
    return VerifyConfig(**values)


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
    """Rebuild any corpus instance from its uid (reproducibility hook).
    A uid that names no instance of `cfg`'s corpus raises `ConfigError`."""
    match = re.fullmatch(r"x(0|[1-9][0-9]*)k(0|[1-9][0-9]*)|([rp])(0|[1-9][0-9]*)", uid)
    if match is None:
        raise ConfigError(f"unrecognized instance uid {uid!r}")
    if match[3]:
        key, draw = (("random_count", _draw_random_instance) if match[3] == "r"
                     else ("replication_count", _draw_replication_instance))
        index, count = int(match[4]), getattr(cfg, key)
        if index >= count:
            raise ConfigError(f"instance uid {uid!r} is beyond {key} = {count}")
        return draw(cfg, index)
    index, k = int(match[1]), int(match[2])
    slots = gen_complete(cfg.exhaustive_n, cfg.exhaustive_s).edges if cfg.exhaustive_n else ()
    if not cfg.exhaustive_n or index >= 1 << len(slots):
        raise ConfigError(f"instance uid {uid!r} is beyond the exhaustive corpus")
    if k not in cfg.exhaustive_k:
        raise ConfigError(f"instance uid {uid!r} has k = {k}, not in exhaustive_k")
    return CorpusInstance(uid, _exhaustive_graph(cfg, slots, index), k, "exhaustive")


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
    """Writes counterexample instances plus JSON diagnoses, up to `LIMIT`
    of them; `dropped` counts the ones refused past that cap."""

    LIMIT = 16

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.written: list[str] = []
        self.dropped = 0

    def dump(self, check: str, inst: CorpusInstance, detail: dict) -> None:
        if len(self.written) >= self.LIMIT:
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


class _Tally:
    """The counters of one check over some pairs, named once: every
    comparison, every violation with its diagnosis, every pair tried and
    skipped, and the counts its note templates read.

    Tallies of one check over consecutive chunks of pairs `merge` in
    pair order; `result` then files the dumps and renders the notes, so
    the report does not depend on how the pairs were chunked.  Only the
    first `DumpSink.LIMIT` diagnoses are kept: the sink drops every dump
    past that many, whichever check filed them.
    """

    def __init__(self, name: str, *notes: str, oracle: str = "",
                 budget: int | None = None) -> None:
        self.name = name
        self.notes = notes  # templates over self.counts
        self.oracle, self.budget = oracle, budget  # the oracle whose budget skips pairs
        self.comparisons = self.violations = self.tried = self.skipped = 0
        self.failures: list[tuple[CorpusInstance, dict]] = []
        self.counts: Counter[str] = Counter()

    def compare(self, inst: CorpusInstance, failure: dict | None) -> None:
        """Count one comparison; a non-empty `failure` is a violation."""
        self.comparisons += 1
        if failure:
            self.violations += 1
            if len(self.failures) < DumpSink.LIMIT:
                self.failures.append((inst, failure))

    def merge(self, later: _Tally) -> None:
        """Add the tally of the same check over the pairs that follow."""
        self.comparisons += later.comparisons
        self.violations += later.violations
        self.tried += later.tried
        self.skipped += later.skipped
        self.failures += later.failures[:DumpSink.LIMIT - len(self.failures)]
        self.counts.update(later.counts)

    def result(self, sink: DumpSink) -> CheckResult:
        for inst, failure in self.failures:
            sink.dump(self.name, inst, failure)
        # past the kept diagnoses the sink is full
        sink.dropped += self.violations - len(self.failures)
        notes = [template.format_map(self.counts) for template in self.notes]
        if self.skipped:
            notes.append(f"skipped {self.skipped}/{self.tried} pairs: the {self.oracle} "
                         f"oracle exceeded its node budget of {self.budget}")
        return CheckResult(self.name, self.violations == 0, self.comparisons,
                           self.violations, self.skipped, tuple(notes))


class _RunCache:
    """What the checks of one chunk of pairs share: each pair's exact
    alpha and its partition, each computed once, and the bound reports.

    Alpha is keyed by uid.  Under a node budget its status depends on the
    vertex labelling, so isomorphic pairs must not share it.  Only the
    value is kept, None where the search overran the budget: the checks
    read nothing else.  The partition of a k >= 1 pair feeds both the
    partition extractor and the partition check.

    The report is keyed by (n, s, k, sorted degree histogram), because
    `bound_report` reads nothing else of the hypergraph: e, delta and d
    follow from the histogram, and cps sums over its sorted items.  A hit
    is therefore the report a fresh call would build, the cps float
    included.  The report table can outlive the chunk: `run_verify`
    passes each chunk the table of the process that runs it.  The
    default corpus's 4,596 pairs have 620 keys; its 4,096 exhaustive
    pairs have 124.
    """

    def __init__(self, budget: int | None, reports: dict | None = None) -> None:
        self.budget = budget
        self._alphas: dict[str, int | None] = {}
        self._partitions: dict[str, Partition] = {}
        self._reports: dict[tuple, BoundReport] = {} if reports is None else reports

    def alpha(self, inst: CorpusInstance) -> int | None:
        if inst.uid not in self._alphas:
            self._alphas[inst.uid] = alpha_k_exact(inst.h, inst.k, self.budget).value
        return self._alphas[inst.uid]

    def partition(self, inst: CorpusInstance) -> Partition:
        if inst.uid not in self._partitions:
            self._partitions[inst.uid] = k_partition(inst.h, inst.k)
        return self._partitions[inst.uid]

    def report(self, inst: CorpusInstance) -> BoundReport:
        h = inst.h
        key = (h.n, h.s, inst.k, tuple(sorted(Counter(h.degrees).items())))
        found = self._reports.get(key)
        if found is None:
            found = self._reports[key] = bound_report(h, inst.k)
        return found


def check_bound_soundness(pairs: list[CorpusInstance], cache: _RunCache,
                          cfg: VerifyConfig) -> _Tally:
    """ceil(bound) <= exact alpha for every applicable non-diagnostic
    bound on every pair; the diagnostic index variant is tallied in a
    note instead of failing."""
    tally = _Tally("bound-soundness",
                   "diagnostic caro_tuza_k_diag exceeded the oracle on {diag_misses}/{diag_rows} rows",
                   oracle="alpha", budget=cache.budget)
    overclaim = cfg.fault_injection == "overclaim-bounds"
    tally.tried = len(pairs)
    for inst in pairs:
        alpha = cache.alpha(inst)
        if alpha is None:
            tally.skipped += 1
            continue
        for b in cache.report(inst).bounds:
            if not b.applicable:
                continue
            ceiling = b.ceiled()
            if b.name in DIAGNOSTIC_BOUNDS:
                tally.counts["diag_rows"] += 1
                tally.counts["diag_misses"] += ceiling > alpha
                continue
            if overclaim:
                ceiling += 1
            tally.compare(inst, None if ceiling <= alpha else {
                "bound": b.name, "value": b.value, "ceiled": ceiling, "alpha": alpha,
                "fault_injection": cfg.fault_injection or None,
            })
    return tally


def check_extraction_achievement(pairs: list[CorpusInstance], cache: _RunCache,
                                 cfg: VerifyConfig) -> _Tally:
    """Every extractor reaches the size its originating bound promises."""
    tally = _Tally(
        "extraction-achievement",
        "band phases: {full_phases} ran to the cap, {early_stops} stopped early",
        "after full phases, remainder average degree left the band {d_drop_misses} times",
        "early-stop class-count inequality held on {stop_ok}/{stop_rows} probed rows",
    )
    counts = tally.counts
    for inst in pairs:
        h, k = inst.h, inst.k
        report = cache.report(inst)
        probe: list[dict] = []
        rows = [(greedy_peel(h, k), report.bound("edge_count").value, {}),
                (band_peel(h, k, probe), report.bound("avg_degree").ceiled(), {"phases": probe})]
        if k >= 1:
            rows.append((partition_extract(h, k, cache.partition(inst)),
                         report.bound("max_degree").ceiled(), {}))
        for res, target, extra in rows:
            tally.compare(inst, None if res.size >= target else {
                "algorithm": res.algorithm, "size": res.size, "target": target, **extra,
            })
        for phase in probe:
            if phase["early_stop"]:
                counts["early_stops"] += 1
                if "stop_classes_ok" in phase:
                    counts["stop_rows"] += 1
                    counts["stop_ok"] += bool(phase["stop_classes_ok"])
            else:
                counts["full_phases"] += 1
                counts["d_drop_misses"] += phase["remainder_d_ok"] is False
    return tally


def check_fg_properties() -> _Tally:
    """Exact identities of the two helper functions on a rational grid."""
    xs = sorted({Fraction(p, q) for p in range(0, 41) for q in range(1, 13)})
    fvals = {x: eval_f(x) for x in xs}
    tally = _Tally("fg-properties")
    dummy = CorpusInstance("fg", Hypergraph(1, 2), 0, "grid")
    for x in xs:
        if x > 0:
            tally.compare(dummy, None if eval_g(x) == fvals[x] else
                          {"property": "f-equals-g", "x": x, "f": fvals[x], "g": eval_g(x)})
        base = Fraction(1, 1) / (1 + x)
        held = fvals[x] >= base and (fvals[x] == base) == (x.denominator == 1)
        tally.compare(dummy, None if held else
                      {"property": "f-vs-harmonic", "x": x, "f": fvals[x], "harmonic": base})
    for a, b in zip(xs, xs[1:]):
        tally.compare(dummy, None if fvals[a] >= fvals[b] else
                      {"property": "monotone", "x1": a, "x2": b})
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
            held = 2 * fmid[0] * fad * fbd <= (fan * fbd + fbn * fad) * fmid[1]
            tally.compare(dummy, None if held else
                          {"property": "midpoint-convexity", "x1": a, "x2": b})
    return tally


def check_replication(cfg: VerifyConfig) -> _Tally:
    """alpha and all per-vertex bound values are invariant under taking
    disjoint copies; alpha scales exactly by the copy count.  An instance
    whose alpha, or the alpha of a copy, overruns the node budget is
    skipped for the alpha comparisons; its bound comparisons still run."""
    tally = _Tally("replication", oracle="alpha", budget=cfg.alpha_budget)
    tally.tried = cfg.replication_count
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
                tally.compare(inst, None if scaled.value == c * base.value else {
                    "copies": c, "alpha": base.value, "alpha_replicated": scaled.value,
                })
            rep_report = bound_report(rep, k)
            for b, rb in zip(base_report.bounds, rep_report.bounds):
                ok = b.name == rb.name and b.applicable == rb.applicable
                if ok and isinstance(b.value, Fraction):
                    ok = rb.value == c * b.value
                elif ok and b.name == "cps" and b.applicable:
                    ok = cps_per_vertex(rep) == base_pv
                tally.compare(inst, None if ok else {
                    "copies": c, "bound": b.name,
                    "value": b.value, "value_replicated": rb.value,
                })
        if overran:
            tally.skipped += 1
    return tally


def check_partition(pairs: list[CorpusInstance], cache: _RunCache,
                    cfg: VerifyConfig) -> _Tally:
    """Partition emits exactly ceil(delta/k) classes and at most e
    moves; the exact chi oracle never exceeds that class count where
    it completes."""
    tally = _Tally("partition", oracle="chi", budget=cfg.chi_budget)
    for inst in pairs:
        h, k = inst.h, inst.k
        if k < 1:
            continue
        tally.tried += 1
        part = cache.partition(inst)
        expected = max(1, -(-h.max_degree // k))
        problems = {}
        if len(part.classes) != expected:
            problems["classes"] = [len(part.classes), expected]
        if len(part.moves) > h.e:
            problems["moves"] = [len(part.moves), h.e]
        tally.compare(inst, problems)
        oracle = chi_k_exact(h, k, cfg.chi_budget)
        if oracle.status != "exact":
            tally.skipped += 1
            continue
        tally.compare(inst, None if oracle.value <= expected else {
            "chi": oracle.value, "class_bound": expected,
        })
    return tally


def check_oracle_self_agreement(pairs: list[CorpusInstance], cache: _RunCache,
                                cfg: VerifyConfig) -> _Tally:
    """Pruned search equals the plain subset sweep wherever n <= 12."""
    tally = _Tally("oracle-self-agreement", oracle="alpha", budget=cache.budget)
    for inst in pairs:
        if inst.h.n > 12:
            continue
        tally.tried += 1
        alpha = cache.alpha(inst)
        if alpha is None:
            tally.skipped += 1
            continue
        sweep = alpha_k_bruteforce(inst.h, inst.k)
        tally.compare(inst, None if alpha == sweep else {"pruned": alpha, "sweep": sweep})
    return tally


def check_remark_regime(pairs: list[CorpusInstance], cache: _RunCache,
                        cfg: VerifyConfig) -> _Tally:
    """Where k >= 1 and delta >= k(k+1), the simple average-degree bound
    is at least the max-degree bound; strictness whenever k does not
    divide delta is tallied, not asserted."""
    tally = _Tally("remark-regime",
                   "strict in {strict_held}/{strict_expected} rows with k not dividing delta")
    for inst in pairs:
        h, k = inst.h, inst.k
        if k < 1 or h.max_degree < k * (k + 1):
            continue
        report = cache.report(inst)
        simple = report.bound("avg_degree_simple").value
        degree = report.bound("max_degree").value
        tally.compare(inst, None if simple >= degree else {
            "avg_degree_simple": simple, "max_degree": degree,
        })
        if h.max_degree % k != 0:
            tally.counts["strict_expected"] += 1
            tally.counts["strict_held"] += simple > degree
    return tally


# The checks that run on chunks of the corpus; fg-properties and
# replication build their own instances and run as one task each.
_PAIR_CHECKS = {
    "bound-soundness": check_bound_soundness,
    "extraction-achievement": check_extraction_achievement,
    "partition": check_partition,
    "oracle-self-agreement": check_oracle_self_agreement,
    "remark-regime": check_remark_regime,
}

# Pairs per task: small enough that the processes finish close together,
# large enough that a task's hand-off costs little against its work.
_CHUNK = 128


def _check_chunk(chunk: list[CorpusInstance], names: list[str], cfg: VerifyConfig,
                 reports: dict) -> list[_Tally]:
    """The named pair checks on one chunk, sharing one cache: each
    pair's alpha and partition are computed once."""
    cache = _RunCache(cfg.alpha_budget, reports)
    return [_PAIR_CHECKS[name](chunk, cache, cfg) for name in names]


@dataclass(frozen=True)
class VerifyOutcome:
    passed: bool
    checks: tuple[CheckResult, ...]
    dumps: tuple[str, ...]
    report_text: str


def run_verify(cfg: VerifyConfig, out_dir: str | None = None) -> VerifyOutcome:
    """Build the corpus, run the configured checks on every usable CPU,
    render the report.  A given `out_dir` replaces the config's
    `output_dir`."""
    if out_dir is not None:
        cfg = replace(cfg, output_dir=out_dir)
    exhaustive = build_exhaustive_corpus(cfg)
    randoms = build_random_corpus(cfg)
    pairs = exhaustive + randoms
    if not pairs:
        raise ConfigError("no instances in corpus")
    names = [name for name in CHECK_ORDER if name in cfg.checks]
    on_pairs = [name for name in names if name in _PAIR_CHECKS]
    tasks = []
    if "fg-properties" in names:
        tasks.append(lambda: [check_fg_properties()])
    if "replication" in names:
        tasks.append(lambda: [check_replication(cfg)])
    if on_pairs:
        reports: dict = {}  # each process fills its own copy
        tasks += [partial(_check_chunk, pairs[i:i + _CHUNK], on_pairs, cfg, reports)
                  for i in range(0, len(pairs), _CHUNK)]
    tallies: dict[str, _Tally] = {}
    for task_tallies in fan_out(tasks):
        for tally in task_tallies:
            if tally.name in tallies:
                tallies[tally.name].merge(tally)
            else:
                tallies[tally.name] = tally
    sink = DumpSink(cfg.output_dir)
    results = [tallies[name].result(sink) for name in names]
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
                     f"{sink.dropped} dropped at the cap of {sink.LIMIT}")
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    report = "\n".join(lines) + "\n"
    return VerifyOutcome(passed, tuple(results), tuple(sink.written), report)
