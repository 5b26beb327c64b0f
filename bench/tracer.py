"""Spans around the calls into kindep's public functions, from outside src/.

`Tracer.install` replaces each listed function with a timing wrapper
wherever a kindep module holds a reference to it (module attributes and
module-level dicts such as the CLI's algorithm table), and each listed
`Hypergraph` method on the class.  `uninstall` puts the originals back.
Spans stay in memory; `layer_metrics` reduces them to the per-layer
metrics and `dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# Counters a span records, computed from the call's (args, result).
Observe = Callable[[tuple, Any], dict]


def _size(args: tuple, result: Any) -> dict:
    return {"size": result.size}


# (metric prefix, module, attribute, counters) for each traced function.
FUNCTIONS: tuple[tuple[str, str, str, Observe | None], ...] = (
    ("generators.gen_random_uniform", "kindep.generators", "gen_random_uniform",
     lambda a, r: {"edges": r.e}),
    ("hgio.parse_hg", "kindep.hgio", "parse_hg", lambda a, r: {"bytes": len(a[0])}),
    ("hgio.write_hg", "kindep.hgio", "write_hg", lambda a, r: {"bytes": len(r)}),
    ("bounds.bound_report", "kindep.bounds", "bound_report", None),
    ("bounds.eval_f", "kindep.bounds", "eval_f", None),
    ("bounds.cps_per_vertex", "kindep.bounds", "cps_per_vertex", None),
    ("extract.greedy_peel", "kindep.extract", "greedy_peel", _size),
    ("extract.band_peel", "kindep.extract", "band_peel", _size),
    ("extract.k_partition", "kindep.extract", "k_partition",
     lambda a, r: {"moves": len(r.moves)}),
    ("extract.partition_extract", "kindep.extract", "partition_extract", _size),
    ("extract.best_extract", "kindep.extract", "best_extract",
     lambda a, r: {"size": r.size, "n": a[0].n}),
    ("exact.alpha_k_exact", "kindep.exact", "alpha_k_exact",
     lambda a, r: {"nodes": r.nodes, "budget_exceeded": int(r.status == "budget_exceeded")}),
    ("exact.chi_k_exact", "kindep.exact", "chi_k_exact",
     lambda a, r: {"nodes": r.nodes, "budget_exceeded": int(r.status == "budget_exceeded")}),
    ("exact.alpha_k_bruteforce", "kindep.exact", "alpha_k_bruteforce", None),
    ("verify.build_exhaustive_corpus", "kindep.verify", "build_exhaustive_corpus", None),
    ("verify.build_random_corpus", "kindep.verify", "build_random_corpus", None),
) + tuple(
    (f"verify.{name}", "kindep.verify", name, lambda a, r: {"skipped": r.skipped})
    for name in (
        "check_bound_soundness", "check_extraction_achievement", "check_fg_properties",
        "check_replication", "check_partition", "check_oracle_self_agreement",
        "check_remark_regime",
    )
)

# (metric prefix, Hypergraph attribute); __post_init__ is the canonicalising
# constructor body that every new hypergraph value runs.
METHODS = (
    ("hypergraph.Hypergraph.construct", "__post_init__"),
    ("hypergraph.induced", "induced"),
    ("hypergraph.induced_degrees", "induced_degrees"),
    ("hypergraph.k_independence_violation", "k_independence_violation"),
)

CLI_COMMANDS = ("gen", "bounds", "extract", "exact", "verify", "compare")

# Layers whose time is fitted against n on each large-files shape.
SLOPE_LAYERS = (
    ("generators.gen_random_uniform", ("sparse", "dense")),
    ("hgio.parse_hg", ("sparse", "dense")),
    ("extract.band_peel", ("sparse", "dense")),
    ("extract.best_extract", ("sparse", "dense")),
    ("extract.k_partition", ("dense",)),  # partition needs k >= 1
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, Any, Any]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn: Callable, *args: Any, observe: Observe | None = None,
             **kwargs: Any) -> Any:
        index = len(self.spans)
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if observe is not None:
            span.counters = observe(args, result)
        return result

    def _wrap(self, name: str, fn: Callable, observe: Observe | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.span(name, fn, *args, observe=observe, **kwargs)
        return traced

    def install(self) -> None:
        from kindep.hypergraph import Hypergraph

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "kindep" or key.startswith("kindep."))]
        for name, module_name, attr, observe in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(name, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapped)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._undo.append((value, dkey, dvalue))
                                value[dkey] = wrapped
        for name, attr in METHODS:
            self._replace(Hypergraph, attr, self._wrap(name, vars(Hypergraph)[attr], None))

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "counters"],
                       "spans": [[s.name, s.start, s.end, s.parent, s.counters]
                                 for s in self.spans]}, fh)
            fh.write("\n")


# -- reduction to per-layer metrics ------------------------------------------

def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out: list[tuple[str, str]] = []

    def add(prefix: str, stats: tuple[str, ...]) -> None:
        units = {"calls": "count", "s": "s", "self_s": "s", "edges": "count",
                 "ns_per_edge": "ns", "bytes": "B", "nodes": "count",
                 "ns_per_node": "ns", "budget_exceeded": "count", "levels": "calls/call",
                 "moves": "count", "augment_tries": "count", "augment_added": "count",
                 "augment_useful_ratio": "ratio"}
        out.extend((f"{prefix}.{stat}", units[stat]) for stat in stats)

    add("generators.gen_random_uniform", ("calls", "s", "edges", "ns_per_edge"))
    add("hgio.parse_hg", ("calls", "s", "bytes"))
    add("hgio.write_hg", ("calls", "s", "bytes"))
    for name, _ in METHODS:
        add(name, ("calls", "s"))
    for name in ("bound_report", "eval_f", "cps_per_vertex"):
        add(f"bounds.{name}", ("calls", "s"))
    for name in ("greedy_peel", "band_peel", "k_partition", "partition_extract", "best_extract"):
        add(f"extract.{name}", ("calls", "s", "self_s"))
    add("extract.band_peel", ("levels",))
    add("extract.k_partition", ("moves",))
    add("extract.best_extract", ("augment_tries", "augment_added", "augment_useful_ratio"))
    for name in ("alpha_k_exact", "chi_k_exact"):
        add(f"exact.{name}", ("calls", "s", "nodes", "ns_per_node", "budget_exceeded"))
    add("exact.alpha_k_bruteforce", ("calls", "s"))
    for name, _, attr, _ in FUNCTIONS:
        if attr.startswith("check_") or attr.startswith("build_"):
            out.append((f"{name}.s", "s"))
    out.append(("verify.skipped_pairs", "count"))
    for command in CLI_COMMANDS:
        add(f"cli.{command}", ("calls", "self_s"))
    for layer, shapes in SLOPE_LAYERS:
        out.extend((f"{layer}.slope.{shape}", "1") for shape in shapes)
    out.append(("trace.overhead_s", "s"))
    return out


def _fit_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layer_metrics(spans: list[Span], job_spans: list[tuple[tuple[str, int] | None, int, int]]
                  ) -> dict[str, float]:
    """Per-layer metrics from one traced pass.

    `s` is inclusive time of the outermost span of each name (recursion is
    not counted twice); `self_s` subtracts the time of direct child spans.
    `job_spans` gives each job's (instance, first span, end span) so that
    layer time can be grouped per large-files instance for the slopes.
    """
    child_time = [0.0] * len(spans)
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            child_time[span.parent] += span.duration
            children[span.parent].append(i)
    nested = [False] * len(spans)  # has an ancestor of the same name
    for i, span in enumerate(spans):
        p = span.parent
        while p >= 0 and not nested[i]:
            nested[i] = spans[p].name == span.name
            p = spans[p].parent

    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_time: dict[str, float] = {}
    counters: dict[str, float] = {}
    for i, span in enumerate(spans):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_time[span.name] = self_time.get(span.name, 0.0) + span.duration - child_time[i]
        if not nested[i]:
            incl[span.name] = incl.get(span.name, 0.0) + span.duration
        for key, value in span.counters.items():
            counters[f"{span.name}.{key}"] = counters.get(f"{span.name}.{key}", 0) + value

    # best_extract's contenders are its direct children; the largest is the winner
    tries = added = 0
    for i, span in enumerate(spans):
        if span.name == "extract.best_extract":
            winner = max(spans[c].counters["size"] for c in children[i]
                         if spans[c].name in ("extract.greedy_peel", "extract.band_peel",
                                              "extract.partition_extract"))
            tries += span.counters["n"] - winner
            added += span.counters["size"] - winner
    top_band = sum(1 for i, s in enumerate(spans) if s.name == "extract.band_peel" and not nested[i])

    metrics: dict[str, float] = {}
    for name, _ in per_layer_names():
        prefix, _, stat = name.rpartition(".")
        if stat == "calls":
            metrics[name] = calls.get(prefix, 0)
        elif stat == "s":
            metrics[name] = incl.get(prefix, 0.0)
        elif stat == "self_s":
            metrics[name] = self_time.get(prefix, 0.0)
        elif stat in ("edges", "bytes", "nodes", "budget_exceeded", "moves"):
            metrics[name] = counters.get(name, 0)
        elif stat == "ns_per_edge":
            edges = counters.get(prefix + ".edges", 0)
            metrics[name] = incl.get(prefix, 0.0) * 1e9 / edges if edges else 0.0
        elif stat == "ns_per_node":
            nodes = counters.get(prefix + ".nodes", 0)
            metrics[name] = incl.get(prefix, 0.0) * 1e9 / nodes if nodes else 0.0
    metrics["extract.band_peel.levels"] = calls.get("extract.band_peel", 0) / top_band if top_band else 0.0
    metrics["extract.best_extract.augment_tries"] = tries
    metrics["extract.best_extract.augment_added"] = added
    metrics["extract.best_extract.augment_useful_ratio"] = added / tries if tries else 0.0
    metrics["verify.skipped_pairs"] = sum(
        v for k, v in counters.items() if k.startswith("verify.check_") and k.endswith(".skipped"))

    for layer, shapes in SLOPE_LAYERS:
        for shape in shapes:
            per_n: dict[int, float] = {}
            for instance, lo, hi in job_spans:
                if instance is None or instance[0] != shape:
                    continue
                t = sum(spans[i].duration for i in range(lo, hi)
                        if spans[i].name == layer and not nested[i])
                per_n[instance[1]] = per_n.get(instance[1], 0.0) + t
            points = sorted((n, t) for n, t in per_n.items() if t > 0)
            metrics[f"{layer}.slope.{shape}"] = _fit_slope(points) if len(points) >= 2 else 0.0
    return metrics
