"""The benchmark's three workloads: their inputs, job lists and output checks.

A job is one `kindep` CLI invocation.  Its output is the bytes it prints
on stdout plus the bytes of any file it writes; the benchmark hashes that
output and also checks it here, independently of kindep's own code, so a
wrong answer shows even in digests re-recorded from a faulty change.

Instance shapes are fixed; the workload seed only changes which instances
of those shapes are drawn (the compare corpus and the large files) or how
their vertices are labelled (the oracle instances).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from kindep import Hypergraph, gen_random_uniform, save_hg

WORKLOADS = ("corpus-small", "large-files", "oracle-deep")

# Node budget for every exact query: far above what the seed code spends
# on any oracle-deep instance, so a budget_exceeded result is a failure.
ORACLE_BUDGET = 3_000_000

# large-files: (shape, s, edges per vertex, k, sizes)
LARGE_SHAPES = (
    ("sparse", 2, 1, 0, (1000, 2000, 4000)),
    ("dense", 3, 10, 1, (500, 1000, 2000)),
)
EXTRACT_ALGOS = ("greedy", "thm37", "partition", "best")

# oracle-deep alpha queries: (n, m, s, k, base instance seed, alpha_k).
# Each base instance is fixed and the workload seed relabels its vertices,
# so the exact value is known in advance for every seed.  Search cost
# varies about 2x between random instances of one shape but only about 20%
# between labellings of one instance; relabelling many similar instances
# keeps the total work steady from seed to seed while every input changes.
ALPHA_QUERIES = tuple(
    (n, 3 * n, 3, k, base, value)
    for n, k, bases in (
        (32, 0, {201: 18, 202: 18, 203: 18, 204: 18, 205: 18, 206: 18, 207: 18, 208: 17}),
        (28, 1, {211: 17, 212: 17, 213: 17, 214: 17, 215: 17, 216: 17, 217: 17, 218: 17}),
        (26, 2, {221: 18, 222: 17, 223: 17, 224: 17, 225: 17, 226: 18, 227: 17, 228: 17}),
    )
    for base, value in bases.items()
) + ((48, 48, 2, 0, 110, 28),)  # one sparse graph
# The chi search assigns vertices in id order and its cost varies about
# 50% between labellings, so the chi instance keeps its labels on every
# seed.  At ~1.4e5 nodes it is the workload's largest job.
CHI_QUERY = (30, 200, 2, 2, 114, 4)


def query_label(n: int, s: int, k: int, base: int) -> str:
    return f"s{s}-n{n}-k{k}-{base}"


COMPARE_CONFIG = "exhaustive_n = 4\nrandom_count = 150\nmaster_seed = {seed}\n"


@dataclass(frozen=True)
class Job:
    """One CLI invocation and how to judge its output.

    `files` are paths the job writes whose bytes belong to its output;
    `check` gets the stdout text and returns an error message or None;
    `instance` groups large-files jobs by (shape, n) for scaling fits.
    """

    id: str
    argv: tuple[str, ...]
    check: Callable[[str], str | None]
    files: tuple[str, ...] = ()
    instance: tuple[str, int] | None = None


@dataclass
class Workload:
    name: str
    seed: int
    workdir: str
    jobs: list[Job] = field(default_factory=list)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


# -- independent output checks ---------------------------------------------

def read_hg(path: str) -> tuple[int, int, list[tuple[int, ...]]]:
    """(n, s, edges) of a canonical .hg file, 0-based; raises ValueError."""
    n = s = m = -1
    edges = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            fields = line.split()
            if not fields or fields[0] == "c":
                continue
            if fields[0] == "p":
                n, m, s = (int(f) for f in fields[2:5])
            elif fields[0] == "e":
                edges.append(tuple(int(f) - 1 for f in fields[1:]))
            else:
                raise ValueError(f"{path}: unexpected line {line!r}")
    if len(edges) != m:
        raise ValueError(f"{path}: header announces {m} edges, file has {len(edges)}")
    return n, s, edges


def max_induced_degree(edges: list[tuple[int, ...]], members: set[int]) -> int:
    deg: dict[int, int] = {}
    for edge in edges:
        if members.issuperset(edge):
            for v in edge:
                deg[v] = deg.get(v, 0) + 1
    return max(deg.values(), default=0)


def _check_gen(path: str, n: int, m: int, s: int) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        hn, hs, edges = read_hg(path)
        if (hn, hs, len(edges)) != (n, s, m):
            return f"wrote n={hn} s={hs} m={len(edges)}, asked for n={n} s={s} m={m}"
        if any(len(e) != s or list(e) != sorted(set(e)) or e[0] < 0 or e[-1] >= n
               for e in edges):
            return "edge that is not a sorted s-subset of the vertex range"
        if edges != sorted(edges) or len(set(edges)) != m:
            return "edges not sorted or not distinct"
        if not stdout.startswith(f"n={n} m={m} s={s} "):
            return f"unexpected summary line {stdout.strip()!r}"
        return None
    return check


def _check_bounds(path: str, k: int) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        report = json.loads(stdout)
        n, _, edges = read_hg(path)
        if (report["n"], report["e"], report["k"]) != (n, len(edges), k):
            return "report describes another instance"
        if not 1 <= report["best"] <= n:
            return f"best lower bound {report['best']} outside [1, {n}]"
        return None
    return check


def _check_extract(path: str, k: int) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        result = json.loads(stdout)
        n, _, edges = read_hg(path)
        members = {v - 1 for v in result["set"]}
        if result["size"] != len(result["set"]) or len(members) != result["size"]:
            return "size does not match the set"
        if not all(0 <= v < n for v in members):
            return "vertex outside the instance"
        worst = max_induced_degree(edges, members)
        if worst > k or worst != result["certified_max_degree"]:
            return f"set has induced degree {worst}, k={k}, certified {result['certified_max_degree']}"
        return None
    return check


def _check_alpha(path: str, k: int, value: int) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        result = json.loads(stdout)
        if result["status"] != "exact":
            return f"oracle status {result['status']}"
        if result["value"] != value:
            return f"alpha_k = {result['value']}, expected {value}"
        _, _, edges = read_hg(path)
        members = {v - 1 for v in result["witness"]}
        if len(members) != result["value"]:
            return "witness size differs from the value"
        if max_induced_degree(edges, members) > k:
            return "witness is not k-independent"
        return None
    return check


def _check_chi(path: str, k: int, value: int) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        result = json.loads(stdout)
        if result["status"] != "exact":
            return f"oracle status {result['status']}"
        if result["value"] != value:
            return f"chi_k = {result['value']}, expected {value}"
        n, _, edges = read_hg(path)
        classes = [{v - 1 for v in cls} for cls in result["witness"]]
        if len(classes) != result["value"]:
            return "class count differs from the value"
        if sorted(v for cls in classes for v in cls) != list(range(n)):
            return "classes do not partition the vertices"
        if any(max_induced_degree(edges, cls) > k for cls in classes):
            return "a class is not k-independent"
        return None
    return check


def _check_verify(stdout: str) -> str | None:
    lines = stdout.splitlines()
    if not lines or lines[-1] != "result: PASS":
        return f"report ends in {lines[-1] if lines else '(nothing)'!r}"
    return None


def _check_compare(stdout: str) -> str | None:
    rows = [line.split(",") for line in stdout.splitlines()]
    header = rows[0]
    if len(rows) < 2 or any(len(r) != len(header) for r in rows):
        return "ragged or empty CSV"
    col = {name: i for i, name in enumerate(header)}
    for r in rows[1:]:
        if r[col["alpha"]] == "":
            return f"no exact alpha for {r[0]}"
        alpha = int(r[col["alpha"]])
        sizes = [int(r[col[c]]) for c in ("best", "greedy_size", "band_size", "best_size")]
        if max(sizes) > alpha:
            return f"{r[0]} k={r[col['k']]}: a bound or set exceeds alpha={alpha}"
    return None


# -- workload builders -------------------------------------------------------

def relabel(h: Hypergraph, seed: int) -> Hypergraph:
    perm = np.random.default_rng(seed).permutation(h.n).tolist()
    return Hypergraph(h.n, h.s, tuple(tuple(perm[v] for v in edge) for edge in h.edges))


def write_inputs(wl: Workload) -> None:
    """Write the files the jobs read; this is the timed part of set-up."""
    os.makedirs(wl.workdir, exist_ok=True)
    if wl.name == "corpus-small":
        with open(wl.path("compare.cfg"), "w", encoding="ascii") as fh:
            fh.write(COMPARE_CONFIG.format(seed=wl.seed))
    elif wl.name == "oracle-deep":
        for n, m, s, k, base, _ in ALPHA_QUERIES:
            h = relabel(gen_random_uniform(n, m, s, base), wl.seed)
            save_hg(h, wl.path(query_label(n, s, k, base) + ".hg"))
        n, m, s, k, base, _ = CHI_QUERY
        save_hg(gen_random_uniform(n, m, s, base), wl.path(query_label(n, s, k, base) + ".hg"))


def build(name: str, seed: int, workdir: str) -> Workload:
    """The workload's fixed job list; inputs are written by write_inputs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    wl = Workload(name, seed, workdir)
    if name == "corpus-small":
        # verify runs the default corpus on every seed: its cost over master
        # seeds 0-39 has IQR/median 0.28, wider than any usable bound
        wl.jobs.append(Job("verify", ("verify", "--output", wl.path("verify_out")),
                           _check_verify))
        wl.jobs.append(Job("compare", ("compare", "--config", wl.path("compare.cfg")),
                           _check_compare))
    elif name == "large-files":
        for shape, s, per_vertex, k, sizes in LARGE_SHAPES:
            for n in sizes:
                m = per_vertex * n
                label = f"{shape}-n{n}"
                hg = wl.path(label + ".hg")
                gen_seed = seed * 1000 + n + s
                inst = (shape, n)
                wl.jobs.append(Job(f"gen/{label}", (
                    "gen", "--random", "-n", str(n), "-m", str(m), "-s", str(s),
                    "--seed", str(gen_seed), "--output", hg,
                ), _check_gen(hg, n, m, s), (hg,), inst))
                wl.jobs.append(Job(f"bounds/{label}", ("bounds", hg, "-k", str(k)),
                                   _check_bounds(hg, k), (), inst))
                for algo in EXTRACT_ALGOS:
                    if algo == "partition" and k == 0:
                        continue
                    wl.jobs.append(Job(f"extract-{algo}/{label}", (
                        "extract", hg, "-k", str(k), "--algo", algo,
                    ), _check_extract(hg, k), (), inst))
    else:
        budget = str(ORACLE_BUDGET)
        for n, _, s, k, base, value in ALPHA_QUERIES:
            label = query_label(n, s, k, base)
            hg = wl.path(label + ".hg")
            wl.jobs.append(Job(f"alpha/{label}", ("exact", hg, "-k", str(k), "--budget", budget),
                               _check_alpha(hg, k, value)))
        n, _, s, k, base, value = CHI_QUERY
        label = query_label(n, s, k, base)
        hg = wl.path(label + ".hg")
        wl.jobs.append(Job(f"chi/{label}", (
            "exact", hg, "-k", str(k), "--quantity", "chi", "--budget", budget,
        ), _check_chi(hg, k, value)))
    return wl
