"""Command-line interface.

Subcommands: gen, bounds, extract, exact, verify, compare.  Exit codes
are a stable contract: 0 success, 1 verification or property failure
or an extraction defect, 2 usage or input error.  Structured output is
JSON by default; bounds can also render an aligned table.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction
from functools import partial

from kindep.bounds import BoundReport, bound_report
from kindep.exact import alpha_k_exact, chi_k_exact
from kindep.extract import (
    ExtractionDefect,
    _best_of,
    _contenders,
    band_peel,
    best_extract,
    greedy_peel,
    partition_extract,
)
from kindep.generators import gen_complete, gen_random_uniform
from kindep.hgio import load_hg, save_hg
from kindep.hypergraph import Hypergraph, HypergraphError
from kindep.parallel import fan_out
from kindep.verify import (
    ConfigError,
    VerifyConfig,
    build_exhaustive_corpus,
    build_random_corpus,
    parse_verify_config,
    run_verify,
)

_ALGORITHMS = {
    "greedy": greedy_peel,
    "thm37": band_peel,
    "partition": partition_extract,
    "best": best_extract,
}

# Instances per compare task; each runs every k on them.
_CHUNK = 16

CSV_BOUND_COLUMNS = (
    "max_degree", "edge_count", "avg_degree", "avg_degree_simple",
    "caro_tuza_alpha", "cps", "caro_tuza_k", "caro_tuza_k_diag",
)


class _UsageError(Exception):
    pass


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.complete:
        if args.m is not None:
            raise _UsageError("--complete takes no -m (edge count is C(n, s))")
        h = gen_complete(args.n, args.s)
        default_name = f"complete_n{args.n}_s{args.s}.hg"
    else:
        m = 0 if args.m is None else args.m
        h = gen_random_uniform(args.n, m, args.s, args.seed)
        default_name = f"random_n{args.n}_m{m}_s{args.s}_seed{args.seed}.hg"
    path = args.output or default_name
    save_hg(h, path)
    d = h.avg_degree
    print(f"n={h.n} m={h.e} s={h.s} delta={h.max_degree} d={d.numerator}/{d.denominator}")
    print(f"wrote {path}", file=sys.stderr)
    return 0


def _format_table(report: BoundReport) -> str:
    lines = [
        f"instance: n={report.n} e={report.e} s={report.s} "
        f"k={report.k} delta={report.delta} "
        f"d={report.d.numerator}/{report.d.denominator}",
        f"{'bound':<20}{'value':>14}{'float':>14}{'ceil':>6}  note",
    ]
    for b in report.bounds:
        if not b.applicable:
            lines.append(f"{b.name:<20}{'-':>14}{'-':>14}{'-':>6}  {b.reason}")
            continue
        exact = (
            f"{b.value.numerator}/{b.value.denominator}"
            if isinstance(b.value, Fraction)
            else "-"
        )
        lines.append(
            f"{b.name:<20}{exact:>14}{float(b.value):>14.6g}{b.ceiled():>6}"
        )
    lines.append(f"best lower bound: {report.best_lower_bound}")
    return "\n".join(lines) + "\n"


def cmd_bounds(args: argparse.Namespace) -> int:
    h = load_hg(args.file)
    report = bound_report(h, args.k)
    if args.table:
        _emit(_format_table(report), args.output)
    else:
        _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.output)
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    h = load_hg(args.file)
    result = _ALGORITHMS[args.algo](h, args.k)
    _emit(json.dumps(result.to_json_dict(), indent=2) + "\n", args.output)
    return 0


def cmd_exact(args: argparse.Namespace) -> int:
    h = load_hg(args.file)
    budget = args.budget if args.budget else None
    oracle = alpha_k_exact if args.quantity == "alpha" else chi_k_exact
    result = oracle(h, args.k, budget)
    _emit(json.dumps(result.to_json_dict(), indent=2) + "\n", args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.output == "":
        raise _UsageError("--output must name a directory")
    if args.config is None:
        cfg = VerifyConfig()
    else:
        with open(args.config, "r", encoding="ascii") as fh:
            cfg = parse_verify_config(fh.read())
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.budget is not None:
        overrides["alpha_budget"] = overrides["chi_budget"] = args.budget or None
    cfg = replace(cfg, **overrides)
    outcome = run_verify(cfg, out_dir=args.output)
    sys.stdout.write(outcome.report_text)
    return 0 if outcome.passed else 1


def _fmt_float(value: float) -> str:
    return f"{value:.12g}"


def _csv_row_for(label: str, h: Hypergraph, k: int, budget: int | None) -> list[str]:
    report = bound_report(h, k)
    row = [
        label, str(h.n), str(h.e), str(h.s), str(k), str(report.delta),
        _fmt_float(float(report.d)), f"{report.d.numerator}/{report.d.denominator}",
    ]
    present = {b.name: b for b in report.bounds}
    for name in CSV_BOUND_COLUMNS:
        b = present.get(name)
        if b is None or not b.applicable:
            row.append("")
            if name != "cps":
                row.append("")
            continue
        row.append(_fmt_float(float(b.value)))
        if name != "cps":
            row.append(f"{b.value.numerator}/{b.value.denominator}")
    row.append(str(report.best_lower_bound))
    oracle = alpha_k_exact(h, k, budget)
    row.append("" if oracle.value is None else str(oracle.value))
    contenders = _contenders(h, k)
    row.extend(str(res.size) for res in contenders)
    if k < 1:
        row.append("")  # partition needs k >= 1
    row.append(str(_best_of(h, k, contenders).size))
    return row


def _csv_rows(sources: list[tuple[str, Hypergraph]], ks: list[int],
              budget: int | None) -> list[str]:
    return [",".join(_csv_row_for(label, h, k, budget)) for label, h in sources for k in ks]


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        ks = [int(p) for p in args.k.split(",") if p.strip()]
    except ValueError:
        raise _UsageError("-k needs a comma-separated list of nonnegative integers") from None
    if not ks or any(k < 0 for k in ks):
        raise _UsageError("-k needs a comma-separated list of nonnegative integers")
    sources: list[tuple[str, Hypergraph]] = []
    for path in args.files:
        name = path.rsplit("/", 1)[-1]
        name = name[:-3] if name.endswith(".hg") else name
        sources.append((name, load_hg(path)))
    if args.config is not None:
        with open(args.config, "r", encoding="ascii") as fh:
            cfg = parse_verify_config(fh.read())
        seen: set[Hypergraph] = set()
        for inst in build_exhaustive_corpus(cfg) + build_random_corpus(cfg):
            if inst.h in seen:
                continue
            seen.add(inst.h)
            sources.append((inst.uid.split("k")[0] if inst.origin == "exhaustive" else inst.uid, inst.h))
    if not sources:
        raise _UsageError("compare needs .hg files or --config with a corpus")
    budget = args.budget if args.budget else None
    header = ["instance", "n", "m", "s", "k", "delta", "d", "d_frac"]
    for name in CSV_BOUND_COLUMNS:
        header.append(name)
        if name != "cps":
            header.append(name + "_frac")
    header += ["best", "alpha", "greedy_size", "band_size", "partition_size", "best_size"]
    lines = [",".join(header)]
    for rows in fan_out([partial(_csv_rows, sources[i:i + _CHUNK], ks, budget)
                         for i in range(0, len(sources), _CHUNK)]):
        lines += rows
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kindep",
        description="Bounds, extraction, and exact oracles for k-independence "
                    "in uniform hypergraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, budget: bool = False) -> None:
        p.add_argument("--output", help="write output to this path")
        if budget:
            p.add_argument("--budget", type=_nonneg,
                           help="search node budget, 0 = unlimited")

    p_gen = sub.add_parser("gen", help="generate an instance file")
    kind = p_gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--complete", action="store_true", help="all C(n, s) edges")
    kind.add_argument("--random", action="store_true", help="seeded uniform edge sample")
    p_gen.add_argument("-n", type=_positive, required=True, help="vertex count")
    p_gen.add_argument("-m", type=_nonneg, help="edge count (random only)")
    p_gen.add_argument("-s", type=_positive, required=True, help="edge size")
    p_gen.add_argument("--seed", type=_nonneg, default=0, help="random seed")
    p_gen.add_argument("--output", help="output .hg path (default derived)")
    p_gen.set_defaults(func=cmd_gen)

    p_bounds = sub.add_parser("bounds", help="evaluate every lower bound")
    p_bounds.add_argument("file", help=".hg instance")
    p_bounds.add_argument("-k", type=_nonneg, required=True, help="independence parameter")
    common(p_bounds)
    fmt = p_bounds.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--table", action="store_true", help="aligned table output")
    p_bounds.set_defaults(func=cmd_bounds)

    p_extract = sub.add_parser("extract", help="construct a k-independent set")
    p_extract.add_argument("file", help=".hg instance")
    p_extract.add_argument("-k", type=_nonneg, required=True)
    p_extract.add_argument("--algo", choices=sorted(_ALGORITHMS), default="best")
    common(p_extract)
    p_extract.set_defaults(func=cmd_extract)

    p_exact = sub.add_parser("exact", help="exact alpha_k or chi_k")
    p_exact.add_argument("file", help=".hg instance")
    p_exact.add_argument("-k", type=_nonneg, required=True)
    p_exact.add_argument("--quantity", choices=("alpha", "chi"), default="alpha")
    common(p_exact, budget=True)
    p_exact.set_defaults(func=cmd_exact)

    p_verify = sub.add_parser("verify", help="run the verification corpus")
    p_verify.add_argument("--config", help="key=value config file (default built in)")
    p_verify.add_argument("--seed", type=_nonneg, help="override the master seed")
    p_verify.add_argument("--output", help="directory for counterexample dumps (default: "
                                           "the config's output_dir); the report goes to stdout")
    p_verify.add_argument("--budget", type=_nonneg,
                          help="node budget of both the alpha and the chi oracle, "
                               "overriding the config's; 0 = unlimited")
    p_verify.set_defaults(func=cmd_verify)

    p_compare = sub.add_parser("compare", help="CSV of bounds vs exact values")
    p_compare.add_argument("files", nargs="*", help=".hg instances")
    p_compare.add_argument("--config", help="also include the config's corpus")
    p_compare.add_argument("-k", default="0,1,2,3",
                           help="comma-separated k values (default 0,1,2,3)")
    common(p_compare, budget=True)
    p_compare.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or help
        return exc.code
    try:
        return args.func(args)
    except ExtractionDefect as exc:  # an extractor bug, on any subcommand
        print(f"defect: {exc}", file=sys.stderr)
        return 1
    except (_UsageError, HypergraphError, ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
