"""kindep benchmark: one workload per run, driven through `kindep.cli.main`.

    python3 bench/run.py --workload corpus-small --seed 3 --seconds 30 --trace 0

Each run builds the workload's inputs from input set `seed % INPUT_SETS`,
then repeats the workload's fixed job list (one job = one in-process CLI
invocation) until the time budget is spent, hashing every job's output
bytes and checking them against the digests recorded in bench/digests.json
for that input set and against the independent checks in workloads.py.
Every input set has recorded digests, so every seed is checked byte for
byte; a run whose input set has none stops with an error.  Everything runs in this one process
with no extra threads, except the short-lived interpreters that time the
import cost during set-up.

With --trace 0 the run reports the end-to-end metrics.  Each time is the
best of its repeats (the fastest pass, the slowest job's fastest run, the
fastest set-up), as timeit does: the work is deterministic, so noise from
other load on the host only ever adds time, and the best of a few repeats
moves far less from run to run than their median.  With --trace 1 it
alternates untraced and traced passes, starting and ending untraced, and
reports the per-layer metrics of the traced passes (medians), plus the
tracing overhead against the warm untraced passes.  Per-layer
metrics that a workload never exercises read 0.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give each metric with
its unit, fail_ratio (= failed / attempted) and the environment.  A full
record (environment, per-job times, digests and, when traced, the spans)
goes to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
SETUP_REPEATS = 15
# --seed n draws input set n % INPUT_SETS; bench/record_digests.py records all of them
INPUT_SETS = 32


def import_kindep() -> None:
    """Import kindep from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "kindep", "__init__.py")):
        raise SystemExit(f"error: no kindep sources under {SRC}")
    sys.path.insert(0, SRC)
    import kindep

    if os.path.dirname(os.path.dirname(os.path.abspath(kindep.__file__))) != SRC:
        raise SystemExit(f"error: kindep was imported from {kindep.__file__}, not {SRC}")


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else "not a git checkout"
    except OSError:
        commit = "git not found"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def run_job(job, tracer=None) -> tuple[float, int, bytes]:
    """(seconds, exit code, output bytes) of one in-process CLI call."""
    from kindep.cli import main

    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            if tracer is None:
                code = main(list(job.argv))
            else:
                code = tracer.span(f"cli.{job.argv[0]}", main, list(job.argv))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    elapsed = time.perf_counter() - start
    out = stdout.getvalue().encode("utf-8")
    for path in job.files:
        with open(path, "rb") as fh:
            out += fh.read()
    return elapsed, code, out


class Run:
    """Executes passes of one workload and tallies timings and failures."""

    def __init__(self, workload, recorded: dict | None) -> None:
        self.wl = workload
        self.expected = recorded  # job id -> digest, or None until the first pass
        self.attempted = 0
        self.failures: list[str] = []
        self.checked: set[str] = set()
        self.job_times: dict[str, list[float]] = {job.id: [] for job in workload.jobs}
        self.digests: dict[str, str] = {}  # of the latest pass

    def one_pass(self, tracer=None) -> tuple[float, list[tuple]]:
        # a job writes new files rather than truncating last pass's copies
        for job in self.wl.jobs:
            for path in job.files:
                if os.path.exists(path):
                    os.remove(path)
        gc.collect()
        results = []
        spans = []
        start = time.perf_counter()
        for job in self.wl.jobs:
            first = len(tracer.spans) if tracer else 0
            results.append(run_job(job, tracer))
            spans.append((job.instance, first, len(tracer.spans) if tracer else 0))
        wall = time.perf_counter() - start
        digests = {}
        for job, (elapsed, code, out) in zip(self.wl.jobs, results):
            self.attempted += 1
            digest = hashlib.sha256(out).hexdigest()[:16]
            digests[job.id] = digest
            error = None
            if code != 0:
                error = f"exit code {code}"
            elif self.expected is not None and self.expected.get(job.id) != digest:
                error = f"digest {digest} != expected {self.expected.get(job.id)}"
            elif job.id not in self.checked:
                try:
                    error = job.check(out.decode("utf-8"))
                except (ValueError, KeyError, IndexError, OSError) as exc:
                    error = f"unreadable output: {exc!r}"
                self.checked.add(job.id)
            if error is not None:
                self.failures.append(f"{job.id}: {error}")
            if tracer is None:
                self.job_times[job.id].append(elapsed)
        if self.expected is None:
            self.expected = digests
        self.digests = digests
        return wall, spans


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def setup(workloads, name: str, seed: int, workdir: str):
    """Time a cold interpreter importing kindep and NumPy plus the input
    writes, SETUP_REPEATS times, each into a fresh directory (rewriting a
    file in place can stall on write-back).  Returns the workload whose
    inputs were written last, and the times."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for i in range(SETUP_REPEATS):
        wl = workloads.build(name, seed, os.path.join(workdir, f"setup{i}"))
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, kindep"],
                       env=env, cwd=ROOT, check=True)
        workloads.write_inputs(wl)
        times.append(time.perf_counter() - start)
    return wl, times


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_kindep()
    sys.path.insert(0, BENCH_DIR)
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    input_set = args.seed % INPUT_SETS
    with open(DIGESTS, encoding="ascii") as fh:
        table = json.load(fh).get(args.workload, {})
    recorded = table.get(str(input_set))
    if recorded is None:
        print(f"error: no digests recorded for {args.workload} input set {input_set}; "
              f"recorded: {', '.join(sorted(table, key=int)) or 'none'}; "
              f"run bench/record_digests.py", file=sys.stderr)
        return 1
    try:
        wl, setup_times = setup(workloads, args.workload, input_set, workdir)
        run = Run(wl, recorded)
        deadline = time.perf_counter() + args.seconds
        untraced, traced = [], []
        while True:
            begun = time.perf_counter()
            if args.trace and untraced:  # every traced pass sits between two untraced ones
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    wall, job_spans = run.one_pass(tracer)
                finally:
                    tracer.uninstall()
                traced.append((wall, tracing.layer_metrics(tracer.spans, job_spans)))
                if len(traced) == 1:  # one file per workload, replaced by each run
                    os.makedirs(OUT_DIR, exist_ok=True)
                    tracer.dump(os.path.join(OUT_DIR, f"{args.workload}-spans.json"))
                del tracer
            wall, _ = run.one_pass()
            untraced.append(wall)
            now = time.perf_counter()
            if (traced or not args.trace) and now + (now - begun) > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = len(untraced)
    if args.trace:
        names = tracing.per_layer_names()
        # median_low keeps counts whole: it picks a pass's value, never an average
        values = {name: statistics.median_low(m[name] for _, m in traced) for name, _ in names
                  if name != "trace.overhead_s"}
        # against warm untraced passes only: every traced pass is warm
        values["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                      - statistics.median(untraced[1:]))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    else:
        slowest_id, slowest = max(((jid, min(ts))
                                   for jid, ts in run.job_times.items()), key=lambda p: p[1])
        metrics = {
            "wall_s": {"value": min(untraced), "unit": "s"},
            "slowest_job_s": {"value": slowest, "unit": "s"},
            "setup_s": {"value": min(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    failed = len(run.failures)
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": metrics}

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, tag + ".json"), "w", encoding="ascii") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "input_set": input_set, "trace": args.trace, "environment": env, "jobs": len(wl.jobs),
            "untraced_pass_walls": untraced, "traced_pass_walls": [w for w, _ in traced],
            "setup_times": setup_times, "job_times": run.job_times,
            "digests": run.digests,
            "failures": run.failures, "result": result,
        }, fh, indent=1)
        fh.write("\n")

    print("environment: " + json.dumps(env))
    print(f"workload {args.workload}, seed {args.seed} (input set {input_set}): "
          f"{len(wl.jobs)} jobs x {passes} untraced passes"
          f"{f' + {len(traced)} traced' if args.trace else ''}")
    if not args.trace:
        print(f"slowest job: {slowest_id} (best of {passes})")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    print(f"fail_ratio = {failed}/{run.attempted} = {failed / run.attempted:.4f}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
