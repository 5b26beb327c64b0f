"""Record the output digests that bench/run.py checks every job against.

    python3 bench/record_digests.py

Runs one untraced pass of every workload on every input set (0 to
run.INPUT_SETS - 1) and stores each job's output digest in
bench/digests.json.  Outputs must be the same bytes on every run and every
commit, so re-record only for a change that is meant to alter kindep's
output, and say so in its description.  An input set whose jobs fail their
checks is reported and not recorded, and the script exits with 1.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    run.import_kindep()
    import workloads

    with open(run.DIGESTS, encoding="ascii") as fh:
        table = json.load(fh)
    status = 0
    for seed in range(run.INPUT_SETS):
        for name in workloads.WORKLOADS:
            workdir = os.path.join(run.ROOT, ".bench_work", f"record-{name}-{seed}-{os.getpid()}")
            try:
                wl = workloads.build(name, seed, workdir)
                workloads.write_inputs(wl)
                bench = run.Run(wl, None)
                bench.one_pass()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if bench.failures:
                status = 1
                print(f"{name} input set {seed}: not recorded; " + "; ".join(bench.failures))
                continue
            table.setdefault(name, {})[str(seed)] = bench.digests
            print(f"{name} input set {seed}: {len(bench.digests)} digests", flush=True)
        with open(run.DIGESTS, "w", encoding="ascii") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
