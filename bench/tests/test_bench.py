"""Tests of the benchmark itself; run with `python -m pytest bench/tests`.

They use the corpus-small workload, the cheapest of the three.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

run.import_kindep()

import workloads  # noqa: E402


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


def bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def recorded(input_set: int) -> dict:
    with open(run.DIGESTS, encoding="ascii") as fh:
        return json.load(fh)["corpus-small"][str(input_set)]


def one_pass(seed: int, workdir: str, recorded: dict | None = None) -> run.Run:
    wl = workloads.build("corpus-small", seed, workdir)
    workloads.write_inputs(wl)
    result = run.Run(wl, recorded)
    result.one_pass()
    return result


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(trace: int, section: str) -> None:
    # 1729 folds to input set 1, so this also checks against recorded digests
    result = bench("--workload", "corpus-small", "--seed", "1729",
                   "--seconds", "1", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    wanted = {m["name"]: m["unit"] for m in spec()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["exact.alpha_k_exact.nodes"]["value"] > 0
        assert result["metrics"]["cli.verify.calls"]["value"] == 1


def test_corrupted_output_is_a_failure(tmp_path, monkeypatch) -> None:
    import kindep.cli

    monkeypatch.setattr(kindep.cli, "_fmt_float", lambda value: f"{value:.6g}")
    result = one_pass(1, str(tmp_path), recorded(1))
    assert result.attempted == 2
    assert [f.split(":")[0] for f in result.failures] == ["compare"]


def test_wrong_answer_fails_without_recorded_digests(tmp_path) -> None:
    wl = workloads.build("oracle-deep", 3, str(tmp_path))
    chi = wl.jobs[-1]
    workloads.write_inputs(wl)
    n = workloads.CHI_QUERY[0]
    claim = {"quantity": "chi_k", "k": 2, "value": 3, "status": "exact",
             "witness": [list(range(1, n - 1)), [n - 1], [n]], "nodes": 1}
    assert chi.check(json.dumps(claim)) is not None


def test_another_seed_gives_other_repeatable_digests(tmp_path) -> None:
    first = one_pass(1, str(tmp_path / "a"), recorded(1))
    other = one_pass(2, str(tmp_path / "b"), recorded(2))
    assert first.failures == [] and other.failures == []
    assert first.digests["compare"] != other.digests["compare"]
    assert first.digests["verify"] == other.digests["verify"]  # the default corpus on every seed


def test_input_set_without_digests_stops_the_run(tmp_path, monkeypatch, capsys) -> None:
    table = tmp_path / "digests.json"
    table.write_text(json.dumps({"corpus-small": {"0": recorded(0)}}))
    monkeypatch.setattr(run, "DIGESTS", str(table))
    assert run.main(["--workload", "corpus-small", "--seed", "33", "--seconds", "1"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "input set 1" in out.err and "recorded: 0" in out.err
