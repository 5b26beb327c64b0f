"""Command-line contract: exit codes, output formats, file handling.

Everything goes through main(argv) for speed; one subprocess test
confirms the installed entry point wires up to the same main.
"""

import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time

import pytest

from kindep import ExtractionDefect, gen_complete, gen_random_uniform, write_hg
from kindep import cli, extract, parallel, verify
from kindep.cli import main

K4_TEXT = write_hg(gen_complete(4, 3))

SMALL_CONFIG = """\
exhaustive_n = 4
exhaustive_k = 0,1
random_count = 10
random_n_max = 9
random_m_max_factor = 2
replication_count = 3
replication_n_max = 5
"""


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.hg"
    path.write_text(K4_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_complete(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "gen", "--complete", "-n", "4", "-s", "3")
    assert code == 0
    assert out == "n=4 m=4 s=3 delta=3 d=3/1\n"
    assert err == "wrote complete_n4_s3.hg\n"
    assert (tmp_path / "complete_n4_s3.hg").read_text() == K4_TEXT


def test_gen_random_is_byte_stable(tmp_path, capsys):
    target = tmp_path / "inst.hg"
    code, out, _ = run_cli(
        capsys, "gen", "--random", "-n", "8", "-m", "20", "-s", "3",
        "--seed", "42", "--output", str(target),
    )
    assert code == 0
    assert out.startswith("n=8 m=20 s=3 ")
    first = target.read_bytes()
    run_cli(capsys, "gen", "--random", "-n", "8", "-m", "20", "-s", "3",
            "--seed", "42", "--output", str(target))
    assert target.read_bytes() == first
    assert first.decode().splitlines()[0] == "p hyp 8 20 3"


def test_gen_usage_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "gen", "--complete", "-n", "4", "-s", "3", "-m", "2")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run_cli(capsys, "gen", "--random", "-n", "4", "-m", "5", "-s", "3")
    assert code == 2
    assert "error:" in err


def test_bounds_json(k4_file, capsys):
    code, out, _ = run_cli(capsys, "bounds", k4_file, "-k", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["best"] == 2
    assert doc["d"] == {"num": 3, "den": 1}
    by_name = {b["name"]: b for b in doc["bounds"]}
    assert by_name["caro_tuza_alpha"]["num"] == 64
    assert by_name["caro_tuza_alpha"]["den"] == 35
    assert by_name["max_degree"]["applicable"] is False


def test_bounds_table(k4_file, capsys):
    code, out, _ = run_cli(capsys, "bounds", k4_file, "-k", "2", "--table")
    assert code == 0
    assert out.startswith("instance: n=4 e=4 s=3 k=2 delta=3 d=3/1\n")
    assert "best lower bound: 3" in out
    assert "8/3" in out and "12/5" in out


def test_bounds_output_file(k4_file, tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "bounds", k4_file, "-k", "1",
                           "--output", str(dest))
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["best"] == 3


def test_bounds_missing_file(capsys):
    code, _, err = run_cli(capsys, "bounds", "no_such_file.hg", "-k", "0")
    assert code == 2
    assert "error:" in err


def test_bounds_directory_argument(tmp_path, capsys):
    code, out, err = run_cli(capsys, "bounds", str(tmp_path), "-k", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["bounds", "extract"])
def test_budget_rejected_where_unused(k4_file, capsys, command):
    code, out, err = run_cli(capsys, command, k4_file, "-k", "0", "--budget", "5")
    assert code == 2
    assert out == ""
    assert "--budget" in err


@pytest.mark.parametrize("argv", [
    ("extract", "-k", "0"),
    ("exact", "-k", "0"),
    ("verify",),
    ("compare",),
])
def test_json_flag_only_on_bounds(k4_file, capsys, argv):
    command, *rest = argv
    files = [] if command == "verify" else [k4_file]
    code, out, err = run_cli(capsys, command, *files, *rest, "--json")
    assert code == 2
    assert out == ""
    assert "--json" in err


def test_table_flag_rejected_elsewhere(k4_file, capsys):
    code, _, err = run_cli(capsys, "exact", k4_file, "-k", "0", "--table")
    assert code == 2
    assert "table" in err


def test_extract_band(k4_file, capsys):
    code, out, _ = run_cli(capsys, "extract", k4_file, "-k", "0", "--algo", "thm37")
    assert code == 0
    doc = json.loads(out)
    assert doc["algorithm"] == "band_peel"
    assert doc["set"] == [3, 4]
    assert doc["trace"] == [
        {"op": "remove", "vertex": 1, "degree": 3},
        {"op": "remove", "vertex": 2, "degree": 1},
    ]


def test_extract_default_is_best(k4_file, capsys):
    code, out, _ = run_cli(capsys, "extract", k4_file, "-k", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["algorithm"] == "best_extract"
    assert doc["size"] == 3


def test_extract_partition_rejects_k0(k4_file, capsys):
    code, _, err = run_cli(capsys, "extract", k4_file, "-k", "0",
                           "--algo", "partition")
    assert code == 2
    assert "k >= 1" in err


def _raise_defect(h, k, algorithm, vertices, trace):
    raise ExtractionDefect(f"{algorithm} returned a non-{k}-independent set: "
                           f"vertex 0 has induced degree > {k}")


@pytest.mark.parametrize("command", ["extract", "compare", "verify"])
def test_defect_exits_1_on_every_subcommand(k4_file, tmp_path, monkeypatch, capsys, command):
    # the re-verification net in kindep.extract fails for every extractor
    monkeypatch.setattr(extract, "_finalize", _raise_defect)
    if command == "verify":
        cfg_path = tmp_path / "small.cfg"
        cfg_path.write_text(SMALL_CONFIG + "checks = extraction-achievement\n")
        argv = ["verify", "--config", str(cfg_path)]
    else:
        argv = [command, k4_file, "-k", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert re.fullmatch(r"defect: greedy_peel returned a non-(\d)-independent set: "
                        r"vertex 0 has induced degree > \1\n", err)


def test_exact_alpha(k4_file, capsys):
    code, out, _ = run_cli(capsys, "exact", k4_file, "-k", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "quantity": "alpha_k",
        "k": 0,
        "value": 2,
        "status": "exact",
        "witness": doc["witness"],
        "nodes": doc["nodes"],
    }
    assert len(doc["witness"]) == 2


def test_exact_chi(k4_file, capsys):
    code, out, _ = run_cli(capsys, "exact", k4_file, "-k", "1",
                           "--quantity", "chi")
    assert code == 0
    doc = json.loads(out)
    assert doc["quantity"] == "chi_k"
    assert doc["value"] == 2
    assert sorted(v for cls in doc["witness"] for v in cls) == [1, 2, 3, 4]

    code, _, err = run_cli(capsys, "exact", k4_file, "-k", "0", "--quantity", "chi")
    assert code == 2
    assert "k >= 1" in err


def test_exact_chi_deeper_than_recursion_limit(tmp_path, capsys):
    # the partition search assigns all 1500 vertices in one branch
    path = tmp_path / "sparse.hg"
    path.write_text(write_hg(gen_random_uniform(1500, 300, 2, 5)))
    code, out, err = run_cli(capsys, "exact", str(path), "-k", "1", "--quantity", "chi")
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert (doc["status"], doc["value"]) == ("exact", 2)


def test_exact_alpha_beyond_64_vertices(tmp_path, capsys):
    path = tmp_path / "big.hg"
    code, _, _ = run_cli(capsys, "gen", "--random", "-n", "80", "-m", "40", "-s", "2",
                         "--seed", "1", "--output", str(path))
    assert code == 0
    code, out, err = run_cli(capsys, "exact", str(path), "-k", "1")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["status"], doc["value"], doc["nodes"]) == ("exact", 70, 30124)
    # a budget one node short overruns, and the search's own count completes
    for budget, expected in ((30123, ("budget_exceeded", None, 30124)),
                             (30124, ("exact", 70, 30124))):
        code, out, err = run_cli(capsys, "exact", str(path), "-k", "1",
                                 "--budget", str(budget))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["status"], doc["value"], doc["nodes"]) == expected


def test_exact_budget_exceeded_is_not_an_error(tmp_path, capsys):
    path = tmp_path / "k7.hg"
    path.write_text(write_hg(gen_complete(7, 3)))
    code, out, _ = run_cli(capsys, "exact", str(path), "-k", "1", "--budget", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "budget_exceeded"
    assert doc["value"] is None


def test_verify_small_config(tmp_path, capsys):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_CONFIG)
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg_path),
                           "--output", str(tmp_path / "out"))
    assert code == 0
    assert out.startswith("corpus: 32 exhaustive pairs, 10 random pairs\n")
    assert out.endswith("result: PASS\n")


def test_verify_budget_bounds_replication(tmp_path, capsys):
    # replicated instances of up to 90 vertices: unbudgeted, the 3-copy
    # alpha searches run for minutes
    cfg_path = tmp_path / "replication.cfg"
    cfg_path.write_text("random_count = 1\nexhaustive_n = 0\nreplication_count = 3\n"
                        "replication_n_max = 30\nchecks = replication\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg_path), "--budget", "1000",
                           "--output", str(tmp_path / "out"))
    assert code == 0
    assert out == (
        "corpus: 0 exhaustive pairs, 1 random pairs\n"
        "check replication: PASS (comparisons=38, violations=0, skipped=2)\n"
        "  note: skipped 2/3 pairs: the alpha oracle exceeded its node budget of 1000\n"
        "result: PASS\n"
    )


def test_verify_fault_injection_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "faulty.cfg"
    cfg_path.write_text(SMALL_CONFIG + "fault_injection = overclaim-bounds\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg_path),
                           "--output", str(tmp_path / "out"))
    assert code == 1
    assert "result: FAIL" in out
    assert "counterexample:" in out
    assert (tmp_path / "out").is_dir()


def test_verify_budget_zero_lifts_config_budgets(tmp_path, capsys):
    cfg_path = tmp_path / "starved.cfg"
    cfg_path.write_text(
        "exhaustive_n = 0\nrandom_count = 10\nrandom_n_max = 9\n"
        "replication_count = 0\nalpha_budget = 1\nchi_budget = 1\n"
        "checks = bound-soundness,partition\n"
    )
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg_path))
    assert code == 0
    assert out.count("skipped=") == 2
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg_path), "--budget", "0")
    assert code == 0
    assert "skipped=" not in out
    assert out.endswith("result: PASS\n")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Recorded before verify shared one bound report per degree signature and
# compare reused its contenders for best_size: both must stay byte-identical.
@pytest.mark.parametrize("seed, exit_code, report_digest, dump_digests", [
    (1729, 0, "53ec70ddbb92fe0c6d50114b0cbac4541a300eb1fd02c4888cef00b90dd7f611", {}),
    (5, 1, "6b3f59b48b752cb023f37a5030b32d09b49170bdadc444f4c89ae1e95fca429d", {
        "extraction-achievement_r388.hg":
            "27013130960365ef159432a4d325caa29a29d2fc1000508a2a1b2fea1a6c4c71",
        "extraction-achievement_r388.json":
            "a630662043e766f5ac5291b0a76be2919360e87b252a2b332b8c12d4f2c144eb",
    }),
], ids=["seed1729-pass", "seed5-fail"])
def test_default_verify_report_pinned(tmp_path, capsys, seed, exit_code, report_digest,
                                      dump_digests):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "verify", "--seed", str(seed), "--output", str(out_dir))
    assert code == exit_code
    assert out.endswith("result: PASS\n" if exit_code == 0 else "result: FAIL\n")
    assert sha256(out.encode()) == report_digest
    written = sorted(out_dir.iterdir()) if out_dir.exists() else []
    assert {p.name: sha256(p.read_bytes()) for p in written} == dump_digests


def test_compare_config_csv_pinned(tmp_path, capsys):
    cfg_path = tmp_path / "compare.cfg"
    cfg_path.write_text("exhaustive_n = 4\nrandom_count = 150\nmaster_seed = 3\n")
    code, out, _ = run_cli(capsys, "compare", "--config", str(cfg_path))
    assert code == 0
    assert len(out.splitlines()) == 661
    assert sha256(out.encode()) == (
        "06d0728ebb31eb57f0e169219e4b4f8ee40c95af7fa9aca8570329809407f5ac")


def test_verify_help_names_dump_directory_and_both_budgets(capsys):
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0
    text = " ".join(out.split())
    assert "directory for counterexample dumps" in text
    assert "the report goes to stdout" in text
    assert "both the alpha and the chi oracle" in text
    assert "write output to this path" not in text


def test_verify_bad_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    for text, fragment in [("no_such_key = 3\n", "unknown key"),
                           ("random_count = -1\n", "error: random_count must be nonnegative")]:
        cfg_path.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert fragment in err


def test_verify_empty_output_exits_2_before_any_check(capsys):
    code, out, err = run_cli(capsys, "verify", "--output", "")
    assert code == 2
    assert out == ""
    assert "--output must name a directory" in err


@pytest.mark.parametrize("command", ["verify", "compare"])
def test_negative_config_budget_exits_2(tmp_path, capsys, command):
    cfg_path = tmp_path / "negative.cfg"
    cfg_path.write_text("exhaustive_n = 0\nrandom_count = 3\nalpha_budget = -5\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg_path))
    assert code == 2
    assert out == ""
    assert "alpha_budget must be nonnegative" in err


def test_compare_csv(k4_file, capsys):
    code, out, _ = run_cli(capsys, "compare", k4_file, "-k", "0,2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[:8] == ["instance", "n", "m", "s", "k", "delta", "d", "d_frac"]
    assert header[-6:] == ["best", "alpha", "greedy_size", "band_size",
                           "partition_size", "best_size"]
    assert "cps" in header and "cps_frac" not in header

    row0 = dict(zip(header, lines[1].split(",")))
    assert row0["instance"] == "k4"
    assert row0["k"] == "0"
    assert row0["d_frac"] == "3/1"
    assert row0["max_degree"] == ""  # not applicable at k = 0
    assert row0["avg_degree"] == "1.33333333333"
    assert row0["avg_degree_frac"] == "4/3"
    assert row0["caro_tuza_alpha_frac"] == "64/35"
    assert row0["cps"] == "1.49861200258"
    assert row0["best"] == "2"
    assert row0["alpha"] == "2"
    assert row0["partition_size"] == ""

    row2 = dict(zip(header, lines[2].split(",")))
    assert row2["k"] == "2"
    assert row2["avg_degree_frac"] == "8/3"
    assert row2["avg_degree_simple_frac"] == "12/5"
    assert row2["max_degree_frac"] == "2/1"
    assert row2["alpha"] == "3"
    assert row2["partition_size"] != ""


def test_compare_needs_input(capsys):
    code, _, err = run_cli(capsys, "compare")
    assert code == 2
    assert "compare needs" in err


def test_compare_bad_k(k4_file, capsys):
    code, _, err = run_cli(capsys, "compare", k4_file, "-k", "-1")
    assert code == 2
    assert "nonnegative" in err


def test_installed_entry_point(k4_file):
    proc = subprocess.run(
        [sys.executable, "-m", "kindep.cli", "exact", k4_file, "-k", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 3


def _in_workers(monkeypatch, fault):
    """Run the extractors' re-check as `fault` in forked workers only, on
    the pooled path with small tasks; this process runs its tasks slowly,
    so that the workers do take some."""
    parent, real = os.getpid(), extract._finalize

    def finalize(*args):
        if os.getpid() != parent:
            return fault()
        time.sleep(0.002)
        return real(*args)
    monkeypatch.setattr(extract, "_finalize", finalize)
    monkeypatch.setattr(parallel, "_workers", lambda: 2)
    monkeypatch.setattr(verify, "_CHUNK", 2)
    monkeypatch.setattr(cli, "_CHUNK", 1)


def _pool_argv(tmp_path, command):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_CONFIG + "checks = extraction-achievement\n")
    return [command, "--config", str(cfg_path)] + (
        ["--output", str(tmp_path / "out")] if command == "verify" else [])


def _raise(exc):
    def fault():
        raise exc
    return fault


@pytest.mark.parametrize("command", ["verify", "compare"])
@pytest.mark.parametrize("exc, exit_code, message", [
    (ExtractionDefect("planted"), 1, "defect: planted\n"),
    (ValueError("planted"), 2, "error: planted\n"),
    (OSError("planted"), 2, "error: planted\n"),
], ids=["defect", "value-error", "os-error"])
def test_worker_exception_keeps_its_exit_code(tmp_path, monkeypatch, capsys, command, exc,
                                              exit_code, message):
    _in_workers(monkeypatch, _raise(exc))
    code, out, err = run_cli(capsys, *_pool_argv(tmp_path, command))
    assert multiprocessing.active_children() == []
    assert (code, out, err) == (exit_code, "", message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify", "compare"])
def test_dead_worker_exits_2(tmp_path, monkeypatch, capsys, command):
    _in_workers(monkeypatch, lambda: os._exit(3))
    code, out, err = run_cli(capsys, *_pool_argv(tmp_path, command))
    assert multiprocessing.active_children() == []
    assert (code, out) == (2, "")
    assert err.startswith("error: a worker process died: ") and err.count("\n") == 1


def test_compare_csv_does_not_depend_on_the_worker_count(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "compare.cfg"
    cfg_path.write_text("exhaustive_n = 4\nrandom_count = 20\nmaster_seed = 3\n")
    monkeypatch.setattr(parallel, "_workers", lambda: 1)
    one = run_cli(capsys, "compare", "--config", str(cfg_path))
    monkeypatch.setattr(parallel, "_workers", lambda: 2)
    monkeypatch.setattr(cli, "_CHUNK", 3)
    two = run_cli(capsys, "compare", "--config", str(cfg_path))
    assert multiprocessing.active_children() == []
    assert one[0] == 0 and two == one
