"""Verification harness: config parsing, corpus reproducibility, the
checks themselves on a scaled-down corpus, and fault injection.

The full-size default corpus is exercised by the acceptance tests; here
a small configuration keeps the feedback loop fast.
"""

import json
import multiprocessing
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from kindep import parallel, verify
from kindep import (
    CHECK_ORDER,
    ConfigError,
    DEFAULT_CONFIG_TEXT,
    VerifyConfig,
    build_exhaustive_corpus,
    build_random_corpus,
    corpus_instance,
    parse_hg,
    parse_verify_config,
    run_verify,
)

SMALL = VerifyConfig(
    exhaustive_n=4,
    exhaustive_k=(0, 1),
    random_count=30,
    random_n_max=10,
    random_m_max_factor=2,
    replication_count=5,
    replication_n_max=6,
)


@pytest.fixture(scope="module")
def small_outcome(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("verify_small")
    return run_verify(SMALL, out_dir=str(out_dir))


def test_default_config_text_round_trips():
    assert parse_verify_config(DEFAULT_CONFIG_TEXT) == VerifyConfig()


def test_config_overrides_and_comments():
    cfg = parse_verify_config(
        "random_count = 7  # trailing comment\n"
        "random_s = 2, 3\n"
        "alpha_budget = 50\n"
        "chi_budget = 0\n"
        "checks = fg-properties\n"
    )
    assert cfg.random_count == 7
    assert cfg.random_s == (2, 3)
    assert cfg.alpha_budget == 50
    assert cfg.chi_budget is None
    assert cfg.checks == ("fg-properties",)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("no_such_key = 1\n", "unknown key"),
        ("random_count = many\n", "line 1"),
        ("just some words\n", "key = value"),
        ("checks = bound-soundness,imaginary\n", "unknown check"),
        ("exhaustive_n = 9\n", "intractable"),
        ("random_n_min = 15\n", "exceeds"),
        ("random_s = 9\n", "random_n_min"),
        ("random_s = 1,2\n", ">= 2"),
        ("replication_n_max = 3\n", "at least 4"),
        ("fault_injection = scramble\n", "fault_injection"),
        ("alpha_budget = -5\n", "alpha_budget must be nonnegative"),
        ("chi_budget = -1\n", "chi_budget must be nonnegative"),
        ("output_dir =\n", "output_dir must name a directory"),
        ("exhaustive_k = 0,-1\n", "exhaustive_k must list k values >= 0"),
        # only the replication sample reads random_k here
        ("random_count = 0\nrandom_k = -1\n", "random_k must list k values >= 0"),
        ("checks =\n", "checks must name at least one check"),
        ("random_count = 5\nrandom_count = 7\n", "config line 2: repeated key 'random_count'"),
        ("random_count = -3\n", "random_count must be nonnegative"),
        ("replication_count = -2\n", "replication_count must be nonnegative"),
        ("master_seed = -1\n", "master_seed must be nonnegative"),
    ],
)
def test_config_rejections(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_verify_config(text)


def test_exhaustive_corpus_shape():
    corpus = build_exhaustive_corpus(SMALL)
    assert len(corpus) == (1 << 4) * 2  # 2^C(4,3) subsets, two k values
    first = corpus[0]
    assert first.uid == "x0k0"
    assert first.h.e == 0
    full = [inst for inst in corpus if inst.uid == "x15k1"][0]
    assert full.h.e == 4 and full.h.max_degree == 3


def test_random_corpus_is_deterministic_and_in_range():
    a = build_random_corpus(SMALL)
    b = build_random_corpus(SMALL)
    assert a == b
    assert len(a) == 30
    for inst in a:
        assert SMALL.random_n_min <= inst.h.n <= SMALL.random_n_max
        assert inst.h.s in SMALL.random_s
        assert inst.h.e <= SMALL.random_m_max_factor * inst.h.n
        assert inst.k in SMALL.random_k
    reseeded = build_random_corpus(replace(SMALL, master_seed=5))
    assert reseeded != a


def test_every_uid_reconstructs():
    corpus = build_exhaustive_corpus(SMALL) + build_random_corpus(SMALL)
    for inst in corpus[:40] + corpus[-40:]:
        rebuilt = corpus_instance(SMALL, inst.uid)
        assert rebuilt.h == inst.h
        assert rebuilt.k == inst.k
    repl = corpus_instance(SMALL, "p3")
    assert repl.origin == "replication"
    assert 4 <= repl.h.n <= 6
    with pytest.raises(ConfigError):
        corpus_instance(SMALL, "q7")


@pytest.mark.parametrize(
    "uid, fragment",
    [
        ("x16k0", "beyond the exhaustive corpus"),  # SMALL has 2^4 exhaustive graphs
        ("x99999999k0", "beyond the exhaustive corpus"),
        ("x5k9", "k = 9, not in exhaustive_k"),
        ("r30", "beyond random_count = 30"),
        ("p5", "beyond replication_count = 5"),
        ("x12", "unrecognized"),
        ("r-1", "unrecognized"),
        ("r07", "unrecognized"),
        ("x1k1r", "unrecognized"),
    ],
)
def test_uid_outside_the_corpus_is_rejected(uid, fragment):
    with pytest.raises(ConfigError, match=fragment) as raised:
        corpus_instance(SMALL, uid)
    assert repr(uid) in str(raised.value)


def test_no_exhaustive_uid_without_an_exhaustive_corpus():
    with pytest.raises(ConfigError, match="beyond the exhaustive corpus"):
        corpus_instance(replace(SMALL, exhaustive_n=0), "x0k0")


def test_small_run_passes(small_outcome):
    assert small_outcome.passed
    assert small_outcome.dumps == ()
    names = [c.name for c in small_outcome.checks]
    assert names == list(CHECK_ORDER)
    for check in small_outcome.checks:
        assert check.passed
        assert check.violations == 0
        assert check.comparisons > 0


def test_report_text_format(small_outcome):
    lines = small_outcome.report_text.splitlines()
    assert lines[0] == "corpus: 32 exhaustive pairs, 30 random pairs"
    assert lines[-1] == "result: PASS"
    check_lines = [l for l in lines if l.startswith("check ")]
    assert len(check_lines) == len(CHECK_ORDER)
    for line in check_lines:
        assert ": PASS (comparisons=" in line
    assert small_outcome.report_text.endswith("\n")


def test_report_is_reproducible(tmp_path, small_outcome):
    again = run_verify(SMALL, out_dir=str(tmp_path / "again"))
    assert again.report_text == small_outcome.report_text


def test_check_subset_runs_alone(tmp_path):
    cfg = replace(SMALL, checks=("fg-properties",), random_count=0)
    outcome = run_verify(cfg, out_dir=str(tmp_path))
    assert [c.name for c in outcome.checks] == ["fg-properties"]
    assert outcome.passed


def test_empty_corpus_is_an_error(tmp_path):
    cfg = replace(SMALL, exhaustive_n=0, random_count=0)
    with pytest.raises(ConfigError, match="no instances"):
        run_verify(cfg, out_dir=str(tmp_path))


def test_run_verify_rejects_an_empty_out_dir_up_front(tmp_path, monkeypatch):
    # a failing run would dump; the gate must stop it before any check runs
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="output_dir must name a directory"):
        run_verify(replace(SMALL, fault_injection="overclaim-bounds"), out_dir="")
    assert list(tmp_path.iterdir()) == []


def test_config_built_in_code_passes_the_gate():
    with pytest.raises(ConfigError, match="exhaustive_k must list k values >= 0"):
        replace(SMALL, exhaustive_k=(-1,))
    with pytest.raises(ConfigError, match="chi_budget must be nonnegative"):
        VerifyConfig(chi_budget=-1)


def test_fault_injection_fails_and_dumps(tmp_path):
    cfg = replace(SMALL, fault_injection="overclaim-bounds")
    outcome = run_verify(cfg, out_dir=str(tmp_path))
    assert not outcome.passed
    assert outcome.dumps
    assert len(outcome.dumps) <= 16
    assert "result: FAIL" in outcome.report_text
    soundness = outcome.checks[0]
    assert soundness.name == "bound-soundness"
    assert not soundness.passed
    assert soundness.violations > 0

    # every dump must reproduce: .hg content matches the rebuilt instance
    for stem in outcome.dumps:
        assert f"counterexample: {stem}" in outcome.report_text
        diagnosis = json.loads((tmp_path / f"{stem}.json").read_text())
        assert diagnosis["check"] == "bound-soundness"
        assert diagnosis["detail"]["fault_injection"] == "overclaim-bounds"
        rebuilt = corpus_instance(cfg, diagnosis["instance"])
        dumped = parse_hg((tmp_path / f"{stem}.hg").read_text())
        assert dumped == rebuilt.h
        assert diagnosis["k"] == rebuilt.k


def test_budget_starvation_skips_instead_of_failing(tmp_path):
    cfg = replace(
        SMALL,
        checks=("bound-soundness", "oracle-self-agreement"),
        alpha_budget=1,
        random_count=5,
    )
    outcome = run_verify(cfg, out_dir=str(tmp_path))
    soundness = outcome.checks[0]
    assert soundness.skipped > 0
    assert soundness.passed


def test_budget_skips_are_noted(tmp_path, small_outcome):
    cfg = replace(
        SMALL,
        checks=("bound-soundness", "partition", "oracle-self-agreement"),
        alpha_budget=1,
        chi_budget=1,
        random_count=5,
    )
    outcome = run_verify(cfg, out_dir=str(tmp_path))
    pairs = build_exhaustive_corpus(cfg) + build_random_corpus(cfg)
    totals = {
        "bound-soundness": ("alpha", len(pairs)),
        "partition": ("chi", sum(1 for inst in pairs if inst.k >= 1)),
        "oracle-self-agreement": ("alpha", sum(1 for inst in pairs if inst.h.n <= 12)),
    }
    lines = outcome.report_text.splitlines()
    for check in outcome.checks:
        assert check.skipped > 0
        oracle, total = totals[check.name]
        note = (f"skipped {check.skipped}/{total} pairs: the {oracle} oracle "
                f"exceeded its node budget of 1")
        assert note in check.notes
        at = lines.index(next(l for l in lines if l.startswith(f"check {check.name}:")))
        assert f"  note: {note}" in lines[at + 1:at + 1 + len(check.notes)]
    # a run that skips nothing prints no coverage note
    assert "skipped" not in small_outcome.report_text


def test_dropped_dumps_are_noted(tmp_path, small_outcome):
    cfg = replace(SMALL, fault_injection="overclaim-bounds")
    outcome = run_verify(cfg, out_dir=str(tmp_path))
    violations = sum(c.violations for c in outcome.checks)
    assert violations > 16 and len(outcome.dumps) == 16
    lines = outcome.report_text.splitlines()
    assert lines[-2] == (f"note: 16 counterexample dumps written, {violations - 16} "
                         f"dropped at the cap of 16")
    assert lines[-3] == f"counterexample: {outcome.dumps[-1]}"
    assert "dropped" not in small_outcome.report_text


def _value_plus_one(real):
    def fake(h, k, budget=None):
        res = real(h, k, budget)
        return replace(res, value=res.value + 1)
    return fake


def _zero_simple_bound(real):
    def fake(h, k):
        report = real(h, k)
        bounds = tuple(replace(b, value=Fraction(0))
                       if b.name == "avg_degree_simple" and b.applicable else b
                       for b in report.bounds)
        return replace(report, bounds=bounds)
    return fake


# one fault per check not otherwise driven to a violation, each planted on
# a name the check reads through kindep.verify
FAULTS = [
    ("fg-properties", "eval_g", lambda real: lambda x: -real(x)),
    ("replication", "alpha_k_exact", _value_plus_one),
    # ceil(delta/k) <= max(e, 1), so e + 2 classes exceeds every class bound
    ("partition", "chi_k_exact",
     lambda real: lambda h, k, budget=None: replace(real(h, k, budget), value=h.e + 2)),
    ("oracle-self-agreement", "alpha_k_bruteforce", lambda real: lambda h, k: -1),
    ("remark-regime", "bound_report", _zero_simple_bound),
]


@pytest.mark.parametrize("check, name, fault", FAULTS, ids=[f[0] for f in FAULTS])
def test_faulted_check_files_its_dumps(tmp_path, monkeypatch, check, name, fault):
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    outcome = run_verify(replace(SMALL, checks=(check,)), out_dir=str(tmp_path))
    (result,) = outcome.checks
    assert result.name == check
    assert not result.passed and not outcome.passed
    assert result.violations > 0
    assert len(outcome.dumps) == min(result.violations, 16)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == sorted(stem + ext for stem in outcome.dumps for ext in (".hg", ".json"))
    for stem in outcome.dumps:
        diagnosis = json.loads((tmp_path / f"{stem}.json").read_text())
        assert diagnosis["check"] == check
        assert re.fullmatch(rf"{re.escape(check)}_{re.escape(diagnosis['instance'])}(-\d+)?",
                            stem)
    lines = outcome.report_text.splitlines()
    dropped = result.violations - len(outcome.dumps)
    if dropped:
        assert lines[-2] == (f"note: 16 counterexample dumps written, {dropped} "
                             f"dropped at the cap of 16")
    assert lines[-1] == "result: FAIL"


@pytest.mark.parametrize("cfg", [
    replace(SMALL, fault_injection="overclaim-bounds"),
    replace(SMALL, alpha_budget=2, chi_budget=2),
], ids=["overclaim", "budget-starved"])
def test_report_and_dumps_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, cfg):
    monkeypatch.setattr(parallel, "_workers", lambda: 1)
    one = run_verify(cfg, out_dir=str(tmp_path / "one"))
    monkeypatch.setattr(parallel, "_workers", lambda: 2)
    # chunks that straddle the exhaustive/random boundary, each with many violations
    monkeypatch.setattr(verify, "_CHUNK", 7)
    two = run_verify(cfg, out_dir=str(tmp_path / "two"))
    assert multiprocessing.active_children() == []
    assert two.report_text == one.report_text
    assert two.checks == one.checks
    assert two.dumps == one.dumps

    def files(name):
        folder = tmp_path / name
        return {p.name: p.read_bytes() for p in folder.iterdir()} if folder.exists() else {}
    assert files("two") == files("one")
