"""Tests for the repro.analysis concurrency lint: rules, waivers, baseline, CLI.

The per-rule fixtures under ``tests/fixtures/analysis`` are deliberately
protocol-violating inputs; each test asserts the *exact* rule ids and line
numbers so a rule regression (missed violation or new false positive) fails
loudly.  The final test runs the analyzer over the real tree — the same
invocation CI uses — and requires it to be clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import DEFAULT_SPEC, default_rules
from repro.analysis.__main__ import main
from repro.analysis.core import (
    AnalysisReport,
    Violation,
    analyze_file,
    analyze_paths,
    analyze_source,
    iter_python_files,
    load_baseline,
    waived_rules_by_line,
    write_baseline,
)
from repro.errors import AnalysisError

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
REPO_ROOT = Path(__file__).parent.parent


def _findings(path: Path):
    report = analyze_file(path, default_rules(), root=REPO_ROOT)
    assert not report.parse_errors
    return [(v.rule, v.line) for v in report.violations]


# ------------------------------------------------------------------- rule fixtures
class TestRuleFixtures:
    def test_r1_lock_discipline(self):
        assert _findings(FIXTURES / "bad_lock.py") == [("R1", 5), ("R1", 9)]

    def test_r2_slot_protocol(self):
        assert _findings(FIXTURES / "bad_slot.py") == [("R2", 9), ("R2", 14)]

    def test_r3_fork_safety(self):
        assert _findings(FIXTURES / "bad_fork.py") == [
            ("R3", 9),  # open() in a worker entry
            ("R3", 10),  # threading primitive in a worker entry
            ("R3", 11),  # global RNG draw in a worker entry
            ("R3", 18),  # fork site in a module that starts threads
        ]

    @pytest.mark.parametrize(
        "imports, start",
        [
            ("from concurrent.futures import ThreadPoolExecutor", "ThreadPoolExecutor(2)"),
            ("import concurrent.futures", "concurrent.futures.ThreadPoolExecutor(2)"),
            ("from threading import Thread", "Thread(target=print)"),
        ],
    )
    def test_r3_sees_every_way_of_starting_threads(self, imports, start):
        source = (
            f"{imports}\n"
            "import multiprocessing\n"
            "def run():\n"
            f"    pool = {start}\n"
            "    multiprocessing.Process(target=print).start()\n"
        )
        report = analyze_source(source, default_rules())
        assert [(v.rule, v.line) for v in report.violations] == [("R3", 5)]
        assert "line 4" in report.violations[0].message

    def test_r3_thread_module_without_fork_site_is_clean(self):
        source = "import threading\nthreading.Thread(target=print).start()\n"
        assert analyze_source(source, default_rules()).violations == []

    def test_r4_publish_order(self):
        # apply_pending never flips; apply_and_flip publishes and is clean.
        assert _findings(FIXTURES / "bad_publish.py") == [("R4", 6)]

    def test_good_fixture_is_clean(self):
        report = analyze_file(FIXTURES / "good_protocol.py", default_rules())
        assert report.violations == []
        assert report.waived == 1  # the commented meta sampling
        assert report.unused_waivers == []

    def test_messages_name_the_offending_state_word(self):
        report = analyze_file(FIXTURES / "bad_lock.py", default_rules())
        messages = [v.message for v in report.violations]
        assert "'meta'" in messages[0] and "peek_states" in messages[0]
        assert "'stop_flag'" in messages[1] and "written" in messages[1]


# ------------------------------------------------------------------------- waivers
class TestWaivers:
    def test_same_line_waiver_suppresses(self):
        source = "def f(state):\n    return state.meta[:, 0]  # repro: waive[R1]\n"
        report = analyze_source(source, default_rules())
        assert report.violations == []
        assert report.waived == 1

    def test_standalone_comment_waives_next_code_line(self):
        source = (
            "def f(state):\n"
            "    # repro: waive[R1] - quiesced\n"
            "    return state.meta[:, 0]\n"
        )
        report = analyze_source(source, default_rules())
        assert report.violations == []
        assert report.waived == 1

    def test_waiver_is_rule_specific(self):
        source = "def f(state):\n    return state.meta[:, 0]  # repro: waive[R2]\n"
        report = analyze_source(source, default_rules())
        assert [(v.rule, v.line) for v in report.violations] == [("R1", 2)]
        assert report.unused_waivers == [("<string>", 2, "R2")]

    def test_multi_rule_waiver(self):
        source = (
            "_SLOT_READY = 2\n"
            "def f(state):\n"
            "    state.meta[0, 0] = _SLOT_READY  # repro: waive[R1,R2] - test rig\n"
        )
        report = analyze_source(source, default_rules())
        assert report.violations == []
        assert report.waived == 2

    def test_waiver_syntax_inside_docstring_is_not_a_waiver(self):
        source = (
            'def f(state):\n'
            '    """Example: use ``# repro: waive[R1]`` to suppress."""\n'
            '    return state.meta[:, 0]\n'
        )
        report = analyze_source(source, default_rules())
        assert [(v.rule, v.line) for v in report.violations] == [("R1", 3)]
        assert report.unused_waivers == []

    def test_waived_rules_by_line_parses_comment_tokens_only(self):
        source = (
            "x = 1  # repro: waive[R1]\n"
            "y = '# repro: waive[R3]'\n"
            "# repro: waive[R2, R4] - stacked\n"
            "z = 3\n"
        )
        assert waived_rules_by_line(source) == {1: {"R1"}, 4: {"R2", "R4"}}


# ------------------------------------------------------------------------ baseline
class TestBaseline:
    def _violation(self, message="m", line=3):
        return Violation(rule="R1", path="src/x.py", line=line, col=0, message=message)

    def test_round_trip(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, [self._violation(), self._violation(line=9)])
        counts = load_baseline(baseline_path)
        assert counts == {"src/x.py::R1::m": 2}

    def test_partition_respects_occurrence_budget(self):
        report = AnalysisReport(
            violations=[self._violation(), self._violation(line=9), self._violation(line=12)]
        )
        new, covered = report.partition({"src/x.py::R1::m": 2})
        assert len(covered) == 2
        assert [v.line for v in new] == [12]

    def test_partition_is_line_number_independent(self):
        # A baselined violation that drifted to another line stays covered.
        new, covered = AnalysisReport(violations=[self._violation(line=777)]).partition(
            {"src/x.py::R1::m": 1}
        )
        assert new == [] and len(covered) == 1

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("[]", encoding="utf-8")
        with pytest.raises(AnalysisError, match="violations"):
            load_baseline(bad)


# -------------------------------------------------------------------------- runner
class TestRunner:
    def test_directory_walk_skips_fixture_dirs(self):
        files = iter_python_files([Path(__file__).parent])
        assert not any("fixtures" in f.parts for f in files)

    def test_explicit_fixture_file_is_always_analyzed(self):
        files = iter_python_files([FIXTURES / "bad_lock.py"])
        assert files == [FIXTURES / "bad_lock.py"]

    def test_missing_path_raises(self):
        with pytest.raises(AnalysisError, match="neither a file nor a directory"):
            iter_python_files([Path("definitely/not/here")])

    def test_syntax_error_becomes_parse_error(self):
        report = analyze_source("def broken(:\n", default_rules())
        assert report.violations == []
        assert report.parse_errors and "<string>" in report.parse_errors[0]

    def test_spec_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_SPEC.lock_names = frozenset()


# ----------------------------------------------------------------------------- CLI
class TestCli:
    def test_bad_fixture_fails_with_rule_ids(self, capsys):
        exit_code = main([str(FIXTURES / "bad_slot.py"), "--no-baseline"])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "R2" in out and "bad_slot.py:9" in out

    def test_good_fixture_passes(self, capsys):
        exit_code = main([str(FIXTURES / "good_protocol.py"), "--no-baseline"])
        assert exit_code == 0
        assert "0 new violation(s)" in capsys.readouterr().out

    def test_json_format_is_machine_readable(self, capsys):
        exit_code = main([str(FIXTURES / "bad_publish.py"), "--no-baseline", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert payload["checked_files"] == 1
        assert [v["rule"] for v in payload["violations"]] == ["R4"]
        assert payload["violations"][0]["line"] == 6

    def test_baseline_covers_known_violations(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([str(FIXTURES / "bad_lock.py"), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        capsys.readouterr()
        exit_code = main([str(FIXTURES / "bad_lock.py"), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "2 baselined" in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R1", "R2", "R3", "R4"):
            assert rule_id in out


# ------------------------------------------------------------------ the real tree
class TestRealTree:
    def test_repository_is_clean_without_baseline(self):
        """The merged tree passes with only in-line waivers — CI's invariant."""
        report = analyze_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests"], default_rules(), root=REPO_ROOT
        )
        assert report.parse_errors == []
        assert [v.format() for v in report.violations] == []
        assert report.checked_files > 50

    def test_real_violations_are_caught_when_waivers_ignored(self):
        """The waived sites are real findings, not dead rules: stripping the
        waiver markers must resurface them."""
        # src/ carries no waiver since the ring reads its stop latch under the
        # lock; the quiesced-ring assertions of the pool tests still do.
        waived = REPO_ROOT / "tests" / "test_serve_pool.py"
        source = waived.read_text(encoding="utf-8").replace("repro: waive", "repro: kept")
        report = analyze_source(source, default_rules(), display_path="test_serve_pool.py")
        assert ("R1" in {v.rule for v in report.violations})
