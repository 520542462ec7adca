"""Tests for the repro.analysis project lint: rules, waivers, baseline, CLI.

The per-rule fixtures under ``tests/fixtures/analysis`` are deliberately
protocol-violating inputs; each test asserts the *exact* rule ids and line
numbers so a rule regression (missed violation or new false positive) fails
loudly.  The final test runs the analyzer over the real tree — the same
invocation CI uses — and requires it to be clean.
"""

from __future__ import annotations

import json
import textwrap
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
from repro.analysis.surface import UnusedSurfaceRule
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
        for rule_id in ("R1", "R2", "R3", "R4", "R6"):
            assert rule_id in out


# ------------------------------------------------------------------ R6 on small trees
def _write_tree(root: Path, files: dict) -> None:
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")


def _r6_names(root: Path, rule=None) -> list:
    """Names R6 reports over ``root/src``, with ``root`` as the runner's root."""
    report = analyze_paths([root / "src"], [rule or UnusedSurfaceRule()], root=root)
    assert {v.rule for v in report.violations} <= {"R6"}
    return sorted(v.message.split("'")[1] for v in report.violations)


class TestR6UnusedSurface:
    def test_reports_public_names_only_tests_use(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "src/repro/pkg/mod.py": """
                    def tested():
                        pass

                    def orphan():
                        pass

                    def _private():
                        pass

                    class Used:
                        pass
                """,
                "src/repro/pkg/user.py": "from repro.pkg.mod import Used\n",
                "src/elsewhere.py": "def outside_the_package():\n    pass\n",
                "tests/test_mod.py": "from repro.pkg.mod import tested\n\ntested()\n",
            },
        )
        assert _r6_names(tmp_path) == ["orphan", "tested"]

    def test_tree_below_the_runners_root_reads_its_own_corpus(self, tmp_path):
        _write_tree(
            tmp_path / "checkout",
            {
                "src/repro/pkg/mod.py": "def served():\n    pass\n\ndef unserved():\n    pass\n",
                "examples/demo.py": "from repro.pkg.mod import served\n",
            },
        )
        rule = UnusedSurfaceRule()
        report = analyze_paths([tmp_path / "checkout" / "src"], [rule], root=tmp_path)
        assert [(v.path, v.line) for v in report.violations] == [
            ("checkout/src/repro/pkg/mod.py", 4)
        ]

    def test_operator_library_and_package_inits_are_exempt(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "src/repro/tensor/ops.py": "def gradchecked_only():\n    pass\n",
                "src/repro/nn/layers.py": "class GradcheckedLayer:\n    pass\n",
                "src/repro/pkg/__init__.py": "def package_helper():\n    pass\n",
            },
        )
        assert _r6_names(tmp_path) == []

    def test_name_attribute_import_and_quoted_annotation_are_uses(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "src/repro/pkg/mod.py": """
                    def by_name():
                        pass

                    def by_attribute():
                        pass

                    def by_import():
                        pass

                    class ByAnnotation:
                        pass
                """,
                "src/run.py": "by_name()\n",
                "benchmarks/bench.py": "from repro.pkg import mod\n\nmod.by_attribute()\n",
                "examples/demo.py": "from repro.pkg.mod import by_import as renamed\n",
                "tools/tool.py": 'def run(model: "ByAnnotation") -> None:\n    pass\n',
            },
        )
        assert _r6_names(tmp_path) == []

    def test_own_module_use_counts_outside_its_own_body(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "src/repro/pkg/mod.py": """
                    def helper():
                        return 1

                    VALUE = helper()

                    def countdown(n):
                        return countdown(n - 1) if n else 0
                """,
            },
        )
        assert _r6_names(tmp_path) == ["countdown"]

    def test_init_reexport_is_not_a_use_but_a_call_there_is(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "src/repro/pkg/mod.py": """
                    def exported():
                        pass

                    def called():
                        pass
                """,
                "src/repro/pkg/__init__.py": """
                    from repro.pkg.mod import called, exported

                    DEFAULT = called()
                    __all__ = ["called", "exported"]
                """,
            },
        )
        assert _r6_names(tmp_path) == ["exported"]

    def test_decorated_function_is_a_registration_but_a_decorated_class_is_not(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "src/repro/pkg/mod.py": """
                    from dataclasses import dataclass

                    REGISTRY = {}

                    def register(function):
                        REGISTRY[function.__name__] = function
                        return function

                    @register
                    def registered():
                        pass

                    @dataclass
                    class Record:
                        value: int = 0
                """,
            },
        )
        assert _r6_names(tmp_path) == ["Record"]

    def test_corpus_is_read_on_the_first_check(self, tmp_path):
        rule = UnusedSurfaceRule()  # built before the tree exists, as default_rules() does
        _write_tree(
            tmp_path,
            {"src/repro/pkg/mod.py": "def late():\n    pass\n", "tools/caller.py": "late()\n"},
        )
        assert _r6_names(tmp_path, rule) == []
        (tmp_path / "tools" / "caller.py").unlink()
        assert _r6_names(tmp_path, rule) == []  # the first check's corpus is kept
        assert _r6_names(tmp_path) == ["late"]

    def test_waiver_keeps_a_name_and_goes_unused_once_it_gains_a_caller(self, tmp_path):
        waived = "def kept():  # repro: waive[R6] - documented API\n    pass\n"
        _write_tree(tmp_path, {"src/repro/pkg/mod.py": waived})
        report = analyze_paths([tmp_path / "src"], [UnusedSurfaceRule()], root=tmp_path)
        assert (report.violations, report.waived, report.unused_waivers) == ([], 1, [])
        _write_tree(tmp_path, {"examples/demo.py": "from repro.pkg.mod import kept\n"})
        report = analyze_paths([tmp_path / "src"], [UnusedSurfaceRule()], root=tmp_path)
        assert report.unused_waivers == [("src/repro/pkg/mod.py", 1, "R6")]

    def test_real_tree_waives_exactly_the_kept_names(self):
        """Every R6 waiver in src/ covers a real finding, and there are no others."""
        rule = UnusedSurfaceRule()
        found = set()
        for path in iter_python_files([REPO_ROOT / "src"]):
            source = path.read_text(encoding="utf-8").replace("repro: waive", "repro: kept")
            display = path.relative_to(REPO_ROOT).as_posix()
            report = analyze_source(source, [rule], display_path=display, root=REPO_ROOT)
            found |= {v.message.split("'")[1] for v in report.violations}
        assert found == {
            "SGD",
            "partition_batch",
            "set_recorder",
            "set_run_id",
            "reset_run_id",
            "autoscale_step",
            "Timer",
        }


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
