"""CLI entry point: ``python -m repro.analysis [paths...]``.

Examples
--------
Run the project rules over the library and its tests (the CI invocation)::

    PYTHONPATH=src python -m repro.analysis src tests

Machine-readable output and an explicit baseline::

    python -m repro.analysis src tests --format json --baseline tools/analysis_baseline.json

Accept the current violations as the new baseline (after review!)::

    python -m repro.analysis src tests --write-baseline

Exit status: ``0`` when no non-baselined violations (and no parse errors),
``1`` when new violations were found, ``2`` on usage errors.  A baseline at
``tools/analysis_baseline.json`` (relative to the working directory) is used
automatically when present; pass ``--no-baseline`` to ignore it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis import default_rules
from repro.analysis.core import AnalysisReport, analyze_paths, load_baseline, write_baseline
from repro.errors import AnalysisError

#: baseline auto-discovered relative to the working directory when present
DEFAULT_BASELINE = Path("tools") / "analysis_baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project lint: protocol rules R1-R4 and the test-only surface rule R6.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to analyze (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is machine-readable, for CI)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file of accepted violations (default: {DEFAULT_BASELINE} if present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline; report every unwaived violation as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept the current unwaived violations into the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _resolve_baseline(args: argparse.Namespace) -> Optional[Path]:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return args.baseline
    return DEFAULT_BASELINE if DEFAULT_BASELINE.exists() else None


def _print_text(report: AnalysisReport, new: List, covered: List) -> None:
    for violation in new:
        print(violation.format())
    for path, line, rule in report.unused_waivers:
        print(f"{path}:{line}: warning: unused waiver for {rule}", file=sys.stderr)
    for error in report.parse_errors:
        print(f"parse error: {error}", file=sys.stderr)
    summary = (
        f"checked {report.checked_files} file(s): {len(new)} new violation(s), "
        f"{len(covered)} baselined, {report.waived} waived"
    )
    print(summary)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}: {rule.title}")
        return 0
    baseline_path = _resolve_baseline(args)
    try:
        report = analyze_paths([Path(p) for p in args.paths], rules, root=Path.cwd())
        if args.write_baseline:
            target = args.baseline if args.baseline is not None else DEFAULT_BASELINE
            counts = write_baseline(target, report.violations)
            print(f"wrote {sum(counts.values())} violation(s) to {target}")
            return 0
        baseline = load_baseline(baseline_path) if baseline_path is not None else None
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    new, covered = report.partition(baseline)
    if args.format == "json":
        print(json.dumps(report.to_json(baseline), indent=2))
    else:
        _print_text(report, new, covered)
    if report.parse_errors or new:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
