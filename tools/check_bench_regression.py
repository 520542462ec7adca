#!/usr/bin/env python
"""Gate CI on benchmark throughput against each metric's trajectory over its last N runs.

``record_bench_summary`` merges every benchmark's rows into
``benchmarks/results/BENCH_summary.json`` per run (and dual-writes them into
the telemetry store); this tool fails (exit 1) when any tracked throughput
metric regressed by more than ``--max-regression`` (default 25%).

Each tracked metric is compared against the *median of its own last-N prior
runs* in the telemetry store (``benchmarks/results/telemetry.sqlite``,
accumulated by the benches' dual-writes).  A median over history is robust to
one lucky or noisy baseline measurement, and a slow monotone drift is caught
the moment the median crosses the threshold rather than never.  Metrics with
fewer than ``--min-runs`` prior runs fall back to the committed point baseline
(``benchmarks/results/BENCH_baseline.json``) for that metric, so a fresh
checkout — CI's first run — still gates.  Set ``REPRO_RUN_ID`` to the id the
benches ran under so the run being gated is excluded from its own history
window.

What is tracked is derived, not hand-listed: rows are addressed by position
(benches emit rows in deterministic order), and every numeric column whose
name matches ``throughput``/``*_per_s`` is gated.  Metrics with neither
history nor a baseline value are skipped — each CI job runs its own subset of
benches — and faster-than-reference is always fine: the gate only catches
regressions, so history recorded on modest hardware still guards runs on
faster machines.

Usage:

    PYTHONPATH=src python tools/check_bench_regression.py
    PYTHONPATH=src python tools/check_bench_regression.py --max-regression 0.4
    PYTHONPATH=src python tools/check_bench_regression.py --write-baseline

``--write-baseline`` snapshots the current summary as the new baseline
(commit the result) — run it after a deliberate perf change, with fresh
numbers from the benches the CI jobs run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SUMMARY = REPO_ROOT / "benchmarks" / "results" / "BENCH_summary.json"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "results" / "BENCH_baseline.json"
DEFAULT_DB = REPO_ROOT / "benchmarks" / "results" / "telemetry.sqlite"

# The store lives in the package; tolerate a missing PYTHONPATH=src.
sys.path.append(str(REPO_ROOT / "src"))

#: numeric columns gated by the regression check (higher is better)
THROUGHPUT_RE = re.compile(r"throughput|_per_s$|_per_sec$", re.IGNORECASE)


def load_entries(path: Path) -> Dict[str, List[Dict[str, object]]]:
    document = json.loads(path.read_text())
    entries = document.get("entries")
    if not isinstance(entries, dict):
        raise ValueError(f"{path} has no 'entries' mapping (schema mismatch?)")
    return {
        name: rows for name, rows in entries.items() if isinstance(rows, list)
    }


def check_trajectory(
    summary_path: Path,
    baseline_path: Path,
    db_path: Path,
    max_regression: float,
    window: int,
    min_runs: int,
) -> int:
    """Gate each tracked metric against the median of its last-N prior runs.

    Falls back to the committed point baseline per metric when the store
    holds fewer than ``min_runs`` prior runs for it — the first-run path.
    """
    from repro.telemetry.store import TelemetryStore

    current_entries = load_entries(summary_path)
    baseline_entries: Dict[str, List[Dict[str, object]]] = {}
    if baseline_path.exists():
        baseline_entries = load_entries(baseline_path)
    exclude_run = os.environ.get("REPRO_RUN_ID")
    failures: List[str] = []
    warnings: List[str] = []
    gated = from_history = from_baseline = 0
    with TelemetryStore(db_path) as store:
        for entry in sorted(current_entries):
            baseline_rows = baseline_entries.get(entry, [])
            for index, row in enumerate(current_entries[entry]):
                for key, value in row.items():
                    if not THROUGHPUT_RE.search(key):
                        continue
                    if not isinstance(value, (int, float)) or isinstance(value, bool):
                        continue
                    history = store.bench_history(
                        entry, index, key, window, exclude_run=exclude_run
                    )
                    if len(history) >= min_runs:
                        reference = statistics.median(v for _, v in history)
                        source = f"median of last {len(history)} run(s)"
                        from_history += 1
                    else:
                        baseline_row = (
                            baseline_rows[index] if index < len(baseline_rows) else {}
                        )
                        base_value = baseline_row.get(key)
                        if not isinstance(base_value, (int, float)) or isinstance(
                            base_value, bool
                        ):
                            warnings.append(
                                f"{entry}[{index}].{key}: {len(history)} prior run(s) "
                                f"(< {min_runs}) and no point baseline; skipping"
                            )
                            continue
                        reference = float(base_value)
                        source = "point baseline (insufficient history)"
                        from_baseline += 1
                    gated += 1
                    floor = reference * (1.0 - max_regression)
                    if reference > 0 and value < floor:
                        failures.append(
                            f"{entry}[{index}].{key}: {value:g} is "
                            f"{(1 - value / reference) * 100:.1f}% below {source} "
                            f"{reference:g} (allowed {max_regression * 100:.0f}%)"
                        )
    for warning in warnings:
        print(f"warning: {warning}")
    if failures:
        print("\nTHROUGHPUT REGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(
        f"ok: {gated} throughput metric(s) within {max_regression * 100:.0f}% of "
        f"their trajectory ({from_history} gated on run history in {db_path.name}, "
        f"{from_baseline} on the point baseline)"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--summary", type=Path, default=DEFAULT_SUMMARY)
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional throughput drop per metric (default 0.25)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="snapshot the current summary as the new baseline and exit",
    )
    parser.add_argument(
        "--db",
        type=Path,
        default=None,
        help="telemetry store holding the run history (default: "
        "benchmarks/results/telemetry.sqlite, or REPRO_TELEMETRY_DB)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=5,
        help="prior runs in the rolling window (default 5)",
    )
    parser.add_argument(
        "--min-runs",
        type=int,
        default=2,
        help="prior runs required before the history median "
        "replaces the point baseline (default 2)",
    )
    args = parser.parse_args(argv)
    if not args.summary.exists():
        print(f"error: no benchmark summary at {args.summary} (run the benches first)",
              file=sys.stderr)
        return 1
    if args.write_baseline:
        load_entries(args.summary)  # refuse to enshrine an unparseable summary
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(args.summary, args.baseline)
        print(f"baseline written: {args.baseline}")
        return 0
    db = args.db
    if db is None:
        db = Path(os.environ.get("REPRO_TELEMETRY_DB", DEFAULT_DB))
    return check_trajectory(
        args.summary,
        args.baseline,
        db,
        args.max_regression,
        window=args.window,
        min_runs=args.min_runs,
    )


if __name__ == "__main__":
    raise SystemExit(main())
