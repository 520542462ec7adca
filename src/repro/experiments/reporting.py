"""Plain-text table formatting for the benchmark harness.

The benches print the same rows/series the paper's figures show; these helpers
render them as aligned text tables and optionally persist them as CSV so the
numbers can be copied into EXPERIMENTS.md.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import time
from pathlib import Path
from typing import Dict, Optional, Sequence


def format_table(
    rows: Sequence[Dict[str, object]], columns: Optional[Sequence[str]] = None
) -> str:
    """Render rows as an aligned plain-text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    columns = list(columns) if columns is not None else list(rows[0].keys())

    def _cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        if value is None:
            return "-"
        return str(value)

    rendered = [[_cell(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join(
        "  ".join(r[i].ljust(widths[i]) for i in range(len(columns))) for r in rendered
    )
    return f"{header}\n{separator}\n{body}"


def save_rows(rows: Sequence[Dict[str, object]], path: Path) -> Path:
    """Persist rows to CSV (creating parent directories)."""
    rows = list(rows)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return path
    # Rows from one experiment may carry slightly different columns (e.g. a
    # baseline row lacking a Crossbow-specific field); use the union of keys.
    fieldnames: list = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(rows)
    return path


def record_bench_summary(
    path: Path,
    name: str,
    rows: Sequence[Dict[str, object]],
    telemetry_db: Optional[Path] = None,
) -> Path:
    """Merge one benchmark's rows into a machine-readable summary JSON.

    The CI benchmark jobs upload the resulting ``BENCH_summary.json`` as a
    per-run artifact, so the performance trajectory is tracked per commit as
    structured data rather than living only in job log text.  Each call
    read-modify-writes the file (keyed by benchmark ``name``), so multiple
    benches — and multiple pytest invocations within one job — accumulate
    into a single document.  Values must be JSON-serialisable; numpy scalars
    are coerced.

    The write is atomic (write-to-temp + :func:`os.replace` in the same
    directory), so a reader — or another benchmark process merging its own
    rows concurrently — never observes a partially written file.  Concurrent
    merges remain last-writer-wins per *file* (an entry written in between
    can be overwritten by a process that read before it), but the document
    itself is always parseable, which is what the regression gate and the CI
    artifact upload depend on.

    Every merged row is additionally dual-written into the telemetry store
    (``telemetry.sqlite`` next to the summary, unless ``telemetry_db`` or
    ``REPRO_TELEMETRY_DB`` points elsewhere), under the same atomic
    discipline — one SQLite transaction deletes and re-inserts this run's
    rows for the bench, so concurrent writers serialise and a re-run stays
    last-writer-wins per bench, exactly like the JSON.  Bench history and
    live telemetry then share one query surface
    (:mod:`repro.telemetry.queries`, the trajectory regression gate).  The
    dual-write is best-effort: a locked or unwritable store logs a warning
    rather than failing the bench.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    summary: Dict[str, object] = {"schema": 1, "entries": {}}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("entries"), dict):
                summary = loaded
        except (OSError, ValueError):
            pass  # a corrupt summary is rebuilt rather than crashing the bench

    def _coerce(value: object) -> object:
        if hasattr(value, "item"):  # numpy scalar
            return value.item()
        return value

    summary["environment"] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    entries = summary["entries"]
    assert isinstance(entries, dict)
    entries[name] = [
        {key: _coerce(value) for key, value in row.items()} for row in rows
    ]
    # Atomic publish: temp file in the same directory (os.replace cannot cross
    # filesystems), then rename over the target.
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    temp.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    os.replace(temp, path)

    coerced = [{key: _coerce(value) for key, value in row.items()} for row in rows]
    _dual_write_telemetry(path, name, coerced, telemetry_db)
    return path


def _dual_write_telemetry(
    summary_path: Path,
    name: str,
    rows: Sequence[Dict[str, object]],
    telemetry_db: Optional[Path],
) -> None:
    """Mirror one bench's rows into the telemetry store (best-effort)."""
    from repro.telemetry.store import TelemetryStore, default_db_path
    from repro.utils.logging import get_logger

    db = telemetry_db if telemetry_db is not None else default_db_path(summary_path.parent)
    try:
        with TelemetryStore(db) as store:
            store.insert_bench_rows(name, rows)
    except Exception as exc:  # noqa: BLE001 - telemetry must never fail a bench
        get_logger("experiments.reporting").warning(
            "telemetry dual-write to %s failed: %s", db, exc
        )
