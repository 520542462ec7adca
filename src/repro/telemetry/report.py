"""The ``python -m repro.telemetry`` CLI: report, seed, ingest.

``report`` answers the standing questions the analytics layer exists for —
rolling p99 serve latency over the last N runs, per-run resize counts, the
serving load signal the auto-scaler feeds on, and per-commit throughput
deltas (plus a monotone-trend verdict) — each backed by one window-function
query from :mod:`repro.telemetry.queries`.

``seed`` writes a small deterministic synthetic history (runs, latency
gauges, resize events, bench rows) so the report and the pinned-output tests
have a known database to run against, and CI can smoke the whole query
surface without real training runs.

``ingest`` drains a spool directory into the store (the single-writer half
of the emission protocol) — useful when a harness collects spool files from
workers and wants them merged out of band.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.telemetry import queries
from repro.telemetry.store import TelemetryStore, default_db_path


def _format_table(rows: Sequence[Dict[str, object]]) -> str:
    """Minimal aligned-text rendering (kept local: telemetry is stdlib-only)."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())

    def _cell(value: object) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.4g}"
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


def run_report(
    db: Path,
    last_n: int = 5,
    latency_event: str = "serve.latency_ms",
    resize_event: str = "autotuner.resize",
    bench: str = "serving_microbatch",
    metric: str = "throughput_req_s",
    out=None,
) -> int:
    """Print the standing analytics sections; returns an exit code."""
    out = out if out is not None else sys.stdout
    if not Path(db).exists():
        print(f"error: no telemetry database at {db}", file=sys.stderr)
        return 1
    with TelemetryStore(db) as store:
        conn = store.connection()
        counts = store.counts()
        print(
            f"telemetry report: {db} ({counts['runs']} runs, "
            f"{counts['events']} events, {counts['bench_rows']} bench rows)",
            file=out,
        )
        print(f"\n== rolling p99 of {latency_event} (window {last_n} runs) ==", file=out)
        print(
            _format_table(
                queries.rolling_percentile(conn, latency_event, last_n=last_n)
            ),
            file=out,
        )
        print(f"\n== per-run {resize_event} counts (trailing {last_n} runs) ==", file=out)
        print(
            _format_table(queries.per_run_event_counts(conn, resize_event, last_n=last_n)),
            file=out,
        )
        print(f"\n== serving load signal (window {last_n} runs) ==", file=out)
        print(_format_table(queries.load_signal(conn, last_n=last_n)), file=out)
        print(f"\n== per-commit delta of {bench}.{metric} ==", file=out)
        print(_format_table(queries.per_commit_delta(conn, bench, metric)), file=out)
        trend = queries.monotone_trend(conn, bench, metric, last_n=last_n)
        print(
            f"\ntrend over last {trend['n_runs']} runs of {bench}.{metric}: "
            f"{trend['trend']}",
            file=out,
        )
    return 0


def seed_store(db: Path, runs: int = 6, seed: int = 0) -> int:
    """Write a deterministic synthetic history; returns the event count.

    Every value derives from ``random.Random(seed)`` (whose sequence is
    stable across Python versions), so the pinned-output report tests and
    the CI smoke read identical numbers everywhere.  The shape mirrors real
    runs: per-run serve-latency gauges with a drifting tail, a handful of
    resize span events, and one bench row whose throughput slowly improves
    with a deliberate dip at the penultimate commit (so the delta and trend
    sections always have something to say).
    """
    rng = random.Random(seed)
    inserted = 0
    with TelemetryStore(db) as store:
        for index in range(runs):
            run_id = f"seed-{seed:03d}-{index:03d}"
            store.record_run(
                run_id,
                commit_sha=f"c{index:07d}",
                host="seed-host",
                python="0.0.0",
                started_at=1_700_000_000.0 + index * 3600.0,
            )
            latencies = [
                (
                    seq,
                    "gauge",
                    "serve.latency_ms",
                    round(1.0 + rng.random() * 4.0 + index * 0.25, 4),
                    float(seq),
                    {},
                )
                for seq in range(200)
            ]
            resizes = [
                (
                    200 + n,
                    "span",
                    "autotuner.resize",
                    round(0.002 + rng.random() * 0.003, 6),
                    200.0 + n,
                    {"direction": "grow" if n % 2 == 0 else "shrink"},
                )
                for n in range(index % 4)
            ]
            inserted += store.insert_events(run_id, pid=1000 + index, events=latencies + resizes)
            throughput = 900.0 + index * 25.0
            if index == runs - 2:
                throughput *= 0.8  # the deliberate dip the delta section surfaces
            store.insert_bench_rows(
                "serving_microbatch",
                [{"mode": "microbatch", "throughput_req_s": round(throughput, 2)}],
                run_id=run_id,
            )
    return inserted


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Query and maintain the telemetry time-series store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="windowed analytics over run history")
    report.add_argument("--db", type=Path, default=None, help="store path")
    report.add_argument("--last-n", type=int, default=5, help="rolling window (runs)")
    report.add_argument("--latency-event", default="serve.latency_ms")
    report.add_argument("--resize-event", default="autotuner.resize")
    report.add_argument("--bench", default="serving_microbatch")
    report.add_argument("--metric", default="throughput_req_s")

    seed = sub.add_parser("seed", help="write a deterministic synthetic history")
    seed.add_argument("--db", type=Path, default=None, help="store path")
    seed.add_argument("--runs", type=int, default=6)
    seed.add_argument("--seed", type=int, default=0)

    ingest = sub.add_parser("ingest", help="drain a spool directory into the store")
    ingest.add_argument("--db", type=Path, default=None, help="store path")
    ingest.add_argument("--spool", type=Path, required=True, help="spool directory")
    ingest.add_argument(
        "--keep", action="store_true", help="keep spool files after ingesting"
    )

    args = parser.parse_args(argv)
    db = args.db if args.db is not None else default_db_path()
    if args.command == "report":
        return run_report(
            db,
            last_n=args.last_n,
            latency_event=args.latency_event,
            resize_event=args.resize_event,
            bench=args.bench,
            metric=args.metric,
        )
    if args.command == "seed":
        inserted = seed_store(db, runs=args.runs, seed=args.seed)
        print(f"seeded {db}: {args.runs} runs, {inserted} events")
        return 0
    with TelemetryStore(db) as store:
        inserted = store.ingest_spool(args.spool, remove=not args.keep)
    print(f"ingested {inserted} event(s) from {args.spool} into {db}")
    return 0
