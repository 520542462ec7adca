"""Tests for the telemetry plane: recorder, store, queries, report, gate.

The concurrency tests mirror the shared-memory suites: N forked processes
emit spans simultaneously and everything drains into one DB with no lost or
duplicated events, and a worker SIGKILLed mid-buffer loses at most the tail
it had not flushed.  The pinned-output tests run the three standing report
queries against the deterministic seeded history (``seed_store``), so the
window-function SQL is held to exact values, not just shapes.
"""

from __future__ import annotations

import io
import json
import logging
import multiprocessing
import os
import signal
import sqlite3

import pytest

from repro.telemetry import queries
from repro.telemetry.recorder import Recorder, get_recorder, read_spool_file, set_recorder
from repro.telemetry.report import main as telemetry_main
from repro.telemetry.report import run_report, seed_store
from repro.telemetry.runtime import current_run_id, detect_commit, reset_run_id, set_run_id
from repro.telemetry.store import TelemetryStore, default_db_path
from repro.utils.timer import Timer


@pytest.fixture
def run_id():
    """Pin the process run id for a test, restoring the previous state after."""
    previous = os.environ.get("REPRO_RUN_ID")
    yield set_run_id("test-run-0001")
    reset_run_id()
    if previous is not None:
        set_run_id(previous)


@pytest.fixture
def store(tmp_path):
    with TelemetryStore(tmp_path / "telemetry.sqlite") as handle:
        yield handle


# ---------------------------------------------------------------- recorder basics
class TestRecorder:
    def test_counter_gauge_span_buffer(self, run_id):
        recorder = Recorder(run_id=run_id)
        recorder.counter("loop.iterations", 3, phase="train")
        recorder.gauge("queue.depth", 7.5)
        with recorder.span("work"):
            pass
        assert len(recorder) == 3
        events = recorder.drain()
        assert len(recorder) == 0
        assert [e[0] for e in events] == [0, 1, 2]  # seq is dense per process
        (seq0, kind0, name0, value0, ts0, labels0) = events[0]
        assert (kind0, name0, value0) == ("counter", "loop.iterations", 3.0)
        assert labels0 == {"phase": "train"}
        assert events[1][1:4] == ("gauge", "queue.depth", 7.5)
        assert events[2][1] == "span" and events[2][2] == "work"
        assert events[2][3] >= 0.0  # measured duration
        assert events[2][4] >= ts0  # monotonic timestamps

    def test_disabled_recorder_is_noop(self):
        recorder = Recorder(enabled=False)
        recorder.counter("c")
        recorder.gauge("g", 1.0)
        recorder.record_span("s", 0.1)
        with recorder.span("block") as span:
            pass
        # Disabled span() hands back one shared no-op object — no allocation.
        assert span is recorder.span("other")
        assert len(recorder) == 0 and recorder.drain() == []

    def test_global_recorder_default_disabled(self):
        assert get_recorder().enabled is False

    def test_set_recorder_round_trip(self):
        original = get_recorder()
        try:
            mine = Recorder(run_id="swap")
            assert set_recorder(mine) is mine
            assert get_recorder() is mine
        finally:
            set_recorder(original)

    def test_fork_resets_buffer_and_seq(self, run_id, tmp_path):
        recorder = Recorder(run_id=run_id, spool_dir=tmp_path)
        recorder.counter("parent.before", 1)
        child = os.fork()
        if child == 0:  # pragma: no cover - asserted via exit code
            ok = True
            try:
                recorder.counter("child.event", 1)
                events = recorder.drain()
                # The inherited parent event is discarded; the child restarts
                # at seq 0 under its own pid.
                ok = [(e[0], e[2]) for e in events] == [(0, "child.event")]
                ok = ok and recorder.pid == os.getpid()
            except BaseException:
                ok = False
            os._exit(0 if ok else 1)
        _, status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        # The parent's buffer is untouched by the child's reset.
        assert [(e[0], e[2]) for e in recorder.drain()] == [(0, "parent.before")]

    def test_flush_and_spool_round_trip(self, run_id, tmp_path):
        recorder = Recorder(run_id=run_id, spool_dir=tmp_path)
        recorder.gauge("latency", 1.25, route="a")
        recorder.gauge("latency", 2.5)
        assert recorder.flush() == 2
        assert recorder.flush() == 0  # buffer emptied
        events = list(read_spool_file(recorder.spool_path()))
        assert [(pid, e["seq"], e["value"]) for pid, e in events] == [
            (os.getpid(), 0, 1.25),
            (os.getpid(), 1, 2.5),
        ]
        assert events[0][1]["labels"] == {"route": "a"}

    def test_auto_flush_at_threshold(self, run_id, tmp_path):
        recorder = Recorder(run_id=run_id, spool_dir=tmp_path, flush_every=4)
        for n in range(10):
            recorder.counter("tick")
        # Two auto-flushes of 4 happened; 2 events remain buffered.
        assert len(recorder) == 2
        assert len(list(read_spool_file(recorder.spool_path()))) == 8

    def test_spool_requires_directory(self):
        with pytest.raises(ValueError, match="no spool_dir"):
            Recorder(run_id="x").spool_path()

    def test_torn_tail_is_skipped(self, run_id, tmp_path):
        recorder = Recorder(run_id=run_id, spool_dir=tmp_path)
        recorder.counter("kept", 1)
        recorder.flush()
        with open(recorder.spool_path(), "a") as handle:
            handle.write('{"seq": 1, "kind": "counter", "na')  # killed mid-write
        events = [e for _, e in read_spool_file(recorder.spool_path())]
        assert [e["name"] for e in events] == ["kept"]


# ---------------------------------------------------------------- run identity
class TestRuntime:
    def test_run_id_exported_to_environment(self):
        reset_run_id()
        try:
            rid = current_run_id()
            assert os.environ["REPRO_RUN_ID"] == rid
            assert current_run_id() == rid  # cached
        finally:
            reset_run_id()

    def test_run_id_inherited_from_environment(self):
        reset_run_id()
        os.environ["REPRO_RUN_ID"] = "inherited-42"
        try:
            assert current_run_id() == "inherited-42"
        finally:
            reset_run_id()

    def test_detect_commit_reads_head(self, tmp_path):
        git = tmp_path / ".git"
        git.mkdir()
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        refs = git / "refs" / "heads"
        refs.mkdir(parents=True)
        (refs / "main").write_text("abc123\n")
        assert detect_commit(tmp_path) == "abc123"
        # Packed refs path: drop the loose ref.
        (refs / "main").unlink()
        (git / "packed-refs").write_text("def456 refs/heads/main\n")
        assert detect_commit(tmp_path) == "def456"
        # Detached HEAD is the sha itself.
        (git / "HEAD").write_text("0123abcd\n")
        assert detect_commit(tmp_path) == "0123abcd"

    def test_detect_commit_unknown_outside_repo(self, tmp_path):
        assert detect_commit(tmp_path) == "unknown"

    def test_default_db_path_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_DB", str(tmp_path / "override.sqlite"))
        assert default_db_path(tmp_path / "ignored") == tmp_path / "override.sqlite"
        monkeypatch.delenv("REPRO_TELEMETRY_DB")
        assert default_db_path(tmp_path) == tmp_path / "telemetry.sqlite"


# ---------------------------------------------------------------- store
class TestStore:
    def test_drain_and_dedup(self, run_id, store):
        recorder = Recorder(run_id=run_id)
        recorder.counter("a")
        recorder.gauge("b", 2.0)
        assert store.drain(recorder) == 2
        assert len(recorder) == 0
        # Re-inserting the same (run, pid, seq) rows is a no-op.
        assert store.insert_events(run_id, recorder.pid, [(0, "counter", "a", 1.0, 0.0, {})]) == 0
        assert store.counts()["events"] == 2

    def test_ingest_spool_idempotent_and_removes(self, run_id, store, tmp_path):
        spool = tmp_path / "spool"
        recorder = Recorder(run_id=run_id, spool_dir=spool)
        for n in range(5):
            recorder.counter("tick", n)
        recorder.flush()
        path = recorder.spool_path()
        content = open(path, "rb").read()
        # First ingest inserts and unlinks; a crash between commit and unlink
        # is modelled by restoring the same file — re-ingest inserts nothing.
        assert store.ingest_spool(spool) == 5
        assert list(spool.glob("events-*.jsonl")) == []
        with open(path, "wb") as handle:
            handle.write(content)
        assert store.ingest_spool(spool, remove=False) == 0
        assert store.ingest_spool(spool) == 0  # still there, still deduped
        assert list(spool.glob("events-*.jsonl")) == []
        assert store.counts()["events"] == 5

    def test_record_run_keeps_first_started_at(self, store):
        store.record_run("r1", commit_sha="aaa", started_at=100.0)
        store.record_run("r1", commit_sha="bbb", started_at=200.0)
        sha, started = store.connection().execute(
            "SELECT commit_sha, started_at FROM runs WHERE run_id = 'r1'"
        ).fetchone()
        assert (sha, started) == ("aaa", 100.0)
        # 'unknown' is placeholder metadata a later call may improve on.
        store.record_run("r2", commit_sha="unknown", started_at=1.0)
        store.record_run("r2", commit_sha="ccc", started_at=2.0)
        sha2 = store.connection().execute(
            "SELECT commit_sha FROM runs WHERE run_id = 'r2'"
        ).fetchone()[0]
        assert sha2 == "ccc"

    def test_bench_rows_long_form_and_history(self, store):
        rows = [{"mode": "microbatch", "throughput_req_s": 100.0, "p99_ms": 4.2, "ok": True}]
        for n, rid in enumerate(["r1", "r2", "r3"]):
            store.record_run(rid, started_at=float(n))
            rows[0]["throughput_req_s"] = 100.0 + n
            store.insert_bench_rows("serving", rows, run_id=rid)
        history = store.bench_history("serving", 0, "throughput_req_s", last_n=2)
        assert history == [("r3", 102.0), ("r2", 101.0)]  # newest first
        assert store.bench_history("serving", 0, "throughput_req_s", 5, exclude_run="r3") == [
            ("r2", 101.0),
            ("r1", 100.0),
        ]
        labels = store.connection().execute(
            "SELECT DISTINCT labels FROM bench_rows WHERE bench = 'serving'"
        ).fetchall()
        assert labels == [('{"mode": "microbatch", "ok": true}',)]

    def test_insert_bench_rows_last_writer_wins(self, store):
        store.record_run("r1", started_at=1.0)
        store.insert_bench_rows("b", [{"x_per_s": 1.0}], run_id="r1")
        store.insert_bench_rows("b", [{"x_per_s": 2.0}], run_id="r1")
        assert store.bench_history("b", 0, "x_per_s", 5) == [("r1", 2.0)]

    def test_event_kind_constraint(self, store):
        with pytest.raises(sqlite3.IntegrityError):
            with store.connection() as conn:
                conn.execute(
                    "INSERT INTO events (run_id, pid, seq, kind, name, value, monotonic_ts)"
                    " VALUES ('r', 1, 0, 'histogram', 'n', 0.0, 0.0)"
                )


# ---------------------------------------------------------------- concurrency
def _spool_worker(spool_dir: str, run_id: str, events_per_proc: int, barrier) -> None:
    recorder = Recorder(run_id=run_id, spool_dir=spool_dir, flush_every=16)
    barrier.wait()  # all workers emit at the same time
    for n in range(events_per_proc):
        with recorder.span("worker.step", step=n):
            pass
    recorder.flush()


def _kill_worker(spool_dir: str, run_id: str, ready, release) -> None:
    recorder = Recorder(run_id=run_id, spool_dir=spool_dir)
    for n in range(100):
        recorder.counter("flushed.event", n)
    recorder.flush()
    for n in range(50):
        recorder.counter("buffered.event", n)  # never flushed
    ready.set()
    release.wait(30)  # SIGKILL lands here


class TestConcurrentWriters:
    EVENTS_PER_PROC = 200
    WORKERS = 4

    def test_forked_writers_no_lost_or_duplicate_events(self, run_id, store, tmp_path):
        spool = tmp_path / "spool"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(self.WORKERS)
        procs = [
            ctx.Process(
                target=_spool_worker,
                args=(str(spool), run_id, self.EVENTS_PER_PROC, barrier),
            )
            for _ in range(self.WORKERS)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(30)
            assert proc.exitcode == 0
        assert store.ingest_spool(spool) == self.WORKERS * self.EVENTS_PER_PROC
        conn = store.connection()
        per_pid = conn.execute(
            "SELECT pid, COUNT(*), COUNT(DISTINCT seq), MIN(seq), MAX(seq) "
            "FROM events WHERE run_id = ? GROUP BY pid",
            (run_id,),
        ).fetchall()
        assert len(per_pid) == self.WORKERS
        for _pid, count, distinct, low, high in per_pid:
            # No losses (dense 0..N-1 sequence) and no duplicates per writer.
            assert (count, distinct, low, high) == (
                self.EVENTS_PER_PROC,
                self.EVENTS_PER_PROC,
                0,
                self.EVENTS_PER_PROC - 1,
            )

    def test_killed_worker_loses_only_undrained_tail(self, run_id, store, tmp_path):
        spool = tmp_path / "spool"
        ctx = multiprocessing.get_context("fork")
        ready, release = ctx.Event(), ctx.Event()
        proc = ctx.Process(target=_kill_worker, args=(str(spool), run_id, ready, release))
        proc.start()
        assert ready.wait(30)
        os.kill(proc.pid, signal.SIGKILL)  # buffer of 50 events dies with it
        proc.join(30)
        assert store.ingest_spool(spool) == 100
        names = store.connection().execute(
            "SELECT DISTINCT name FROM events WHERE run_id = ?", (run_id,)
        ).fetchall()
        # Everything flushed before the kill survives; only the tail is lost.
        assert names == [("flushed.event",)]


# ---------------------------------------------------------------- queries (pinned)
@pytest.fixture(scope="class")
def seeded_conn(tmp_path_factory):
    db = tmp_path_factory.mktemp("seeded") / "telemetry.sqlite"
    assert seed_store(db, runs=6, seed=0) == 1207
    with TelemetryStore(db) as store:
        yield store.connection()


class TestQueriesPinned:
    """Exact expected outputs for the seeded history (runs=6, seed=0)."""

    def test_rolling_p99_latency(self, seeded_conn):
        rows = queries.rolling_percentile(seeded_conn, "serve.latency_ms", last_n=3)
        assert all(r["n_samples"] == 200 for r in rows)
        assert [
            (r["run_id"], r["value"], r["rolling_value"], r["rolling_max"]) for r in rows
        ] == [
            ("seed-000-000", 4.9311, 4.9311, 4.9311),
            ("seed-000-001", 5.2048, 5.06795, 5.2048),
            ("seed-000-002", 5.4361, 5.190667, 5.4361),
            ("seed-000-003", 5.6327, 5.424533, 5.6327),
            ("seed-000-004", 5.9138, 5.660867, 5.9138),
            ("seed-000-005", 6.2104, 5.918967, 6.2104),
        ]

    def test_rolling_percentile_median(self, seeded_conn):
        # q=0.5 picks the ceil(0.5 * 200) = 100th order statistic.
        rows = queries.rolling_percentile(
            seeded_conn, "serve.latency_ms", last_n=5, quantile=0.5
        )
        assert [r["run_id"] for r in rows] == [f"seed-000-{n:03d}" for n in range(6)]
        assert all(r["value"] < 5.0 for r in rows)  # medians well under the p99s

    def test_per_run_resize_counts(self, seeded_conn):
        rows = queries.per_run_event_counts(seeded_conn, "autotuner.resize", last_n=3)
        assert rows == [
            {"run_id": "seed-000-000", "count": 0, "trailing_sum": 0},
            {"run_id": "seed-000-001", "count": 1, "trailing_sum": 1},
            {"run_id": "seed-000-002", "count": 2, "trailing_sum": 3},
            {"run_id": "seed-000-003", "count": 3, "trailing_sum": 6},
            {"run_id": "seed-000-004", "count": 0, "trailing_sum": 5},
            {"run_id": "seed-000-005", "count": 1, "trailing_sum": 4},
        ]

    def test_per_commit_throughput_delta(self, seeded_conn):
        rows = queries.per_commit_delta(seeded_conn, "serving_microbatch", "throughput_req_s")
        assert all(r["n_runs"] == 1 for r in rows)
        assert [(r["commit"], r["value"], r["delta"], r["rel_delta"]) for r in rows] == [
            ("c0000000", 900.0, None, None),
            ("c0000001", 925.0, 25.0, 0.027778),
            ("c0000002", 950.0, 25.0, 0.027027),
            ("c0000003", 975.0, 25.0, 0.026316),
            ("c0000004", 800.0, -175.0, -0.179487),  # the seeded dip
            ("c0000005", 1025.0, 225.0, 0.28125),
        ]

    def test_monotone_trend_detects_dip_and_rise(self, seeded_conn):
        verdict = queries.monotone_trend(
            seeded_conn, "serving_microbatch", "throughput_req_s", last_n=5
        )
        assert verdict == {
            "bench": "serving_microbatch",
            "metric": "throughput_req_s",
            "n_runs": 5,
            "trend": "mixed",
        }
        rows = seeded_conn.execute(
            "SELECT COUNT(*) FROM bench_rows WHERE bench = 'serving_microbatch'"
        )
        assert rows.fetchone()[0] == 6  # one throughput row per seeded run

    def test_monotone_trend_directions(self, tmp_path):
        with TelemetryStore(tmp_path / "trend.sqlite") as store:
            for n, value in enumerate([1.0, 2.0, 3.0]):
                store.record_run(f"up-{n}", started_at=float(n))
                store.insert_bench_rows("b", [{"m_per_s": value}], run_id=f"up-{n}")
            conn = store.connection()
            assert queries.monotone_trend(conn, "b", "m_per_s")["trend"] == "increasing"
            one_run = queries.monotone_trend(conn, "b", "m_per_s", last_n=1)
            assert one_run["trend"] == "insufficient"
            for n, value in enumerate([0.5, 0.5]):
                store.record_run(f"flat-{n}", started_at=100.0 + n)
                store.insert_bench_rows("f", [{"m_per_s": value}], run_id=f"flat-{n}")
            assert queries.monotone_trend(conn, "f", "m_per_s")["trend"] == "flat"

    def test_window_validation(self, seeded_conn):
        with pytest.raises(ValueError, match="last_n"):
            queries.per_run_event_counts(seeded_conn, "x", last_n=0)
        with pytest.raises(ValueError, match="quantile"):
            queries.rolling_percentile(seeded_conn, "x", quantile=1.5)


# ---------------------------------------------------------------- report CLI
class TestReportCli:
    def test_seed_then_report(self, tmp_path, capsys):
        db = tmp_path / "cli.sqlite"
        assert telemetry_main(["seed", "--db", str(db), "--runs", "6"]) == 0
        assert telemetry_main(["report", "--db", str(db), "--last-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "telemetry report" in out and "6 runs" in out
        assert "rolling p99 of serve.latency_ms" in out
        assert "seed-000-005" in out and "6.21" in out
        assert "per-run autotuner.resize counts" in out
        assert "per-commit delta of serving_microbatch.throughput_req_s" in out
        assert "trend over last 3 runs" in out and "mixed" in out

    def test_report_missing_db(self, tmp_path):
        assert run_report(tmp_path / "absent.sqlite", out=io.StringIO()) == 1

    def test_ingest_subcommand(self, run_id, tmp_path, capsys):
        spool = tmp_path / "spool"
        recorder = Recorder(run_id=run_id, spool_dir=spool)
        recorder.counter("cli.tick", 1)
        recorder.flush()
        db = tmp_path / "ingest.sqlite"
        assert telemetry_main(["ingest", "--db", str(db), "--spool", str(spool)]) == 0
        assert "ingested 1 event(s)" in capsys.readouterr().out
        with TelemetryStore(db) as store:
            assert store.counts()["events"] == 1


# ---------------------------------------------------------------- trajectory gate
@pytest.fixture
def gate(tmp_path, monkeypatch):
    """A summary/baseline/db triple plus the gate entrypoint, isolated per test."""
    import importlib
    import sys
    from pathlib import Path

    tools = str(Path(__file__).resolve().parents[1] / "tools")
    if tools not in sys.path:
        sys.path.insert(0, tools)
    check = importlib.import_module("check_bench_regression")
    monkeypatch.delenv("REPRO_RUN_ID", raising=False)

    summary = tmp_path / "BENCH_summary.json"
    baseline = tmp_path / "BENCH_baseline.json"
    db = tmp_path / "telemetry.sqlite"

    def write(path, throughput):
        path.write_text(
            json.dumps(
                {"schema": 1, "entries": {"serving": [{"mode": "m", "req_per_s": throughput}]}}
            )
        )

    def history(values, *, start=0):
        with TelemetryStore(db) as store:
            for n, value in enumerate(values):
                rid = f"hist-{start + n:03d}"
                store.record_run(rid, started_at=float(start + n))
                store.insert_bench_rows(
                    "serving", [{"mode": "m", "req_per_s": value}], run_id=rid
                )

    return type(
        "Gate",
        (),
        {
            "check": check,
            "summary": summary,
            "baseline": baseline,
            "db": db,
            "write": staticmethod(write),
            "history": staticmethod(history),
        },
    )


class TestTrajectoryGate:
    def _run(self, gate, *extra):
        return gate.check.main(
            [
                "--summary",
                str(gate.summary),
                "--baseline",
                str(gate.baseline),
                "--db",
                str(gate.db),
                *extra,
            ]
        )

    def test_falls_back_to_point_baseline_without_history(self, gate, capsys):
        gate.write(gate.summary, 95.0)
        gate.write(gate.baseline, 100.0)
        assert self._run(gate) == 0
        assert "1 on the point baseline" in capsys.readouterr().out

    def test_history_median_passes_and_fails(self, gate, capsys):
        gate.history([1000.0, 1010.0, 990.0])
        gate.write(gate.summary, 900.0)  # 10% below the 1000 median: fine
        assert self._run(gate) == 0
        assert "1 gated on run history" in capsys.readouterr().out
        gate.write(gate.summary, 700.0)  # 30% below: regression
        assert self._run(gate) == 1
        assert "below median" in capsys.readouterr().err

    def test_median_robust_to_one_lucky_run(self, gate):
        # One outlier run at 2000 must not drag the reference up.
        gate.history([1000.0, 2000.0, 1000.0])
        gate.write(gate.summary, 900.0)
        assert self._run(gate) == 0

    def test_current_run_excluded_from_its_own_window(self, gate, monkeypatch):
        gate.history([1000.0, 1000.0])
        # The gated run itself dual-wrote a slow row before gating ran.
        gate.history([700.0], start=10)
        monkeypatch.setenv("REPRO_RUN_ID", "hist-010")
        gate.write(gate.summary, 700.0)
        assert self._run(gate) == 1  # own row did not dilute the median

    def test_window_flag_bounds_history(self, gate):
        gate.history([500.0] * 5 + [1000.0] * 3)  # old slow era, then fast
        gate.write(gate.summary, 700.0)
        assert self._run(gate, "--window", "3") == 1  # recent median 1000 → fail
        assert self._run(gate, "--window", "8") == 0  # long window median 500-ish

    def test_skips_metric_with_no_history_or_baseline(self, gate, capsys):
        gate.write(gate.summary, 95.0)  # no baseline file, empty db
        assert self._run(gate) == 0
        out = capsys.readouterr().out
        assert "no point baseline; skipping" in out


# ---------------------------------------------------------------- bridges
class TestBridges:
    def test_timer_to_span(self, run_id):
        recorder = Recorder(run_id=run_id)
        timer = Timer()
        with timer:
            pass
        timer.start()
        timer.stop("epoch")
        assert timer.to_span(recorder, suite="unit") == 2
        events = recorder.drain()
        assert sorted(e[2] for e in events) == ["timer.default", "timer.epoch"]
        assert all(e[1] == "span" and e[5] == {"suite": "unit"} for e in events)

    def test_timer_to_span_disabled_recorder(self):
        timer = Timer()
        timer.start()
        timer.stop()
        # Emission no-ops but the bridge still reports what it walked.
        assert timer.to_span(Recorder(enabled=False)) == 1

    def test_log_records_carry_run_id(self, run_id, capsys):
        from repro.utils.logging import _FORMAT, _RunIdFilter

        handler = logging.StreamHandler(io.StringIO())
        handler.setFormatter(logging.Formatter(_FORMAT))
        handler.addFilter(_RunIdFilter())
        logger = logging.Logger("repro.test_telemetry")
        logger.addHandler(handler)
        logger.info("hello")
        line = handler.stream.getvalue()
        assert f"run={run_id}" in line and "hello" in line

    def test_dual_write_from_record_bench_summary(self, run_id, tmp_path):
        from repro.experiments.reporting import record_bench_summary

        summary = tmp_path / "BENCH_summary.json"
        rows = [{"mode": "m", "items_per_s": 123.0}]
        record_bench_summary(summary, "bridge_bench", rows)
        with TelemetryStore(tmp_path / "telemetry.sqlite") as store:
            assert store.bench_history("bridge_bench", 0, "items_per_s", 5) == [
                (run_id, 123.0)
            ]

    def test_dual_write_failure_never_raises(self, run_id, tmp_path, caplog):
        from repro.experiments.reporting import record_bench_summary

        bad_db = tmp_path / "not-a-dir"
        bad_db.write_text("occupied")  # a file where the db's parent dir must go
        summary = tmp_path / "BENCH_summary.json"
        with caplog.at_level(logging.WARNING, logger="repro.experiments.reporting"):
            record_bench_summary(
                summary,
                "bridge_bench",
                [{"items_per_s": 1.0}],
                telemetry_db=bad_db / "telemetry.sqlite",
            )
        assert summary.exists()  # the JSON write still happened
        assert any("dual-write" in record.message for record in caplog.records)


# ---------------------------------------------------------------- integration
class TestInstrumentation:
    def test_trainer_emits_sync_spans_and_counters(self, run_id, tmp_path):
        from repro.engine import CrossbowConfig, CrossbowTrainer

        recorder = set_recorder(Recorder(run_id=run_id))
        try:
            config = CrossbowConfig(
                model_name="mlp",
                dataset_name="blobs",
                num_gpus=1,
                batch_size=32,
                replicas_per_gpu=2,
                max_epochs=1,
                seed=3,
                dataset_overrides={"num_train": 128, "num_test": 64, "input_dim": 8},
                model_overrides={"input_dim": 8, "hidden_sizes": (8,)},
            )
            trainer = CrossbowTrainer(config)
            try:
                trainer.train()
            finally:
                trainer.close()
            events = recorder.drain()
        finally:
            set_recorder(Recorder(enabled=False))
        names = {e[2] for e in events}
        assert "trainer.sync" in names
        assert "trainer.epochs" in names
        sync_spans = [e for e in events if e[2] == "trainer.sync"]
        assert all(e[1] == "span" and e[3] >= 0.0 for e in sync_spans)
        assert {"overlapped", "staleness"} <= set(sync_spans[0][5])
        epochs = [e for e in events if e[2] == "trainer.epochs"]
        assert epochs[0][3] == 1.0

    def test_inference_server_emits_batch_spans_and_latency(self, run_id):
        import numpy as np

        from repro.models import create_model
        from repro.serve import InferenceServer
        from repro.utils.rng import RandomState

        model = create_model(
            "mlp", rng=RandomState(3), input_dim=32, num_classes=4, hidden_sizes=(16,)
        )
        recorder = set_recorder(Recorder(run_id=run_id))
        try:
            server = InferenceServer(model, max_batch_size=8, max_latency_ms=5.0)
            with server:
                futures = [
                    server.submit(
                        RandomState(n).normal(size=(1, 1, 1, 32)).astype(np.float32)
                    )
                    for n in range(6)
                ]
                for future in futures:
                    assert future.result(timeout=30.0).shape == (1, 4)
            events = recorder.drain()
        finally:
            set_recorder(Recorder(enabled=False))
        kinds = {(e[1], e[2]) for e in events}
        assert ("span", "serve.batch") in kinds
        assert ("gauge", "serve.latency_ms") in kinds
        latencies = [e[3] for e in events if e[2] == "serve.latency_ms"]
        assert len(latencies) == 6 and all(value >= 0.0 for value in latencies)
        # stop() snapshots the admission counters into the plane.
        counters = {e[2]: e[3] for e in events if e[1] == "counter"}
        assert counters["serve.accepted"] == 6.0

    def test_scenario_runner_emits_rows_as_gauges(self, run_id):
        from repro.scenarios import PoissonTrace, Scenario, ScenarioRunner

        recorder = set_recorder(Recorder(run_id=run_id))
        try:
            runner = ScenarioRunner()
            result = runner.run(
                Scenario(trace=PoissonTrace(rate_rps=40.0, duration_s=1.0))
            )
            rows = ScenarioRunner.rows([result])
            events = recorder.drain()
        finally:
            set_recorder(Recorder(enabled=False))
        assert rows  # the runner produced at least one scenario row
        names = {e[2] for e in events}
        assert "scenario.simulate" in names
        assert any(name.startswith("scenario.") and name != "scenario.simulate" for name in names)
