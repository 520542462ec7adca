"""The telemetry emission layer: lock-free on the hot path, fork-safe.

The HTAP-style decoupling the package is built around starts here: the hot
training/serving loops only ever *append to a process-local list* (a single
GIL-atomic operation — no locks, no I/O, no SQLite on the hot path).  Events
move toward the analytical store in two explicit, off-path steps:

1. :meth:`Recorder.flush` appends the buffered events to a per-``(run, pid)``
   spool file (JSON lines, one writer per file so lines never interleave);
2. a single writer — whoever owns the store — drains every spool file into
   SQLite in one transaction (:meth:`repro.telemetry.store.TelemetryStore.ingest_spool`).

Fork safety: a child process inherits the parent's recorder object but not
its buffer — the first emission after a fork detects the pid change and
resets to a fresh buffer and sequence counter, so events are never written
twice and every event carries its true ``(run_id, pid, seq, monotonic_ts)``
identity.  The ``(run_id, pid, seq)`` triple is the store's dedup key: a
spool file ingested twice inserts nothing new, and a worker killed mid-run
loses at most the tail it had not flushed.

Disabled recorders are aggressively cheap: every emit method returns after
one attribute check, and :meth:`Recorder.span` hands back one shared no-op
context manager, so instrumented hot paths cost ~zero when telemetry is off
(``benchmarks/bench_telemetry.py`` pins the bound).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.telemetry.runtime import current_run_id

#: event tuples buffered per process: (seq, kind, name, value, monotonic_ts, labels)
Event = Tuple[int, str, str, float, float, Dict[str, Any]]

_KINDS = ("counter", "gauge", "span")


class _NullSpan:
    """Shared no-op context manager returned by disabled recorders."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """Times a ``with`` block and records it as one span event on exit."""

    __slots__ = ("_recorder", "_name", "_labels", "_started")

    def __init__(self, recorder: "Recorder", name: str, labels: Dict[str, Any]) -> None:
        self._recorder = recorder
        self._name = name
        self._labels = labels

    def __enter__(self) -> "_Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._recorder.record_span(
            self._name, time.perf_counter() - self._started, **self._labels
        )


class Recorder:
    """Buffers telemetry events in process-local memory; see the module docstring.

    Parameters
    ----------
    enabled : bool
        Disabled recorders no-op every emission (one attribute check each).
    spool_dir : str or Path, optional
        Where :meth:`flush` appends JSONL spool files.  Without one, events
        stay in memory until :meth:`drain` (the in-process ingest path).
    run_id : str, optional
        Defaults to :func:`repro.telemetry.runtime.current_run_id`.
    flush_every : int
        Auto-flush threshold: when a spool directory is set and the buffer
        reaches this many events, :meth:`flush` runs inline (an append-only
        file write, off the per-event hot path).
    """

    def __init__(
        self,
        enabled: bool = True,
        spool_dir: Optional[Any] = None,
        run_id: Optional[str] = None,
        flush_every: int = 4096,
    ) -> None:
        self.enabled = enabled
        self.spool_dir = None if spool_dir is None else os.fspath(spool_dir)
        self._run_id = run_id
        self.flush_every = max(1, int(flush_every))
        self._pid = os.getpid()
        self._seq = 0
        self._buffer: List[Event] = []

    # -- identity ----------------------------------------------------------------------
    @property
    def run_id(self) -> str:
        if self._run_id is None:
            self._run_id = current_run_id()
        return self._run_id

    @property
    def pid(self) -> int:
        """The owning pid (the forking parent's until the child first emits)."""
        return self._pid

    def _owned(self) -> None:
        # Fork safety: the child inherits the buffer by copy-on-write; those
        # events belong to the parent (which still holds them and will flush
        # them itself), so the child starts from a fresh buffer and seq 0
        # under its own pid.  run_id is inherited deliberately.
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._seq = 0
            self._buffer = []

    # -- emission (hot path) -----------------------------------------------------------
    def counter(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Record one monotonic-count observation (e.g. a counters snapshot)."""
        if not self.enabled:
            return
        self._emit("counter", name, float(value), labels)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Record one point-in-time measurement (e.g. a request latency)."""
        if not self.enabled:
            return
        self._emit("gauge", name, float(value), labels)

    def span(self, name: str, **labels: Any) -> Any:
        """Context manager timing a block; the duration lands as a span event."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, labels)

    def record_span(self, name: str, duration_s: float, **labels: Any) -> None:
        """Record a span whose duration was measured externally (Timer bridge)."""
        if not self.enabled:
            return
        self._emit("span", name, float(duration_s), labels)

    def _emit(self, kind: str, name: str, value: float, labels: Dict[str, Any]) -> None:
        self._owned()
        seq = self._seq
        self._seq = seq + 1
        # A single list.append is the only shared-state mutation: GIL-atomic,
        # so serving threads and the main loop never need a lock here.
        self._buffer.append((seq, kind, name, value, time.monotonic(), labels))
        if self.spool_dir is not None and len(self._buffer) >= self.flush_every:
            self.flush()

    # -- movement toward the store (off the hot path) ----------------------------------
    def __len__(self) -> int:
        return len(self._buffer)

    def drain(self) -> List[Event]:
        """Return and clear the buffered events (the in-process ingest path)."""
        self._owned()
        events, self._buffer = self._buffer, []
        return events

    def spool_path(self) -> str:
        """This process's spool file (one writer per file, append-only)."""
        if self.spool_dir is None:
            raise ValueError("recorder has no spool_dir; use drain() instead")
        return os.path.join(
            self.spool_dir, f"events-{self.run_id}-{self._pid}.jsonl"
        )

    def flush(self) -> int:
        """Append buffered events to the spool file; returns the count written.

        One ``write`` call per flush on a file only this process appends to:
        concurrent writers never interleave *within* a line, and a process
        killed mid-write tears at most the final line, which ingestion skips.
        """
        self._owned()
        if not self._buffer or self.spool_dir is None:
            return 0
        events, self._buffer = self._buffer, []
        os.makedirs(self.spool_dir, exist_ok=True)
        lines = [
            json.dumps(
                {
                    "seq": seq,
                    "kind": kind,
                    "name": name,
                    "value": value,
                    "ts": ts,
                    "labels": labels,
                },
                sort_keys=True,
                default=str,
            )
            for seq, kind, name, value, ts, labels in events
        ]
        with open(self.spool_path(), "a") as handle:
            handle.write("\n".join(lines) + "\n")
        return len(events)


def read_spool_file(path: Any) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Yield ``(pid, event_dict)`` from one spool file, skipping a torn tail.

    The pid is parsed from the ``events-<run>-<pid>.jsonl`` file name; any
    line that fails to parse (only ever the last one, from a writer killed
    mid-``write``) is dropped — that is the "loses at most its undrained
    tail" crash-safety contract.
    """
    name = os.path.basename(os.fspath(path))
    stem = name[: -len(".jsonl")] if name.endswith(".jsonl") else name
    try:
        pid = int(stem.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        raise ValueError(f"not a spool file name: {name!r}")
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue  # torn tail from a crashed writer
            if isinstance(event, dict) and {"seq", "kind", "name", "value"} <= set(event):
                yield pid, event


# -- the process-global default recorder ----------------------------------------------
#: instrumented code paths share one recorder; disabled (no-op) by default so
#: importing telemetry costs nothing until a harness opts in via configure()
_default = Recorder(enabled=False)


def get_recorder() -> Recorder:
    """The process-global recorder used by the instrumented hot paths."""
    return _default


def configure(
    enabled: bool = True,
    spool_dir: Optional[Any] = None,
    run_id: Optional[str] = None,
    flush_every: int = 4096,
) -> Recorder:
    """Replace the global recorder (typically once, at harness startup)."""
    global _default
    _default = Recorder(
        enabled=enabled, spool_dir=spool_dir, run_id=run_id, flush_every=flush_every
    )
    return _default


def set_recorder(recorder: Recorder) -> Recorder:  # repro: waive[R6] - test hook on global state
    """Install a caller-built recorder as the global one (tests)."""
    global _default
    _default = recorder
    return _default
