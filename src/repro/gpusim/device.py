"""GPUs, streams, events and the simulated task timeline.

Kernels submitted to the same stream execute in issue order; kernels on
different streams may overlap.  Cross-stream dependencies are expressed with
events, exactly as Crossbow's task scheduler does with CUDA events (§4.3).  The
simulator keeps a per-stream "available at" clock and derives every task's
start time from ``max(stream available, dependency completion times)``, which
is sufficient to reproduce the overlap behaviour the paper relies on (learning
tasks of iteration N+1 overlapping with synchronisation tasks of iteration N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import SchedulingError
from repro.gpusim.costmodel import GpuSpec


@dataclass(frozen=True)
class TaskRecord:
    """One completed task on the simulated timeline."""

    name: str
    gpu_id: int
    stream_id: int
    start: float
    end: float
    kind: str = "task"

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Event:
    """A publish/subscribe synchronisation point between streams.

    The event is *recorded* after a task completes and carries that task's
    completion time; waiting on the event simply makes a later task start no
    earlier than this time.
    """

    name: str
    time: Optional[float] = None

    def record(self, time: float) -> None:
        self.time = time

    def ready_time(self) -> float:
        if self.time is None:
            raise SchedulingError(f"event {self.name!r} was waited on before being recorded")
        return self.time


class Stream:
    """An in-order queue of device work belonging to one GPU."""

    def __init__(self, gpu_id: int, stream_id: int, kind: str = "learner") -> None:
        self.gpu_id = gpu_id
        self.stream_id = stream_id
        self.kind = kind
        self.available_at = 0.0
        self.records: List[TaskRecord] = []

    def schedule(
        self,
        name: str,
        duration: float,
        dependencies: Sequence[float] = (),
        not_before: float = 0.0,
        kind: str = "task",
    ) -> TaskRecord:
        """Schedule a task of ``duration`` seconds after all dependencies complete.

        ``dependencies`` are completion times (from :class:`TaskRecord` ends or
        recorded :class:`Event` times).  Returns the task record and advances
        the stream clock.
        """
        if duration < 0:
            raise SchedulingError(f"task {name!r} has negative duration {duration}")
        start = max([self.available_at, not_before, *dependencies]) if dependencies else max(
            self.available_at, not_before
        )
        record = TaskRecord(
            name=name,
            gpu_id=self.gpu_id,
            stream_id=self.stream_id,
            start=start,
            end=start + duration,
            kind=kind,
        )
        self.available_at = record.end
        self.records.append(record)
        return record

    def busy_time(self, until: Optional[float] = None) -> float:
        """Total time this stream spent executing tasks (up to ``until``)."""
        total = 0.0
        for record in self.records:
            end = record.end if until is None else min(record.end, until)
            if end > record.start:
                total += end - record.start
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream(gpu={self.gpu_id}, id={self.stream_id}, kind={self.kind!r})"


class Gpu:
    """One simulated GPU: a set of streams plus a copy engine."""

    def __init__(self, gpu_id: int, spec: Optional[GpuSpec] = None) -> None:
        self.gpu_id = gpu_id
        self.spec = spec if spec is not None else GpuSpec()
        self._next_stream_id = 0
        self.streams: Dict[int, Stream] = {}
        self._retired_learner_streams: List[Stream] = []
        self.copy_engine = self._new_stream(kind="copy")
        self.sync_stream = self._new_stream(kind="sync")

    def _new_stream(self, kind: str) -> Stream:
        stream = Stream(self.gpu_id, self._next_stream_id, kind=kind)
        self.streams[stream.stream_id] = stream
        self._next_stream_id += 1
        return stream

    def add_learner_stream(self) -> Stream:
        """A learner stream for a new learner, reusing a retired one when possible.

        Without reuse, auto-tuner grow/shrink oscillation leaks one stream per
        cycle per GPU (retired streams would pile up in ``streams`` forever).
        """
        if self._retired_learner_streams:
            stream = self._retired_learner_streams.pop()
            stream.kind = "learner"
            return stream
        return self._new_stream(kind="learner")

    def retire_learner_stream(self, stream_id: int) -> None:
        """Park a learner stream for reuse when its learner is removed."""
        stream = self.streams.get(stream_id)
        if stream is None or stream.kind != "learner":
            raise SchedulingError(
                f"stream {stream_id} on GPU {self.gpu_id} is not an active learner stream"
            )
        stream.kind = "retired"
        self._retired_learner_streams.append(stream)

    def learner_streams(self) -> List[Stream]:
        return [s for s in self.streams.values() if s.kind == "learner"]

    def busy_time(self, until: Optional[float] = None) -> float:
        return sum(stream.busy_time(until) for stream in self.streams.values())

    def utilisation(self, until: float) -> float:
        """Fraction of (streams x wall-clock) the GPU spent executing tasks."""
        if until <= 0:
            return 0.0
        learner_streams = self.learner_streams() or [self.sync_stream]
        capacity = until * len(learner_streams)
        busy = sum(stream.busy_time(until) for stream in learner_streams)
        return min(1.0, busy / capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gpu(id={self.gpu_id}, streams={len(self.streams)})"
