"""The serving rules, stated once: a sans-I/O admission and micro-batching core.

:class:`BatchingCore` decides who is admitted, when a batch is ripe, who is in
it and who expired.  It never reads a clock, takes a lock, sleeps or runs a
forward pass: callers pass ``now`` in and act on the :class:`Decision` that
comes back.  Three drivers own time around it — the wall-clock
:class:`~repro.serve.inference.InferenceServer` loop, the pooled server that
inherits that loop, and the virtual-time :func:`repro.scenarios.runner.simulate`
— so a simulated verdict describes the server that actually runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Generic, List, Optional, Protocol, TypeVar

import numpy as np

from repro.errors import ConfigurationError

ADMISSION_POLICIES = ("none", "reject", "shed-oldest", "degrade")

#: latency samples kept for percentile reporting (a rolling window, so a
#: long-lived server's memory stays O(1) in the request count)
LATENCY_WINDOW = 16384


@dataclass
class ServeCounters:
    """Admission-control observability, mirroring the trainer's ``SyncCounters``.

    ``accepted``/``rejected``/``shed``/``deadline_missed`` partition every
    submitted request's fate at the admission boundary (a request is counted
    ``accepted`` when enqueued and additionally ``shed``/``deadline_missed``
    if it is later dropped unserved).  ``degraded_batches`` counts forward
    passes run in degrade mode — no coalescing wait, no hot-swap — i.e. how
    often the server chose staleness over shedding.  ``queue_depths`` samples
    the post-admission queue depth per accepted request (rolling window) for
    the p50/p99 depth percentiles in :meth:`summary`.
    """

    accepted: int = 0
    rejected: int = 0
    shed: int = 0
    deadline_missed: int = 0
    degraded_batches: int = 0
    queue_depths: Deque[int] = field(default_factory=lambda: deque(maxlen=LATENCY_WINDOW))

    def record_admission(self, depth: int) -> None:
        self.accepted += 1
        self.queue_depths.append(depth)

    @property
    def offered(self) -> int:
        """Every request that reached the admission boundary.

        ``accepted`` and ``rejected`` partition the offered load (a shed or
        deadline-missed request was *accepted* first), so conservation —
        ``offered == accepted + rejected`` and
        ``accepted >= shed + deadline_missed`` — holds at every instant; the
        scenario harness's property tests assert exactly these identities.
        """
        return self.accepted + self.rejected

    @property
    def max_queue_depth_seen(self) -> int:
        """Deepest post-admission queue observed (0 before any admission)."""
        return max(self.queue_depths, default=0)

    def summary(self) -> Dict[str, float]:
        depths = np.asarray(self.queue_depths, dtype=np.float64)
        return {
            "offered": self.offered,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "shed": self.shed,
            "deadline_missed": self.deadline_missed,
            "degraded_batches": self.degraded_batches,
            "queue_depth_p50": float(np.percentile(depths, 50)) if depths.size else 0.0,
            "queue_depth_p99": float(np.percentile(depths, 99)) if depths.size else 0.0,
        }


class Batchable(Protocol):
    """What the core reads off a request; drivers bring their own request type."""

    @property
    def size(self) -> int: ...  # samples, >= 1

    @property
    def enqueued_at(self) -> float: ...  # the driver's clock at admission

    @property
    def deadline(self) -> Optional[float]: ...  # same clock; None = no deadline


R = TypeVar("R", bound=Batchable)


@dataclass
class Decision(Generic[R]):
    """One :meth:`BatchingCore.next_batch` answer; the driver acts on every field."""

    batch: List[R]  # run one forward pass over these (empty: nothing ripe)
    expired: List[R]  # already counted ``deadline_missed``: tell their callers
    degraded: bool = False  # formed under degrade-mode overload: skip the hot swap
    wake_at: Optional[float] = None  # nothing ripe before this instant (or a new admit)


class BatchingCore(Generic[R]):
    """The request queue, its :class:`ServeCounters`, and every rule over them.

    **Admission** happens at submit time against ``len(queue)`` — every request
    still waiting for a forward pass, the coalescing window included:
    ``reject`` refuses the newcomer at ``max_queue_depth`` queued requests;
    ``shed-oldest`` drops the oldest queued request, then admits; ``degrade``
    and ``none`` admit everything.

    **Ripeness.**  The oldest waiting request *anchors* a ``max_latency_ms``
    window.  A batch is ripe when the queue holds ``max_batch_size`` samples,
    when the anchor's window has expired, or — ``degrade`` only — when at
    least ``max_queue_depth`` requests wait *behind* the anchor (overload:
    stop waiting for company and, the driver's half, stop hot-swapping).

    **Membership.**  A ripe batch takes requests in arrival order up to the
    sample cap.  A request that would overflow stays at the head of the queue
    and anchors the next batch, so only a lone oversized request is ever served
    above the cap.

    **Deadlines** are checked when a request is taken for a batch, not while
    it waits: ``now > deadline`` counts it ``deadline_missed`` and returns it
    in ``expired``.  (A take that found only expired requests emptied the
    queue — it stops early only behind a non-empty batch — so an empty batch
    never leaves a ripe request behind.)

    ``wake_at`` is set only when requests wait and none is ripe: the anchor's
    window end, strictly after ``now``.  The constructor is the one validation
    of the four knobs; :attr:`queue` is never rebound, so drivers may alias it.
    """

    def __init__(
        self,
        max_batch_size: int,
        max_latency_ms: float,
        admission_policy: str,
        max_queue_depth: Optional[int],
    ) -> None:
        if max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be >= 1")
        if max_latency_ms < 0:
            raise ConfigurationError("max_latency_ms must be >= 0")
        if admission_policy not in ADMISSION_POLICIES:
            raise ConfigurationError(
                f"admission_policy must be one of {ADMISSION_POLICIES}, "
                f"got {admission_policy!r}"
            )
        if admission_policy != "none" and (max_queue_depth is None or max_queue_depth < 1):
            raise ConfigurationError(
                f"admission_policy={admission_policy!r} needs max_queue_depth >= 1"
            )
        self.max_batch_size = max_batch_size
        self.window_s = max_latency_ms / 1000.0
        self.admission_policy = admission_policy
        self.bound = max_queue_depth or 0
        self.counters = ServeCounters()
        self.queue: Deque[R] = deque()

    def admit(self, request: R) -> Optional[R]:
        """Admit ``request``; returns whoever was refused to make that decision.

        ``None`` — admitted, nobody dropped; ``request`` itself — rejected;
        another request — the oldest queued one, shed to make room.
        """
        shed: Optional[R] = None
        if self.admission_policy in ("reject", "shed-oldest") and len(self.queue) >= self.bound:
            if self.admission_policy == "reject":
                self.counters.rejected += 1
                return request
            shed = self.queue.popleft()
            self.counters.shed += 1
        self.queue.append(request)
        self.counters.record_admission(len(self.queue))
        return shed

    def _holds_full_batch(self) -> bool:
        # Sizes are >= 1, so the scan ends within max_batch_size entries.
        total = 0
        for request in self.queue:
            total += request.size
            if total >= self.max_batch_size:
                return True
        return False

    def next_batch(self, now: float) -> Decision[R]:
        """The batch to run at ``now``, the requests that expired, or when to look again."""
        queue, cap = self.queue, self.max_batch_size
        if not queue:
            return Decision([], [])
        degraded = self.admission_policy == "degrade" and len(queue) - 1 >= self.bound
        window_end = queue[0].enqueued_at + self.window_s
        if not (degraded or now >= window_end or self._holds_full_batch()):
            return Decision([], [], wake_at=window_end)
        batch: List[R] = []
        expired: List[R] = []
        total = 0
        while queue and total < cap:
            request = queue[0]
            if request.deadline is not None and now > request.deadline:
                self.counters.deadline_missed += 1
                expired.append(queue.popleft())
            elif batch and total + request.size > cap:
                break
            else:
                batch.append(queue.popleft())
                total += request.size
        if batch and degraded:
            self.counters.degraded_batches += 1
        return Decision(batch, expired, degraded)

    def drain(self) -> List[R]:
        """Empty the queue (shutdown); the driver fails what comes back."""
        abandoned = list(self.queue)
        self.queue.clear()
        return abandoned
