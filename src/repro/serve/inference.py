"""Micro-batching inference front-end over the checkpoint store.

Serving one request per forward pass wastes the hardware exactly the way
single-learner large-batch training wastes it in reverse: per-call framework
overhead dominates and throughput collapses.  The :class:`InferenceServer`
coalesces concurrent requests into one forward pass — the serving-side dual
of Crossbow's "many small batches, fully utilised hardware" premise:

* requests enter a queue and return a future immediately;
* a serving loop batches them under two knobs — ``max_batch_size`` (samples
  per forward pass) and ``max_latency_ms`` (how long the first request in a
  batch may wait for company);
* between batches the loop hot-swaps to the newest
  :class:`~repro.serve.checkpoint.Checkpoint` in the store, so a training run
  publishing checkpoints upgrades the served model with zero downtime.

Under overload a queue without bounds turns every request slow instead of
keeping most requests fast, so admission control guards the front door (the
exact rules — and the coalescing rules above — are
:class:`~repro.serve.batching.BatchingCore`'s; this module owns the clock, the
lock and the forward pass around it):

* ``admission_policy="reject"`` fails *new* requests once ``max_queue_depth``
  requests are waiting (callers see :class:`~repro.errors.AdmissionError` on
  their future immediately — fail fast, queue stays short);
* ``"shed-oldest"`` admits the new request but drops the *oldest* queued one
  (freshest-first under burst, bounded staleness of served requests);
* ``"degrade"`` admits everything but switches the serving loop to maximum
  throughput while the backlog exceeds the bound: no coalescing wait and no
  checkpoint hot-swap (requests may be served by a *stale* checkpoint until
  pressure subsides — degraded freshness instead of dropped requests);
* per-request deadlines (``deadline_ms``) drop requests whose latency budget
  passed before their forward pass started.

Every admission decision is counted in :class:`ServeCounters` (accepted /
rejected / shed / deadline-missed, queue-depth percentiles), the serving-side
mirror of the trainer's ``SyncCounters``.  Latency percentiles and throughput
are tracked per request and reported by :meth:`InferenceServer.stats`;
``benchmarks/bench_serving.py`` drives a load generator against the knobs.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

import numpy as np

from repro.errors import AdmissionError, ConfigurationError
from repro.nn.module import Module
from repro.serve.batching import LATENCY_WINDOW, BatchingCore, ServeCounters
from repro.serve.checkpoint import Checkpoint, CheckpointStore
from repro.telemetry.recorder import get_recorder
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.logging import get_logger

logger = get_logger("serve.inference")

#: why the serving loop's idle wait ended: a pool response became readable, a
#: request was admitted, the coalescing window (or the wait's cap) ran out, a
#: pool worker exited, or :meth:`InferenceServer.stop` was called
WAKE_CAUSES = ("result", "arrival", "timer", "worker_exit", "stop")


@dataclass
class _Request:
    images: np.ndarray
    future: Future
    enqueued_at: float
    deadline: Optional[float] = None  # perf_counter instant; None = no deadline

    @property
    def size(self) -> int:
        return int(self.images.shape[0])

    def fail(self, exc: BaseException) -> None:
        """Fail the request's future — the one way a request resolves to an error.

        The guard skips futures the caller already cancelled: setting an
        exception on those would raise ``InvalidStateError`` out of whichever
        unrelated code path happened to be failing the request.
        """
        if self.future.set_running_or_notify_cancel():
            self.future.set_exception(exc)


def _stack(batch: List[_Request]) -> np.ndarray:
    """The batch's samples as one ``(n, ...)`` array (a lone request's own array)."""
    if len(batch) == 1:
        return batch[0].images
    return np.concatenate([request.images for request in batch], axis=0)


@dataclass
class ServingStats:
    """Counters (cumulative) and latency samples (rolling window)."""

    requests: int = 0
    samples: int = 0
    batches: int = 0
    hot_swaps: int = 0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    latencies_ms: Deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )

    def summary(self) -> Dict[str, float]:
        """p50/p99 latency (over the last :data:`LATENCY_WINDOW` requests),
        throughput and batching ratios for reporting."""
        latencies = np.asarray(self.latencies_ms, dtype=np.float64)
        if self.started_at is None:
            elapsed = 0.0
        else:
            end = self.finished_at if self.finished_at is not None else time.perf_counter()
            elapsed = end - self.started_at
        return {
            "requests": self.requests,
            "samples": self.samples,
            "batches": self.batches,
            "hot_swaps": self.hot_swaps,
            "mean_batch_size": self.samples / self.batches if self.batches else 0.0,
            "p50_ms": float(np.percentile(latencies, 50)) if latencies.size else 0.0,
            "p99_ms": float(np.percentile(latencies, 99)) if latencies.size else 0.0,
            "throughput_req_s": self.requests / elapsed if elapsed > 0 else 0.0,
            "throughput_samples_s": self.samples / elapsed if elapsed > 0 else 0.0,
        }


class InferenceServer:
    """Micro-batching model server fed from a :class:`CheckpointStore`.

    Parameters
    ----------
    model_template : Module
        Same-architecture module; cloned into the private serving model.
    store : CheckpointStore, optional
        Source of checkpoints.  The newest published version is loaded at
        :meth:`start` and hot-swapped in between batches.  Omitted, the
        server serves the template's own weights (useful for benchmarks).
    checkpoint : Checkpoint, optional
        Explicit initial snapshot (takes precedence over the store's latest).
    max_batch_size : int
        Maximum samples coalesced into one forward pass; a request that would
        overflow the cap starts the next batch instead (only a single request
        that alone exceeds the cap is ever served above it).  ``1`` disables
        micro-batching (the baseline the benchmark compares against).
    max_latency_ms : float
        How long the oldest queued request may wait for co-batchable company
        before the batch is closed; bounds the latency cost of coalescing.
    admission_policy : str
        ``"none"`` (unbounded queue, the pre-admission-control behaviour),
        ``"reject"``, ``"shed-oldest"`` or ``"degrade"`` — see the module
        docstring for the semantics of each under overload.
    max_queue_depth : int, optional
        Queued-request bound the policy enforces; required (≥ 1) for every
        policy except ``"none"``.
    default_deadline_ms : float, optional
        Deadline applied to requests submitted without an explicit
        ``deadline_ms``; ``None`` means no deadline.

    Notes
    -----
    ``submit`` returns a :class:`concurrent.futures.Future` resolving to the
    logits array for that request's samples; ``predict`` is the blocking
    convenience wrapper.  Exceptions in the serving loop — and admission
    refusals — fail the affected requests' futures, never the server thread
    silently.  :attr:`wakeups` counts the loop's idle waits by what ended
    them (:data:`WAKE_CAUSES`); :meth:`stop` snapshots them, beside the
    admission counters, as ``serve.wakeups`` counters labelled ``cause``.
    """

    def __init__(
        self,
        model_template: Module,
        store: Optional[CheckpointStore] = None,
        checkpoint: Optional[Checkpoint] = None,
        max_batch_size: int = 32,
        max_latency_ms: float = 2.0,
        admission_policy: str = "none",
        max_queue_depth: Optional[int] = None,
        default_deadline_ms: Optional[float] = None,
    ) -> None:
        self._core: BatchingCore[_Request] = BatchingCore(
            max_batch_size, max_latency_ms, admission_policy, max_queue_depth
        )
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ConfigurationError("default_deadline_ms must be positive")
        self.model = model_template.clone()
        self.model.eval()
        self.store = store
        self.max_batch_size = max_batch_size
        self.max_queue_depth = max_queue_depth
        self.default_deadline_ms = default_deadline_ms
        self.served_version: Optional[int] = None
        self.stats = ServingStats()
        #: idle waits of the serving loop by what ended them (since construction)
        self.wakeups: Dict[str, int] = dict.fromkeys(WAKE_CAUSES, 0)
        # The core's own deque: everything admitted and not yet taken for a
        # forward pass.  Touched, like the core, only under ``_wakeup``.
        self._pending = self._core.queue
        self._wakeup = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        if checkpoint is not None:
            self._load(checkpoint)

    @property
    def counters(self) -> ServeCounters:
        """The core's admission counters; assign a fresh one to open a new window."""
        return self._core.counters

    @counters.setter
    def counters(self, fresh: ServeCounters) -> None:
        self._core.counters = fresh

    # -- lifecycle ---------------------------------------------------------------------
    def start(self) -> "InferenceServer":
        """Load the newest checkpoint (if any) and start the serving thread."""
        if self._thread is not None:
            raise ConfigurationError("inference server is already running")
        self._maybe_hot_swap()
        self._stop.clear()
        self.stats.started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._serve_loop, daemon=True, name="inference-server"
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Drain nothing, stop the loop, fail any still-queued requests."""
        if self._thread is None:
            return
        self._stop.set()
        with self._wakeup:
            self._notify_loop()
        self._thread.join(timeout=30.0)
        self._thread = None
        self.stats.finished_at = time.perf_counter()
        # Snapshot the admission counters for the telemetry plane: queryable
        # per-run history (queue-depth percentiles are the serving
        # auto-scaler's load signal), and why the loop woke.
        recorder = get_recorder()
        if recorder.enabled:
            for key, value in self.counters.summary().items():
                recorder.counter(f"serve.{key}", float(value))
            for cause, count in self.wakeups.items():
                recorder.counter("serve.wakeups", float(count), cause=cause)
        with self._wakeup:
            abandoned = self._core.drain()
        for request in abandoned:
            request.fail(ConfigurationError("inference server stopped"))

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- request path ------------------------------------------------------------------
    def submit(self, images: np.ndarray, deadline_ms: Optional[float] = None) -> Future:
        """Queue one request (an ``(n, ...)`` sample array); returns a future.

        ``deadline_ms`` bounds how long the request may wait before its
        forward pass starts (default: the server's ``default_deadline_ms``);
        a missed deadline fails the future with
        :class:`~repro.errors.AdmissionError`, as does a rejection or shed
        under the configured admission policy.
        """
        if self._thread is None:
            raise ConfigurationError("start() the inference server before submitting")
        images = np.asarray(images, dtype=np.float32)
        if images.ndim < 2 or images.shape[0] < 1:
            raise ConfigurationError(
                f"requests are (n, ...) sample arrays with n >= 1, got shape {images.shape}"
            )
        future: Future = Future()
        now = time.perf_counter()
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        request = _Request(
            images=images,
            future=future,
            enqueued_at=now,
            deadline=None if deadline_ms is None else now + deadline_ms / 1000.0,
        )
        with self._wakeup:
            refused = self._core.admit(request)
            if refused is not request:
                self._notify_loop()
        # Futures are failed outside the lock: a done-callback must not run
        # while the admission lock is held (it could block the serving loop).
        if refused is request:
            request.fail(
                AdmissionError(
                    f"request rejected: queue full (max_queue_depth={self.max_queue_depth})"
                )
            )
        elif refused is not None:
            refused.fail(
                AdmissionError(
                    "request shed: a newer request arrived at a full queue "
                    f"(max_queue_depth={self.max_queue_depth})"
                )
            )
        return future

    def predict(
        self,
        images: np.ndarray,
        timeout: Optional[float] = 60.0,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Blocking convenience wrapper: logits for one request."""
        return self.submit(images, deadline_ms=deadline_ms).result(timeout=timeout)

    # -- serving loop ------------------------------------------------------------------
    def _notify_loop(self) -> None:
        """Wake the serving loop's idle wait; called holding the admission lock."""
        self._wakeup.notify()

    def _wait_for_work(self, wake_at: Optional[float], now: float) -> str:
        """The loop's idle wait: block until a batch may be ripe, return why it woke.

        Called holding the admission lock when :meth:`BatchingCore.next_batch`
        found nothing ripe; ``wake_at`` is the coalescing window's end (``None``:
        nothing queued).  Returns one of :data:`WAKE_CAUSES`.  The in-process
        server waits on the condition :meth:`submit` notifies under, so a
        request admitted after ``next_batch`` looked cannot be slept through;
        the 10 ms cap bounds how long a :meth:`stop` racing the loop's flag
        check goes unseen.
        """
        pause = 0.01 if wake_at is None else wake_at - now
        notified = self._wakeup.wait(min(0.01, pause))
        if self._stop.is_set():
            return "stop"
        return "arrival" if notified else "timer"

    def _serve_loop(self) -> None:
        """Take ripe batches and run them; otherwise idle in :meth:`_wait_for_work`."""
        while not self._stop.is_set():
            with self._wakeup:
                now = time.perf_counter()
                decision = self._core.next_batch(now)
                if not decision.batch and not decision.expired:
                    self.wakeups[self._wait_for_work(decision.wake_at, now)] += 1
                    continue
            for request in decision.expired:
                request.fail(
                    AdmissionError("request deadline passed before a forward pass started")
                )
            if decision.batch:
                # A degraded batch ships on the checkpoint already loaded
                # (possibly stale): under overload the hot swap waits too.
                if not decision.degraded:
                    self._maybe_hot_swap()
                self._run_batch(decision.batch)

    def _run_batch(self, batch: List[_Request]) -> None:
        try:
            images = _stack(batch)
            with get_recorder().span(
                "serve.batch", requests=len(batch), samples=int(images.shape[0])
            ):
                with no_grad():
                    logits = self.model(Tensor(images)).data
        except Exception as exc:  # noqa: BLE001 - fail the requests, not the loop
            for request in batch:
                request.fail(exc)
            return
        self._deliver(batch, logits)

    def _deliver(self, batch: List[_Request], logits: np.ndarray) -> None:
        """Resolve each request with its rows of ``logits`` and account the batch."""
        recorder = get_recorder()
        finished = time.perf_counter()
        offset = 0
        for request in batch:
            result = logits[offset : offset + request.size]
            offset += request.size
            if request.future.set_running_or_notify_cancel():
                request.future.set_result(result)
            latency_ms = (finished - request.enqueued_at) * 1000.0
            self.stats.latencies_ms.append(latency_ms)
            if recorder.enabled:
                recorder.gauge("serve.latency_ms", latency_ms)
            self.stats.requests += 1
            self.stats.samples += request.size
        self.stats.batches += 1

    # -- hot swap ----------------------------------------------------------------------
    def _maybe_hot_swap(self) -> None:
        if self.store is None:
            return
        latest = self.store.latest()
        if latest is None or latest.version == self.served_version:
            return
        self._load(latest)
        self.stats.hot_swaps += 1
        logger.debug("hot-swapped to checkpoint version %s", self.served_version)

    def _load(self, checkpoint: Checkpoint) -> None:
        checkpoint.apply_to(self.model)
        self.model.eval()
        self.served_version = checkpoint.version
