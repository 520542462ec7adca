"""Multi-process inference plane with telemetry-driven autoscaling.

The :class:`~repro.serve.inference.InferenceServer` of PR 5 coalesces
requests well but runs every forward pass in the parent process — one CPU
worth of serving capacity no matter how hard the front door is pressed.
This module puts a forked worker pool behind the same front-end, closing the
"millions of users" loop the ROADMAP names: admission control bounds the
front door, the pool scales the back end, and the resize protocol that
already serves the training plane serves inference too.

* :class:`InferencePool` — N forked inference workers over a request-tensor
  slot ring.  The ring *is* :class:`~repro.serve.pool.EvaluatorPool`'s: one
  :class:`~repro.serve.ring.SlotRing` protocol and one
  :class:`~repro.serve.ring.RingPool` lifecycle serve both, and this pool
  only says what a slot carries.  The parent publishes flattened request
  tensors into free slots; workers claim READY slots under the cross-process
  lock, copy them out, free the slot before the (slow) forward pass, and
  send ``(ticket, logits)`` back on the shared results queue.

* **Resize without respawn.** The pool pre-forks ``max_workers`` processes
  up front — before the serving threads exist, because forking a process
  that already runs threads is exactly the hazard the analyzer's R3 rule
  rejects — and :meth:`~repro.serve.ring.RingPool.resize` grows/shrinks the
  *active* worker count in place by parking and resuming workers on a
  semaphore.  This is the serving-plane instantiation of the PR-4
  reshard-without-respawn protocol: survivors are untouched, nothing is
  respawned, and a resize costs zero forks and zero joins.

* :class:`PooledInferenceServer` — the :class:`InferenceServer` subclass
  that routes batches through the pool.  Admission control, micro-batch
  coalescing, deadlines and :class:`~repro.serve.batching.ServeCounters`
  are all inherited unchanged; only the execution of a formed batch differs:
  the batch is published under a ticket and its futures are resolved when
  the matching response arrives.  Responses are matched to futures *by
  ticket* and a resolved ticket is dropped from the in-flight table, so
  every request resolves exactly once even when a recovery re-publishes
  work a dying worker may already have computed.  With one worker the
  arithmetic per batch is byte-for-byte the in-process server's
  (``model(Tensor(images)).data`` on an identical clone), so fixed-seed
  single-worker results are bit-identical to :class:`InferenceServer`.

* :class:`ServingAutoTuner` — Algorithm 2 pointed at the serving plane.  It
  *is* an :class:`~repro.engine.autotuner.AutoTuner` (same dead band ``τ``,
  same shrink-side ``hysteresis`` damping, same bounds/history/convergence
  machinery), but where the training tuner hill-climbs on throughput gain,
  the serving tuner runs setpoint control on a dimensionless load pressure
  built from the telemetry plane's queue-depth percentiles and
  deadline-miss rates (:func:`repro.telemetry.queries.load_signal`):
  pressure above ``1 + τ`` grows the pool, pressure below
  ``1 - (τ + hysteresis)`` shrinks it, anything inside the dead band keeps.

The signal path is deliberately indirect — server → recorder → store →
``load_signal`` query → tuner — so the scaler consumes the same queryable
history CI and the report CLI read, not ad-hoc in-process state.
"""

from __future__ import annotations

import itertools
import os
import sqlite3
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.autotuner import AutoTuner, AutoTunerDecision
from repro.engine.executor import SharedMatrix
from repro.errors import ConfigurationError, SchedulingError
from repro.nn.module import Module
from repro.serve.checkpoint import Checkpoint
from repro.serve.inference import InferenceServer, _Request, _stack
from repro.serve.ring import RingPool
from repro.telemetry.queries import load_signal
from repro.telemetry.recorder import get_recorder
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.logging import get_logger

logger = get_logger("serve.scaling")

#: one pool response: (ticket, logits, error-traceback-or-None)
PoolResult = Tuple[int, Optional[np.ndarray], Optional[str]]


def _close_fds(*fds: int) -> None:
    for fd in fds:
        os.close(fd)


class InferencePool(RingPool):
    """N forked inference workers over one shared-memory request slot ring.

    The ring protocol and the worker lifecycle — pre-forking, blocking
    publish, in-place :meth:`~repro.serve.ring.RingPool.resize`, crash-safe
    :meth:`~repro.serve.ring.RingPool.terminate` — are
    :class:`~repro.serve.ring.RingPool`'s; this class adds only the request
    payload (a flattened batch plus its sample count per slot) and its
    validation.

    Parameters
    ----------
    model_template : Module
        Same-architecture module; cloned once (in eval mode), the clone is
        inherited by every forked worker.
    sample_shape : sequence of int
        Trailing per-sample shape of every request tensor (requests are
        ``(n,) + sample_shape`` arrays).
    workers : int
        Initially *active* worker processes.
    max_workers : int, optional
        Worker processes forked up front (default: ``workers``) — the
        ceiling ``resize`` can grow the active count to, since forks only
        happen at construction (see :class:`~repro.serve.ring.RingPool`).
    num_slots : int, optional
        Shared request slots; defaults to ``max(2 * max_workers, 4)``.
        :meth:`publish` blocks (backpressure) when every slot is occupied.
    max_batch_samples : int
        Widest batch one slot can carry (the front-end's ``max_batch_size``).
    """

    role = "inference"
    publish_span = "serve.pool_publish"
    #: shorter than the evaluator pool's bound: a single inference batch is
    #: milliseconds, not a test-set pass
    result_timeout_s = 60.0

    def __init__(
        self,
        model_template: Module,
        sample_shape: Sequence[int],
        workers: int = 1,
        max_workers: Optional[int] = None,
        num_slots: Optional[int] = None,
        max_batch_samples: int = 32,
    ) -> None:
        max_workers = workers if max_workers is None else max_workers
        num_slots = self._check_sizes(workers, max_workers, num_slots)
        if max_batch_samples < 1:
            raise ConfigurationError("max_batch_samples must be >= 1")
        self.max_batch_samples = max_batch_samples
        self._sample_shape = shape = tuple(int(dim) for dim in sample_shape)
        self._sample_size = size = int(np.prod(shape, dtype=np.int64))
        if size < 1:
            raise ConfigurationError(f"degenerate sample_shape {shape}")
        model = model_template.clone()
        model.eval()
        self._requests = SharedMatrix(num_slots, max_batch_samples * size)
        self._sizes = SharedMatrix(num_slots, 1, dtype=np.int64)  # samples published per slot
        requests, sizes = self._requests.array, self._sizes.array

        def load(slot: int) -> np.ndarray:
            n = int(sizes[slot, 0])
            flat = np.array(requests[slot, : n * size], copy=True)
            return flat.reshape((n,) + shape)

        def compute(images: np.ndarray) -> np.ndarray:
            with no_grad():
                return np.asarray(model(Tensor(images)).data)

        super().__init__(
            [self._requests, self._sizes], load, compute, workers, max_workers, num_slots
        )

    # -- publish side --------------------------------------------------------------------
    def publish(self, ticket: int, images: np.ndarray) -> None:
        """Publish one request batch into a free slot (blocking when the ring is full).

        The wait for a free slot polls worker liveness, so a crashed pool
        surfaces as a :class:`~repro.errors.SchedulingError` instead of an
        indefinite block.
        """
        batch = np.ascontiguousarray(images, dtype=np.float32)
        if batch.ndim < 2 or tuple(batch.shape[1:]) != self._sample_shape:
            raise ConfigurationError(
                f"requests are (n,) + {self._sample_shape} arrays, got shape {batch.shape}"
            )
        n = int(batch.shape[0])
        if not 1 <= n <= self.max_batch_samples:
            raise ConfigurationError(
                f"batch of {n} samples does not fit a slot of {self.max_batch_samples}"
            )

        def write(slot: int) -> None:
            self._sizes.array[slot, 0] = n
            self._requests.array[slot, : n * self._sample_size] = batch.reshape(-1)

        self._publish(ticket, write)

    # -- result side ---------------------------------------------------------------------
    def collect(self, block: bool = False) -> List[PoolResult]:
        """Dequeued ``(ticket, logits, error)`` payloads; blocks for one if asked.

        Unlike the evaluator pool, a worker-side failure is *returned* (as a
        payload with a traceback string) instead of raised: the front-end
        fails that ticket's futures and keeps serving.  The blocking path
        still raises :class:`~repro.errors.SchedulingError` when a worker
        died without reporting or the wait times out.
        """
        return list(self._payloads(block))


class PooledInferenceServer(InferenceServer):
    """An :class:`InferenceServer` whose forward passes run on an :class:`InferencePool`.

    The front door is inherited unchanged — admission policies, deadlines,
    micro-batch coalescing, :class:`~repro.serve.batching.ServeCounters` —
    so every conservation identity the scenario harness asserts for the
    in-process server holds here too.  A formed batch is published to the
    pool under a fresh ticket instead of running inline.  With nothing ripe,
    the inherited loop blocks in one event wait
    (:meth:`~repro.engine.executor.ForkedWorkerPool.wait`) on the pool's
    result pipe, its workers' sentinels and a wake pipe that :meth:`submit`
    and :meth:`stop` write, with the coalescing window's end as the timeout.
    A readable result is resolved when it lands, a worker's exit starts a
    recovery at once, and a final drain runs at :meth:`stop`; each ticket's
    futures resolve exactly once.

    Parameters beyond the :class:`InferenceServer` ones
    --------------------------------------------------
    sample_shape : sequence of int
        Trailing per-sample shape of request tensors.
    workers, max_workers, num_slots :
        Forwarded to :class:`InferencePool` (``max_batch_size`` caps the
        samples per slot).  A single request larger than ``max_batch_size``
        falls back to the inherited in-process forward pass.
    max_recoveries : int
        How many times a dead pool is rebuilt (and unresolved tickets
        re-published) before in-flight futures are failed.

    Notes
    -----
    Checkpoints are applied *before* the workers fork, so the pool serves a
    fixed snapshot; there is no between-batch hot swap (pass ``checkpoint=``
    for the version to serve).  ``resize_workers`` may be called from a
    control thread while the server runs; publishing and draining stay on
    the serving thread.
    """

    def __init__(
        self,
        model_template: Module,
        sample_shape: Sequence[int],
        workers: int = 1,
        max_workers: Optional[int] = None,
        checkpoint: Optional[Checkpoint] = None,
        num_slots: Optional[int] = None,
        max_batch_size: int = 32,
        max_latency_ms: float = 2.0,
        admission_policy: str = "none",
        max_queue_depth: Optional[int] = None,
        default_deadline_ms: Optional[float] = None,
        max_recoveries: int = 4,
    ) -> None:
        super().__init__(
            model_template,
            store=None,
            checkpoint=checkpoint,
            max_batch_size=max_batch_size,
            max_latency_ms=max_latency_ms,
            admission_policy=admission_policy,
            max_queue_depth=max_queue_depth,
            default_deadline_ms=default_deadline_ms,
        )
        self.max_recoveries = max_recoveries
        self.recoveries = 0
        self._sample_shape = tuple(int(dim) for dim in sample_shape)
        self._max_workers = workers if max_workers is None else max_workers
        self._num_slots = num_slots
        self._tickets = itertools.count()
        self._inflight: Dict[int, List[_Request]] = {}
        self._target_workers = workers
        # Serialises control-thread resizes against serve-loop recoveries, so
        # a resize never lands on a pool object a recovery just replaced.
        # (A parent-side threading.Lock only; workers never see it.  No
        # threading.Thread is constructed in this module — all forks happen
        # before the serving thread starts, which is what R3 enforces.)
        self._scale_lock = threading.Lock()
        # self.model already carries the checkpoint (applied by the base
        # constructor), so the workers fork with the served snapshot.
        self._pool = self._build_pool(workers)
        # The idle wait watches this pipe beside the pool's own waitables;
        # submit() and stop() write a byte (non-blocking both ways).
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._close_wake_pipe = weakref.finalize(self, _close_fds, self._wake_r, self._wake_w)

    def _build_pool(self, active: int) -> InferencePool:
        return InferencePool(
            self.model,
            sample_shape=self._sample_shape,
            workers=active,
            max_workers=self._max_workers,
            num_slots=self._num_slots,
            max_batch_samples=self.max_batch_size,
        )

    # -- capacity ------------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Active inference workers (parked spares excluded)."""
        return self._pool.active_workers

    @property
    def max_workers(self) -> int:
        """Worker processes forked at construction (the resize ceiling)."""
        return self._pool.num_workers

    def resize_workers(self, target: int) -> int:
        """In-place grow/shrink of the active worker count; returns the new count.

        The target is remembered: a recovery racing with a control-thread
        resize rebuilds the pool at the *requested* width, not whatever width
        the dying pool happened to have when it was captured.
        """
        with self._scale_lock:
            if not 1 <= target <= self._pool.num_workers:
                raise ConfigurationError(
                    f"resize target {target} outside [1, {self._pool.num_workers}] "
                    "(max_workers is fixed at construction)"
                )
            self._target_workers = target
            if self._pool.dead_workers():
                # Never touch a dead pool's ring lock (a killed worker may
                # have died holding it): the serve loop's recovery rebuilds
                # the pool at the recorded target width.
                return target
            return self._pool.resize(target)

    # -- serving loop (overrides) ---------------------------------------------------------
    def _notify_loop(self) -> None:
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass  # the pipe is full: a wake-up is already pending

    def _wait_for_work(self, wake_at: Optional[float], now: float) -> str:
        # The wake pipe, not the condition, carries submit()'s news, so the
        # admission lock is free while the loop blocks, and resolved futures
        # run their callers' done-callbacks outside it.
        self._wakeup.release()
        try:
            return self._await_pool(None if wake_at is None else wake_at - now)
        finally:
            self._wakeup.acquire()

    def _await_pool(self, timeout: Optional[float]) -> str:
        """Wait up to ``timeout`` for the pool or the wake pipe, act on what is
        ready, and return the wake cause.

        The pool's reader and sentinels are watched only while tickets are in
        flight: with none, nothing can arrive, and a dead worker is noticed
        when the next publish puts a ticket in flight — not by spinning on its
        sentinel (as a pool left dead after ``max_recoveries`` would).
        """
        events = self._pool.wait(timeout, fds=(self._wake_r,), watch=bool(self._inflight))
        if events.result:
            self._drain()
        if events.exited:
            self._handle_pool_failure()
        # Cleared after the drain: requests that resolved futures' callbacks
        # submitted are already queued, so their bytes carry no news.
        try:
            os.read(self._wake_r, 65536)
        except BlockingIOError:
            pass
        if self._stop.is_set():
            return "stop"
        if events.exited:
            return "worker_exit"
        if events.result:
            return "result"
        return "arrival" if events.fds else "timer"

    # -- batch execution (overrides) -----------------------------------------------------
    def _run_batch(self, batch: List[_Request]) -> None:
        total = sum(request.size for request in batch)
        if total > self._pool.max_batch_samples:
            # A single request above max_batch_size: the coalescing loop only
            # ever over-fills a batch with one lone oversized request, which
            # the inherited in-process path serves exactly.
            super()._run_batch(batch)
            return
        if self._inflight:
            # Under a backlog the loop never idles; resolve responses that are
            # already readable now rather than when the queue next empties.
            self._await_pool(0.0)
        images = _stack(batch)
        ticket = next(self._tickets)
        try:
            try:
                self._pool.publish(ticket, images)
            except SchedulingError:
                self._recover()
                self._pool.publish(ticket, images)
        except Exception as exc:  # noqa: BLE001 - fail the requests, not the loop
            for request in batch:
                request.fail(exc)
            return
        self._inflight[ticket] = batch

    # -- response path -------------------------------------------------------------------
    def _drain(self, block: bool = False) -> bool:
        """Collect pool responses and resolve their futures; True if any resolved.

        A blocking drain wakes on a worker's exit as well as on a result; a
        dead pool is then recovered (True: the in-flight table changed).
        """
        try:
            payloads = self._pool.collect(block=block)
        except SchedulingError:
            self._handle_pool_failure()
            return True
        self._resolve(payloads)
        return bool(payloads)

    def _resolve(self, payloads: List[PoolResult]) -> None:
        for ticket, logits, error in payloads:
            batch = self._inflight.pop(ticket, None)
            if batch is None:
                # A recovery re-published this ticket and both copies landed:
                # the first resolution won; drop the duplicate (exactly-once).
                continue
            if error is not None or logits is None:
                exc = SchedulingError(f"inference worker failed:\n{error}")
                for request in batch:
                    request.fail(exc)
                continue
            self._deliver(batch, logits)

    def _fail_inflight(self, exc: BaseException) -> None:
        """Fail every unresolved ticket's requests and empty the in-flight table."""
        batches = list(self._inflight.values())
        self._inflight.clear()
        for batch in batches:
            for request in batch:
                request.fail(exc)

    # -- failure recovery ----------------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild a dead pool and re-publish every unresolved ticket.

        Results the old pool delivered before dying are resolved first (their
        tickets leave the in-flight table), so a re-published ticket whose
        work was actually completed resolves from whichever copy lands first
        — the ticket match keeps delivery exactly-once either way.
        """
        if self.recoveries >= self.max_recoveries:
            raise SchedulingError(
                f"inference pool died {self.recoveries + 1} times "
                f"(max_recoveries={self.max_recoveries})"
            )
        self.recoveries += 1
        with self._scale_lock:
            old = self._pool
            self._resolve(old.collect(block=False))
            self._pool = self._build_pool(self._target_workers)
            old.terminate()
        get_recorder().counter("serve.pool_recovery", 1.0, workers=self.workers)
        logger.warning(
            "inference pool recovery %d: re-publishing %d unresolved ticket(s)",
            self.recoveries,
            len(self._inflight),
        )
        for ticket, batch in list(self._inflight.items()):
            self._pool.publish(ticket, _stack(batch))

    def _handle_pool_failure(self) -> None:
        try:
            self._recover()
        except Exception as exc:  # noqa: BLE001 - surface through the futures
            self._fail_inflight(exc)

    # -- lifecycle (overrides) -----------------------------------------------------------
    def stop(self) -> None:
        """Stop the serving loop, then drain every in-flight pooled response."""
        was_running = self._thread is not None
        super().stop()
        if not was_running:
            return
        deadline = time.monotonic() + InferencePool.result_timeout_s
        while self._inflight and time.monotonic() < deadline:
            if not self._drain(block=True):
                break  # pool idle yet tickets unresolved: accounting is broken
        if self._inflight:
            self._fail_inflight(SchedulingError("inference pool lost requests at shutdown"))
        self.stats.finished_at = time.perf_counter()

    def close(self) -> None:
        """Stop serving and release the pool (terminal; ``stop`` alone can restart)."""
        self.stop()
        self._pool.close()
        self._close_wake_pipe()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclass
class ServingAutoTuner(AutoTuner):
    """Algorithm 2's observe/decide machinery running setpoint control on load.

    The training :class:`~repro.engine.autotuner.AutoTuner` hill-climbs:
    "did the last resize improve throughput?".  The serving plane needs the
    other classic controller — "is demand above or below capacity right
    now?" — but the *decision machinery* is identical and is reused
    verbatim: the dead band ``τ`` (:attr:`tolerance`), the shrink-side
    :attr:`hysteresis` damping that stops flapping around the setpoint, the
    ``[min_learners, max_learners]`` bounds, and the decision
    history/``grow_count``/``converged()`` bookkeeping.  ``learners_per_gpu``
    counts inference *workers* here (the :attr:`workers` alias reads better
    at call sites).

    The observed signal is a dimensionless **pressure**: the binding ratio
    of measured load to its target, where ``1.0`` means "at capacity".
    :meth:`observe_signal` builds it from one
    :func:`repro.telemetry.queries.load_signal` row as::

        pressure = max(queue_depth_p99 / target_queue_depth,
                       deadline_miss_rate / target_miss_rate)

    and :meth:`observe` applies the dead band: pressure above ``1 + τ``
    adds a worker, below ``1 - (τ + hysteresis)`` removes one, inside the
    band keeps — so a noisy signal near the setpoint cannot flap the pool,
    exactly as the training tuner's hysteresis damps resize flapping.
    """

    target_queue_depth: float = 4.0
    target_miss_rate: float = 0.01

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.target_queue_depth <= 0:
            raise ConfigurationError("target_queue_depth must be positive")
        if self.target_miss_rate <= 0:
            raise ConfigurationError("target_miss_rate must be positive")

    @property
    def workers(self) -> int:
        """Serving-plane alias for ``learners_per_gpu``."""
        return self.learners_per_gpu

    def pressure_from(self, signal: Mapping[str, Any]) -> float:
        """Load pressure of one ``load_signal`` row (1.0 = at the setpoint)."""
        depth = float(signal["queue_depth_p99"])
        miss_rate = float(signal["deadline_miss_rate"])
        return max(depth / self.target_queue_depth, miss_rate / self.target_miss_rate)

    def observe_signal(self, signal: Mapping[str, Any]) -> AutoTunerDecision:
        """Consume one ``load_signal`` row and decide how to adapt."""
        return self.observe(self.pressure_from(signal))

    def observe(self, throughput: float) -> AutoTunerDecision:
        """Consume one pressure observation (passed as the base class's
        ``throughput`` argument) and decide how to adapt.

        Same dead-band structure as the base ``observe`` with the gain term
        replaced by ``pressure - 1.0``; there is no first-observation special
        case because pressure is absolute, not relative to a baseline.
        """
        if not self.enabled:
            return AutoTunerDecision.KEEP
        pressure = float(throughput)
        decision = AutoTunerDecision.KEEP
        if pressure > 1.0 + self.tolerance and self.learners_per_gpu < self.max_learners:
            decision = AutoTunerDecision.ADD_LEARNER
        elif (
            pressure < 1.0 - (self.tolerance + self.hysteresis)
            and self.learners_per_gpu > self.min_learners
        ):
            decision = AutoTunerDecision.REMOVE_LEARNER
        if decision is AutoTunerDecision.ADD_LEARNER:
            self.learners_per_gpu += 1
        elif decision is AutoTunerDecision.REMOVE_LEARNER:
            self.learners_per_gpu -= 1
        self.previous_throughput = pressure
        self._last_decision = decision
        self.history.append(decision)
        return decision


def autoscale_step(
    server: PooledInferenceServer,
    tuner: ServingAutoTuner,
    conn: sqlite3.Connection,
    run_id: Optional[str] = None,
) -> AutoTunerDecision:
    """One turn of the telemetry → tuner → pool control loop.

    Reads the newest :func:`~repro.telemetry.queries.load_signal` row from
    the store (optionally pinned to ``run_id``), feeds it to the tuner, and
    applies a changed worker target to the server's pool in place.  Returns
    the decision (``KEEP`` when the store holds no signal yet).
    """
    rows = load_signal(conn)
    if run_id is not None:
        rows = [row for row in rows if row["run_id"] == run_id]
    if not rows:
        return AutoTunerDecision.KEEP
    decision = tuner.observe_signal(rows[-1])
    target = max(1, min(tuner.workers, server.max_workers))
    if target != server.workers:
        server.resize_workers(target)
    return decision
