"""One shared-memory slot ring and the forked pool lifecycle that serves it.

Crossbow runs every learner stream through one task manager (§4.1–§4.3):
many replicas, one mechanism.  The serving plane follows suit.  Both of its
worker pools — checkpoint evaluation
(:class:`repro.serve.pool.EvaluatorPool`) and request inference
(:class:`repro.serve.scaling.InferencePool`) — are *payload adapters* over
the two classes here; they differ only in what a slot carries and what a
worker computes from it.

* :class:`SlotRing` — the worker-visible state: a ``(num_slots, 2)`` int64
  ``[state, ticket]`` matrix, the payload matrices (one row per slot), a stop
  latch, a park counter, one cross-process lock and three semaphores.  The
  parent publishes into free slots; workers *claim* READY slots through the
  per-slot state word (a claim-protocol scan under the lock), copy the slot
  out and free it immediately.  Every edge of the state machine exists exactly once,
  as a named method that asserts the edge it implements (the analyzer's R2
  rule rejects raw state-word assignments anywhere else).

* :class:`RingPool` — the :class:`~repro.engine.executor.ForkedWorkerPool`
  around one ring: pre-fork construction, blocking publish with dead-worker
  detection and rollback, the result-collect loop (its blocking wait wakes on
  a result or a worker's exit, whichever comes first), in-place resize by
  parking/resuming workers, and the cooperative and forcible shutdown paths.
  All workers run the one :func:`_ring_worker_main` loop.

Publish, claim and free therefore each happen at exactly one site, which is
where a recorded-history checker or a tracer hooks in.
"""

from __future__ import annotations

import contextlib
import queue as queue_module
import signal
import time
import traceback
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.engine.executor import ForkedWorkerPool, SharedMatrix, _ProcessHandle
from repro.engine.learner import pin_thread
from repro.errors import ConfigurationError, SchedulingError
from repro.telemetry.recorder import get_recorder
from repro.utils.logging import get_logger

logger = get_logger("serve.ring")

# Per-slot claim-protocol states, stored in column 0 of the shared
# ``(num_slots, 2)`` int64 meta matrix (column 1: ticket).  Transitions:
# EMPTY -> FILLING (parent reserves, under the lock) -> READY (parent
# published, under the lock) -> CLAIMED (one worker wins the claim scan,
# under the lock) -> EMPTY (that worker copied the slot out).  The
# ready/free semaphores count READY and EMPTY slots respectively, so neither
# side spins while waiting.
_SLOT_EMPTY = 0
_SLOT_FILLING = 1
_SLOT_READY = 2
_SLOT_CLAIMED = 3

_PoolT = TypeVar("_PoolT", bound="RingPool")


@contextlib.contextmanager
def _sigterm_held() -> Iterator[None]:
    """Hold SIGTERM off for the block; it is delivered when the block ends.

    A worker terminated inside a ``with lock:`` section would take the ring
    (or sanitizer) lock to its grave and wedge the parent and every sibling
    on their next acquire, so workers only die between such sections.
    (SIGKILL cannot be held off; :meth:`RingPool.terminate` never locks.)
    """
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


class SlotRing:
    """The shared-memory slot ring: state words, payload rows, lock, semaphores.

    Built by the parent before any fork and inherited by every worker, never
    pickled.  ``payload`` matrices have one row per slot; the ring brackets
    every access to them with sanitizer windows (``REPRO_SHM_SANITIZE=1``)
    and releases them, with its own segments, in :meth:`close`.
    """

    def __init__(self, ctx: Any, num_slots: int, payload: Sequence[SharedMatrix]) -> None:
        self.payload = tuple(payload)
        self.meta = SharedMatrix(num_slots, 2, dtype=np.int64)  # [state, ticket] per slot
        self.stop_flag = SharedMatrix(1, 1, dtype=np.int64)  # nonzero => workers exit
        self.park_pending = SharedMatrix(1, 1, dtype=np.int64)  # workers asked to deactivate
        self.lock = ctx.Lock()  # guards every meta state transition and both counters
        self.ready = ctx.Semaphore(0)  # counts READY slots (+ park/stop wakeups)
        self.free = ctx.Semaphore(num_slots)  # counts EMPTY slots
        self.resume = ctx.Semaphore(0)  # wakes parked workers

    # -- the five edges ------------------------------------------------------------------
    def _reserve_empty_slot(self) -> int:
        """EMPTY -> FILLING edge: reserve the lowest EMPTY slot (publish side)."""
        with self.lock:
            empty = np.flatnonzero(self.meta.array[:, 0] == _SLOT_EMPTY)
            assert empty.size > 0, "free semaphore acquired but no EMPTY slot"
            slot = int(empty[0])
            self.meta.array[slot, 0] = _SLOT_FILLING
            return slot

    def _publish_ready_slot(self, slot: int, ticket: int) -> None:
        """FILLING -> READY edge: stamp the ticket and publish (publish side)."""
        with self.lock:
            assert self.meta.array[slot, 0] == _SLOT_FILLING, "publishing a slot never reserved"
            self.meta.array[slot, 1] = ticket
            self.meta.array[slot, 0] = _SLOT_READY

    def _abort_filling_slot(self, slot: int) -> None:
        """FILLING -> EMPTY edge: roll back a failed publish (publish side)."""
        with self.lock:
            assert self.meta.array[slot, 0] == _SLOT_FILLING, "aborting a slot never reserved"
            self.meta.array[slot, 0] = _SLOT_EMPTY

    def _claim_ready_slot(self) -> Optional[Tuple[int, int]]:
        """READY -> CLAIMED edge: claim the READY slot with the lowest ticket.

        Runs entirely under the cross-process lock, so exactly one worker wins
        each slot even when several wake at once.  Returns ``(slot, ticket)``,
        or ``None`` when a wakeup found nothing READY (a cancelled park, or
        the stop release beating a pending publish).
        """
        with self.lock:
            ready = np.flatnonzero(self.meta.array[:, 0] == _SLOT_READY)
            if ready.size == 0:
                return None
            slot = int(ready[np.argmin(self.meta.array[ready, 1])])
            ticket = int(self.meta.array[slot, 1])
            self.meta.array[slot, 0] = _SLOT_CLAIMED
            return slot, ticket

    def _free_claimed_slot(self, slot: int) -> None:
        """CLAIMED -> EMPTY edge: release a copied-out slot (worker side)."""
        with self.lock:
            assert self.meta.array[slot, 0] == _SLOT_CLAIMED, "freeing a slot never claimed"
            self.meta.array[slot, 0] = _SLOT_EMPTY

    # -- publish side --------------------------------------------------------------------
    @contextlib.contextmanager
    def filling(self, ticket: int) -> Iterator[int]:
        """Reserve a slot for the caller to fill; publish it under ``ticket`` on exit.

        The caller must hold a ``free`` permit.  Inside the block the FILLING
        reservation makes the caller the slot's exclusive writer (a sanitized
        window).  Any exception rolls the reservation back — slot *and*
        semaphore permit — so a bad payload (e.g. a mis-shaped buffer) cannot
        shrink the ring.
        """
        slot = self._reserve_empty_slot()
        try:
            with contextlib.ExitStack() as windows:
                for matrix in self.payload:
                    windows.enter_context(matrix.sanitizer.write(slot))
                yield slot
        except BaseException:
            self._abort_filling_slot(slot)
            self.free.release()
            raise
        self._publish_ready_slot(slot, ticket)
        self.ready.release()

    # -- worker side ---------------------------------------------------------------------
    def claims(self) -> Iterator[Tuple[int, int]]:
        """Block for work and yield ``(slot, ticket)`` claims until the stop latch is up.

        A worker woken while ``park_pending`` is raised deactivates instead of
        claiming: it blocks on the ``resume`` semaphore until a grow (or stop)
        wakes it, which is how :meth:`RingPool.resize` changes capacity
        without forking or joining anything.  The stop path releases ``ready``
        once per worker after raising the latch, so a resumed worker sees it
        on its next turn.
        """
        while True:
            self.ready.acquire()
            with _sigterm_held():
                with self.lock:
                    if self.stop_flag.array[0, 0]:
                        return
                    parked = self.park_pending.array[0, 0] > 0
                    if parked:
                        self.park_pending.array[0, 0] -= 1
                claim = None if parked else self._claim_ready_slot()
            if parked:
                self.resume.acquire()
            elif claim is not None:
                yield claim

    @contextlib.contextmanager
    def reading(self, slot: int) -> Iterator[None]:
        """Copy-out window over a claimed slot; the slot is freed on exit.

        The claim made the worker the slot's only reader until it is freed;
        the parent must not be writing it (a sanitized window).  Freeing on
        exit — before the slow compute runs, and also when the copy-out
        raised — lets the ring turn over at publish speed.
        """
        with _sigterm_held():
            try:
                with contextlib.ExitStack() as windows:
                    for matrix in self.payload:
                        windows.enter_context(matrix.sanitizer.read(slot))
                    yield
            finally:
                self._free_claimed_slot(slot)
                self.free.release()

    # -- control -------------------------------------------------------------------------
    def park(self, count: int) -> None:
        """Ask ``count`` active workers to deactivate: each of the next
        ``count`` wakeups decrements ``park_pending`` and blocks on ``resume``
        instead of claiming."""
        with self.lock:
            self.park_pending.array[0, 0] += count
        for _ in range(count):
            self.ready.release()

    def unpark(self, count: int) -> None:
        """Reactivate ``count`` workers: cancel still-pending parks first
        (atomically, under the ring lock), then resume parked workers for the
        remainder."""
        with self.lock:
            pending = int(self.park_pending.array[0, 0])
            cancelled = min(count, pending)
            self.park_pending.array[0, 0] = pending - cancelled
        for _ in range(count - cancelled):
            self.resume.release()

    def request_stop(self, workers: int) -> None:
        """Raise the stop latch and wake ``workers`` workers, active or parked.

        The latch write takes the ring lock so it serialises with claim scans
        — a worker observes either the old world (and serves one last slot)
        or the stop, never a torn mix.  Workers block on the semaphores, not
        a command queue: active ones on ``ready``, parked ones on ``resume``.
        """
        with self.lock:
            self.stop_flag.array[0, 0] = 1
            self.park_pending.array[0, 0] = 0
        for _ in range(workers):
            self.ready.release()
            self.resume.release()

    def close(self) -> None:
        """Release every shared segment, payload included (idempotent)."""
        for shared in (*self.payload, self.meta, self.stop_flag, self.park_pending):
            shared.close()


#: what one ring worker needs — ``(ring, load, compute, results queue, CPUs
#: to pin itself to or None)`` — inherited via fork, never pickled
_RingWorkerState = Tuple[
    SlotRing, Callable[[int], Any], Callable[[Any], Any], Any, Optional[List[int]]
]


def _ring_worker_main(state: _RingWorkerState) -> None:
    """Worker body: claim slots, copy them out, compute, repeat until stopped.

    The slot is freed *before* the (slow) compute runs — the copy-out is the
    only time the slot is held — so the ring turns over at publish speed, not
    compute speed, and a small ring keeps ``N`` workers busy.  Failures are
    forwarded as ``(ticket, None, traceback)`` result payloads; the worker
    keeps serving subsequent slots so one bad payload doesn't idle the pool.
    """
    ring, load, compute, results, cpus = state
    if cpus is not None:
        pin_thread(cpus)
    for slot, ticket in ring.claims():
        try:
            with ring.reading(slot):
                loaded = load(slot)
            results.put((ticket, compute(loaded), None))
        except Exception:  # noqa: BLE001 - forwarded to the parent verbatim
            results.put((ticket, None, traceback.format_exc()))


class RingPool(ForkedWorkerPool):
    """Forked workers over one :class:`SlotRing`: the lifecycle both pools share.

    A concrete pool supplies its payload matrices and two closures run in the
    workers — ``load(slot)`` copies a claimed slot into worker-private memory,
    ``compute(loaded)`` produces the result value — and publishes through
    :meth:`_publish` with a ``write(slot)`` closure.

    All ``max_workers`` processes are forked at construction — before any
    serving thread exists — so resizes never fork from a threaded process
    (the R3 fork-safety hazard); :meth:`resize` moves the *active* count
    anywhere in ``[1, max_workers]`` by parking/resuming workers in place.
    :meth:`_publish` blocks (backpressure) when every slot is occupied, which
    bounds parent-side memory at ``num_slots`` payload rows.  Given
    ``worker_cpus``, every worker pins itself to those CPUs as it starts.
    """

    # Per-pool constants, set by each concrete pool as class attributes.
    #: names the worker processes and the error messages
    role: str
    #: telemetry span around reserve -> write -> publish
    publish_span: str
    #: seconds the parent waits for one result / free slot before declaring
    #: the pool dead
    result_timeout_s: float

    def __init__(
        self,
        payload: Sequence[SharedMatrix],
        load: Callable[[int], Any],
        compute: Callable[[Any], Any],
        workers: int,
        max_workers: int,
        num_slots: int,
        worker_cpus: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__()
        self.num_slots = num_slots
        self.in_flight = 0
        self._ring = SlotRing(self._ctx, num_slots, payload)
        #: the ring's ``[state, ticket]`` matrix (tests assert it drains to EMPTY)
        self._meta = self._ring.meta
        cpus = None if worker_cpus is None else list(worker_cpus)
        state: _RingWorkerState = (self._ring, load, compute, self._results, cpus)
        for worker_id in range(max_workers):
            process = self._fork(_ring_worker_main, state, name=f"{self.role}-worker-{worker_id}")
            self._handles.append(_ProcessHandle(process=process))
        self._active = max_workers
        if workers < max_workers:
            self._apply_resize(workers)

    @classmethod
    def _check_sizes(cls, workers: int, max_workers: int, num_slots: Optional[int]) -> int:
        """Validate the worker/slot counts; returns ``num_slots`` with its
        default (``max(2 * max_workers, 4)``) filled in."""
        if workers < 1:
            raise ConfigurationError(f"{cls.role} pool needs at least one active worker")
        if max_workers < workers:
            raise ConfigurationError(
                f"max_workers={max_workers} is below the initial workers={workers}"
            )
        num_slots = max(2 * max_workers, 4) if num_slots is None else num_slots
        if num_slots < 1:
            raise ConfigurationError(f"{cls.role} pool needs at least one shared slot")
        return num_slots

    # -- publish side --------------------------------------------------------------------
    def _publish(self, ticket: int, write: Callable[[int], None]) -> None:
        """Fill a free slot through ``write(slot)`` and publish it under ``ticket``.

        Blocks while the ring is full.  The wait for a free slot polls worker
        liveness, so a crashed pool surfaces as a
        :class:`~repro.errors.SchedulingError` instead of an indefinite block.
        """
        if self._stopped:
            raise ConfigurationError(f"{self.role} pool is stopped")
        deadline = time.monotonic() + self.result_timeout_s
        while not self._ring.free.acquire(timeout=1.0):
            dead = self.dead_workers()
            if dead:
                raise SchedulingError(
                    f"{self.role} worker(s) {dead} died while the slot ring was full"
                )
            if time.monotonic() > deadline:
                raise SchedulingError(f"timed out waiting for a free {self.role} slot")
        with get_recorder().span(self.publish_span):
            with self._ring.filling(ticket) as slot:
                write(slot)
        self.in_flight += 1

    # -- result side ---------------------------------------------------------------------
    def _payloads(self, block: bool) -> Iterator[Tuple[int, Any, Optional[str]]]:
        """Dequeue ``(ticket, value, error-traceback-or-None)`` worker responses
        until the queue runs dry.

        With ``block`` the first payload is waited for (raising
        :class:`~repro.errors.SchedulingError` when a worker died without
        reporting or the wait times out); the rest are whatever already
        arrived.  Each payload leaves :attr:`in_flight` before it is yielded.
        """
        while self.in_flight:
            if block:
                payload = self.wait_for_result(
                    time.monotonic() + self.result_timeout_s, what=f"an {self.role} result"
                )
                block = False
            else:
                try:
                    payload = self._results.get_nowait()
                except queue_module.Empty:
                    return
            self.in_flight -= 1
            yield payload

    # -- in-place resize -----------------------------------------------------------------
    @property
    def active_workers(self) -> int:
        """Workers currently serving (the rest are parked, not terminated)."""
        return self._active

    def resize(self, target: int) -> int:
        """Grow/shrink the active worker count in place; returns the new count.

        Shrinking parks workers (:meth:`SlotRing.park`), growing cancels
        pending parks and resumes parked ones (:meth:`SlotRing.unpark`).  No
        process is forked, stopped or joined — the serving-plane analogue of
        the training pool's reshard-without-respawn resize.
        """
        if self._stopped:
            raise ConfigurationError(f"{self.role} pool is stopped")
        if not 1 <= target <= self.num_workers:
            raise ConfigurationError(
                f"resize target {target} outside [1, {self.num_workers}] "
                "(max_workers is fixed at construction)"
            )
        if target == self._active:
            return self._active
        direction = "grow" if target > self._active else "shrink"
        self._apply_resize(target)
        get_recorder().counter("serve.pool_resize", 1.0, direction=direction, workers=target)
        logger.debug("resized %s pool to %d active workers (%s)", self.role, target, direction)
        return self._active

    def _apply_resize(self, target: int) -> None:
        delta = target - self._active
        if delta > 0:
            self._ring.unpark(delta)
        else:
            self._ring.park(-delta)
        self._active = target

    # -- lifecycle -----------------------------------------------------------------------
    def dead_workers(self) -> List[str]:
        """Names of worker processes that exited (parked workers stay alive)."""
        return [p.name for p in self._processes() if not p.is_alive()]

    def _request_stop(self) -> None:
        self._ring.request_stop(self.num_workers)

    def close(self) -> None:
        """Stop the workers and release every shared segment (idempotent)."""
        self.stop()
        self._ring.close()

    def terminate(self) -> None:
        """Forcible teardown that never touches the ring lock.

        The cooperative :meth:`close` path acquires the cross-process lock to
        raise the stop latch — which deadlocks if a worker was killed while
        holding it.  Recovery after a worker death therefore terminates the
        processes outright and releases the segments; the replacement pool
        is a fresh construction.
        """
        self._stopped = True
        for process in self._processes():
            if process.is_alive():
                process.kill()  # SIGTERM waits behind a lock section wedged on a dead holder
            process.join(timeout=5.0)
        self._results.close()
        self._ring.close()

    def __enter__(self: _PoolT) -> _PoolT:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
