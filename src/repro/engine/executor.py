"""Multi-process learner executor over the shared-memory replica bank.

The serial trainer runs every learner's forward/backward pass in one Python
process, so only the fused ``(k, P)`` synchronisation step is parallel (BLAS).
This module moves the *numeric learning tasks* themselves onto worker
processes, the reproduction's analogue of the paper's task manager dispatching
learning tasks to GPU streams (§4.1–§4.3):

* :class:`SharedMatrix` — a ``(rows, cols)`` float32 matrix allocated in
  ``multiprocessing.shared_memory`` so parent and workers address the same
  physical memory.
* :class:`SharedReplicaBank` — the :class:`~repro.engine.replica.ReplicaBank`
  with its backing matrix in shared memory: each worker's module parameters
  are zero-copy views into its bank row in *both* address spaces.
* :class:`WorkerPool` — one forked process per learner, each reading its
  batch from its row of two shared input matrices (images and labels) and
  writing gradients straight into a shared ``(k, P)`` update matrix.  The
  pool is persistent: auto-tuner resizes re-point it in place instead of
  respawning every fork.
* :class:`ProcessExecutor` — the trainer-facing facade: the epoch draw from
  the trainer's one :class:`~repro.data.batching.BatchPipeline` (shared with
  the in-process lanes), split issue/collect steps for pipelined
  synchronisation, buffer round-trips for evaluation, and the
  in-place-resize/respawn decision.

Execution model per iteration (``pipeline_depth=0``): the parent takes the
next ``k`` batches from the pipeline, copies batch ``j`` into row ``j`` of
the input matrices and broadcasts one ``step`` command; every worker runs
forward/backward on zero-copy views of its rows with its bank-row-backed
replica and scatters the gradient into its update row; the parent then
applies the fused ``SMA.step_matrix`` to the shared weights.  Only losses
travel back over a pipe.  Workers block between commands, so the schedule
is synchronous and bit-identical to ``execution="serial"``, with or
without augmentation.

With ``pipeline_depth=1`` the trainer instead issues iteration ``t+1``
*before* applying iteration ``t``'s fused update: workers read a published
front weight buffer while the parent writes the back buffer, and gradients
alternate between two update matrices, so the serial synchronisation section
overlaps the next gradient computation (see
:meth:`repro.engine.crossbow.CrossbowTrainer` and ``docs/architecture.md``
for the publish/flip protocol and the depth ≤ 1 staleness bound).

Only the ``fork`` start method is supported: workers inherit the already
mapped shared segments and the model object graph without any pickling of
weights.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import queue as queue_module
import select
import time
import traceback
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.sanitizer import create_sanitizer, guard_for, register_guard
from repro.data.batching import Batch, BatchPipeline
from repro.engine.learner import EpochDraw, Learner
from repro.engine.replica import ReplicaBank
from repro.errors import ConfigurationError, SchedulingError
from repro.utils.logging import get_logger

logger = get_logger("engine.executor")

#: seconds the parent waits for one worker result before declaring it dead
_RESULT_TIMEOUT_S = 120.0


def process_execution_supported() -> bool:
    """Whether this platform can run the multi-process executor (needs fork)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _fork_context() -> Any:
    if not process_execution_supported():  # pragma: no cover - non-POSIX only
        raise ConfigurationError(
            "execution='process' requires the 'fork' multiprocessing start method "
            "(POSIX only); use execution='serial' on this platform"
        )
    return multiprocessing.get_context("fork")


def _release_segment(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink a shared segment, tolerating double release."""
    try:
        segment.close()
        segment.unlink()
    except (FileNotFoundError, BufferError):  # pragma: no cover - cleanup race
        pass


class SharedMatrix:
    """A ``(rows, cols)`` matrix in ``multiprocessing`` shared memory.

    The creating (parent) process owns the segment: forked workers inherit
    the mapping and see every write immediately, in both directions.  The
    segment is unlinked when :meth:`close` is called or the object is garbage
    collected, whichever comes first.

    Parameters
    ----------
    rows, cols : int
        Matrix shape.  A zero-sized matrix still allocates a 1-byte segment
        (POSIX shared memory cannot be empty).
    dtype : numpy dtype, default float32
        Element type.  Weight/gradient matrices use the default; the serving
        plane's evaluator slot ring keeps its claim-protocol state in an
        ``int64`` matrix.
    """

    def __init__(self, rows: int, cols: int, dtype: Any = np.float32) -> None:
        if rows < 0 or cols < 0:
            raise SchedulingError("shared matrix needs non-negative dimensions")
        dtype = np.dtype(dtype)
        nbytes = max(1, rows * cols * dtype.itemsize)
        self._segment = shared_memory.SharedMemory(create=True, size=nbytes)
        self._array: Optional[np.ndarray] = np.ndarray(
            (rows, cols), dtype=dtype, buffer=self._segment.buf
        )
        self._array[...] = 0
        self._finalizer = weakref.finalize(self, _release_segment, self._segment)
        # Under REPRO_SHM_SANITIZE=1 every row becomes a sanitized region;
        # guard_for() resolves views of this matrix back to the sanitizer.
        self.sanitizer = create_sanitizer(rows, label=f"SharedMatrix:{self._segment.name}")
        if self.sanitizer.enabled:
            register_guard(self._array, self.sanitizer)

    @property
    def array(self) -> np.ndarray:
        """The live ndarray view; raises after :meth:`close`."""
        if self._array is None:
            raise SchedulingError(f"shared matrix {self.name!r} used after close()")
        return self._array

    @property
    def closed(self) -> bool:
        """Whether the backing segment has been released."""
        return self._array is None

    @property
    def name(self) -> str:
        """The segment's name in the OS shared-memory namespace."""
        return self._segment.name

    def close(self) -> None:
        """Release the backing segment (idempotent; the array becomes invalid)."""
        # Drop the exported buffer view first or SharedMemory.close() raises.
        self._array = None
        self.sanitizer.close()
        self._finalizer()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = None if self._array is None else self._array.shape
        return f"SharedMatrix(name={self.name!r}, shape={shape})"


class SharedReplicaBank(ReplicaBank):
    """A :class:`ReplicaBank` whose ``(capacity, P)`` matrix lives in shared memory.

    Drop-in replacement for the in-process bank: same dense-prefix row
    discipline, same ``attach``/``detach``/``pack`` lifecycle.  Because
    forked workers inherit the mapping, the fused ``step_matrix`` update the
    parent applies to :meth:`active_matrix` is immediately visible to every
    worker's forward pass — zero-copy in both directions.

    Growing past the pre-allocated capacity allocates a *new* segment and
    bumps :attr:`generation`; a :class:`ProcessExecutor` uses that to detect
    that running workers still map the old segment and must be respawned.
    Old segments are kept alive until :meth:`close` so stale workers never
    touch unmapped memory mid-shutdown.
    """

    def __init__(self, num_parameters: int, capacity: int = 1) -> None:
        self._segments: List[SharedMatrix] = []
        self.generation = 0
        super().__init__(num_parameters, capacity)

    def _allocate(self, rows: int, cols: int) -> np.ndarray:
        segment = SharedMatrix(rows, cols)
        self._segments.append(segment)
        self.generation += 1
        return segment.array

    def close(self) -> None:
        """Unlink every shared segment this bank ever allocated."""
        for model in list(self._owners):
            self.detach(model)
        self._matrix = np.zeros((0, self.num_parameters), dtype=np.float32)
        for segment in self._segments:
            segment.close()
        self._segments.clear()


@dataclass
class _WorkerState:
    """Everything one worker process needs; inherited via fork, never pickled."""

    index: int  # learner index == bank/update/input row
    learner: Learner
    # Full (capacity, P) matrices, all in shared memory.  weight_matrices[0]
    # is the replica bank itself; [1] (when present) is the pipelined back
    # buffer.  Step commands address rows by (matrix index, state.index).
    weight_matrices: List[np.ndarray]
    update_matrices: List[np.ndarray]
    # (images, labels): row j holds learner j's batch, written by the parent
    # before every step, so batches never travel over a pipe.
    inputs: Tuple[np.ndarray, np.ndarray]
    commands: Any  # multiprocessing.SimpleQueue
    results: Any  # multiprocessing.Queue (shared across workers)


def _worker_main(state: _WorkerState) -> None:
    """Worker process body: serve gradient / buffer commands until stop.

    Command protocol (parent → worker, per-worker FIFO queue):

    * ``("step", w, u)`` — compute the gradient of the batch in row ``index``
      of the input matrices with the replica weights read from
      ``weight_matrices[w]``, scattered into row ``index`` of
      ``update_matrices[u]``.  The pipelined executor alternates ``w``
      between the published front buffer and the back buffer the parent is
      writing; the worker re-binds its module parameters (a zero-copy view
      adoption, ``copy=False``) whenever ``w`` changes.
    * ``("reshard", index)`` — persistent pool resize: adopt a new learner
      index (bank, update and input row in one) and re-bind the model to bank
      row ``index`` (the parent has just re-packed the bank, so the bank —
      matrix 0 — is canonical).
    * ``("buffers",)`` — ship the model's non-trainable buffers back.
    * ``("stop",)`` — exit.

    Any exception is forwarded to the parent as an error tuple before the
    worker exits, so the parent's timeout/liveness logic in
    ``WorkerPool._collect`` fails fast with a traceback instead of waiting on
    a silently dead process.
    """
    learner = state.learner
    images, labels = state.inputs
    bound = 0  # weight matrix the model's parameters currently view
    try:
        while True:
            command = state.commands.get()
            op = command[0]
            if op == "stop":
                return
            if op == "step":
                _, weights_index, updates_index = command
                row = state.index
                if weights_index != bound:
                    # Adopt the addressed buffer's values; never write to it.
                    learner.model.attach_parameter_storage(
                        state.weight_matrices[weights_index][row], copy=False
                    )
                    bound = weights_index
                out = state.update_matrices[updates_index][row]
                # Sanitized window: this step reads the addressed weight row
                # and its input rows, and exclusively writes its update row.
                weights_guard = guard_for(state.weight_matrices[weights_index])
                with weights_guard.read(row), guard_for(out).write(row):
                    with guard_for(images).read(row), guard_for(labels).read(row):
                        # The parent keeps the batch's index and epoch; the
                        # gradient needs only the samples.
                        batch = Batch(images[row], labels[row], index=-1, epoch=-1)
                        _, loss = learner.compute_gradient(batch, out=out)
                state.results.put((row, loss, None))
                continue
            if op == "buffers":
                buffers = {
                    name: np.array(value, copy=True)
                    for name, value in learner.model.named_buffers()
                }
                state.results.put((state.index, buffers, None))
                continue
            if op == "reshard":
                _, state.index = command
                # The parent flushed any pipelined back buffer and re-packed
                # the bank before re-sharding, so the bank row is the truth.
                learner.model.attach_parameter_storage(
                    state.weight_matrices[0][state.index], copy=False
                )
                bound = 0
                continue
            raise SchedulingError(f"unknown worker command {op!r}")
    except Exception:  # noqa: BLE001 - forwarded to the parent verbatim
        state.results.put((state.index, None, traceback.format_exc()))


@dataclass
class _ProcessHandle:
    """Parent-side bookkeeping for one live worker process."""

    process: Any
    commands: Any = None  # per-worker command queue (None: the pool wakes workers another way)


class PoolEvents(NamedTuple):
    """What one :meth:`ForkedWorkerPool.wait` found ready (all false: it timed out)."""

    result: bool  # the results queue holds a payload
    exited: bool  # a worker process has exited
    fds: List[Any]  # the caller's extra waitables that are readable


class ForkedWorkerPool:
    """Fork/result/stop machinery shared by persistent worker pools.

    Concrete pools differ in how work reaches the workers — the learner
    :class:`WorkerPool` broadcasts commands over per-worker queues, while the
    serving plane's :class:`repro.serve.pool.EvaluatorPool` publishes
    checkpoints into a shared-memory slot ring its workers claim — but they
    share everything else: one ``fork`` start context, one common results
    queue, one event wait over that queue and the workers' lives
    (:meth:`wait`, and :meth:`wait_for_result` built on it), and the
    stop/join/terminate shutdown protocol.  Subclasses append
    :class:`_ProcessHandle` (or a subclass of it) entries to ``_handles`` for
    every worker they :meth:`_fork`.
    """

    def __init__(self) -> None:
        self._ctx = _fork_context()
        # A full Queue (not SimpleQueue): its reader end is a waitable
        # connection, so result waits can also watch the worker sentinels.
        self._results = self._ctx.Queue()
        self._handles: List[Any] = []
        self._stopped = False

    @property
    def num_workers(self) -> int:
        return len(self._handles)

    def _processes(self) -> List[Any]:
        return [handle.process for handle in self._handles]

    def _fork(self, target: Any, state: Any, name: str) -> Any:
        """Start one daemonised worker process running ``target(state)``."""
        process = self._ctx.Process(target=target, args=(state,), daemon=True, name=name)
        process.start()
        return process

    def wait(
        self, timeout: Optional[float], fds: Sequence[Any] = (), watch: bool = True
    ) -> PoolEvents:
        """Block until a result is readable, a worker exits, one of ``fds`` is
        readable, or ``timeout`` seconds pass (``None``: no limit).

        One ``select`` over the results queue's reader, every worker's
        process sentinel (readable once the process has exited) and ``fds``.
        This is the only code that touches the queue's reader.
        ``watch=False`` waits on ``fds`` alone: a caller with no result
        outstanding must not spin on an exited worker.

        ``select`` rather than ``multiprocessing.connection.wait`` for its
        microsecond timeout: the latter polls, and ``poll`` rounds the
        timeout up to whole milliseconds, which stretches a serving loop's
        2 ms coalescing window by up to half.  A descriptor past
        ``FD_SETSIZE`` (a process with over 1 024 open files) falls back to
        the millisecond wait.
        """
        reader = self._results._reader
        sentinels = [handle.process.sentinel for handle in self._handles] if watch else []
        waitables = [reader, *sentinels, *fds] if watch else list(fds)
        timeout = None if timeout is None else max(0.0, timeout)
        try:
            ready = select.select(waitables, [], [], timeout)[0]
        except ValueError:  # a descriptor select() cannot hold
            ready = multiprocessing.connection.wait(waitables, timeout)
        return PoolEvents(
            result=reader in ready,
            exited=any(sentinel in ready for sentinel in sentinels),
            fds=[fd for fd in fds if fd in ready],
        )

    def wait_for_result(self, deadline: float, what: str = "worker results") -> Any:
        """One payload from the results queue, failing as soon as a worker dies.

        Waits (:meth:`wait`) until ``deadline``, a ``time.monotonic``
        instant.  A worker's exit wakes the wait at once, so a crash surfaces
        as a :class:`~repro.errors.SchedulingError` when it happens instead of
        an indefinite block.  A readable result is returned even when a
        worker has exited too: it may be that worker's last word (an error
        traceback).
        """
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise SchedulingError(f"timed out waiting for {what}")
            events = self.wait(remaining)
            if events.result:
                try:
                    return self._results.get_nowait()
                except queue_module.Empty:  # pragma: no cover - readable pipe, no message
                    continue
            if events.exited:
                dead = [p.name for p in self._processes() if not p.is_alive()]
                raise SchedulingError(
                    f"worker process(es) {dead} died without reporting a result "
                    "(see the worker's stderr for the original error)"
                )

    def _request_stop(self) -> None:
        """Hook: wake workers that do not block on a per-worker command queue."""

    def _stop_worker(self, handle: _ProcessHandle) -> None:
        if handle.commands is not None:
            try:
                handle.commands.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover - queue already gone
                pass
        handle.process.join(timeout=10.0)
        if handle.process.is_alive():  # pragma: no cover - stuck worker
            handle.process.terminate()
            handle.process.join(timeout=5.0)
        if handle.commands is not None:
            handle.commands.close()

    # -- lifecycle -----------------------------------------------------------------------
    def stop(self) -> None:
        """Terminate all workers (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        self._request_stop()
        for handle in self._handles:
            self._stop_worker(handle)
        self._results.close()

    def is_alive(self) -> bool:
        return not self._stopped and all(h.process.is_alive() for h in self._handles)

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            self.stop()
        except Exception:
            pass


@dataclass
class _WorkerHandle(_ProcessHandle):
    """A :class:`_ProcessHandle` plus the learner the worker computes for."""

    learner: Optional[Learner] = None


class WorkerPool(ForkedWorkerPool):
    """One forked worker process per learner, fed through shared input rows.

    The pool is *persistent*: an auto-tuner resize calls :meth:`resize`, which
    re-points the surviving workers in place (a ``reshard`` command moves
    their bank, update and input row), stops workers whose learner was
    removed, and forks workers only for newly added learners — so the
    dominant cost of the old stop-everything-and-respawn protocol (k forks,
    k joins and a full buffer round-trip per resize) is replaced by at most
    one fork per added learner.  Respawning from scratch remains available
    (and is what :class:`ProcessExecutor` falls back to when the shared
    matrices themselves were reallocated).

    Parameters
    ----------
    learners : sequence of Learner
        The trainer's learners, in bank-row order; worker ``j`` computes
        gradients for ``learners[j]``.
    weight_matrices : sequence of numpy.ndarray
        Full ``(capacity, P)`` shared weight buffers; ``[0]`` is the replica
        bank, ``[1]`` (optional) the pipelined back buffer.
    update_matrices : sequence of numpy.ndarray
        Full ``(capacity, P)`` shared gradient buffers; the pipelined executor
        alternates between two so iteration ``t+1``'s gradients never race
        iteration ``t``'s fused update.
    inputs : (numpy.ndarray, numpy.ndarray)
        Shared ``(capacity, b, ...)`` images and ``(capacity, b)`` labels;
        row ``j`` holds the batch worker ``j`` computes on at the next step.
    """

    def __init__(
        self,
        learners: Sequence[Learner],
        weight_matrices: Sequence[np.ndarray],
        update_matrices: Sequence[np.ndarray],
        inputs: Tuple[np.ndarray, np.ndarray],
    ) -> None:
        if not weight_matrices or not update_matrices:
            raise SchedulingError("worker pool needs weight and update matrices")
        self._weight_matrices = list(weight_matrices)
        self._update_matrices = list(update_matrices)
        self._inputs = inputs
        self._check_rows(len(learners))
        super().__init__()
        self._inflight = False
        for index, learner in enumerate(learners):
            self._handles.append(self._spawn(index, learner))

    @property
    def learners(self) -> List[Learner]:
        """The pool's learners in worker-index order."""
        return [handle.learner for handle in self._handles]

    def _check_rows(self, num_learners: int) -> None:
        for matrix in [*self._weight_matrices, *self._update_matrices, *self._inputs]:
            if matrix.shape[0] < num_learners:
                raise SchedulingError(
                    f"shared matrix has {matrix.shape[0]} rows for {num_learners} learners"
                )

    # -- spawning ------------------------------------------------------------------------
    def _spawn(self, index: int, learner: Learner) -> _WorkerHandle:
        commands = self._ctx.SimpleQueue()
        state = _WorkerState(
            index=index,
            learner=learner,
            weight_matrices=self._weight_matrices,
            update_matrices=self._update_matrices,
            inputs=self._inputs,
            commands=commands,
            results=self._results,
        )
        process = self._fork(
            _worker_main, state, name=f"learner-worker-{learner.slot.learner_id}"
        )
        return _WorkerHandle(process=process, commands=commands, learner=learner)

    # -- command protocol ----------------------------------------------------------------
    def _broadcast(self, command: Tuple) -> None:
        for handle in self._handles:
            handle.commands.put(command)

    def _collect(self) -> List[Any]:
        payloads: List[Any] = [None] * self.num_workers
        received = 0
        deadline = time.monotonic() + _RESULT_TIMEOUT_S
        while received < self.num_workers:
            index, payload, error = self.wait_for_result(
                deadline,
                what=f"{self.num_workers - received} of {self.num_workers} worker results",
            )
            if error is not None:
                raise SchedulingError(f"learner worker {index} failed:\n{error}")
            payloads[index] = payload
            received += 1
        return payloads

    def issue_step(self, weights_index: int = 0, updates_index: int = 0) -> None:
        """Dispatch one learning task per worker without waiting for results.

        ``weights_index`` selects the weight buffer the workers read (the
        published front buffer), ``updates_index`` the gradient buffer they
        write; each worker computes on its current input row.  At most one
        step may be in flight — the pool enforces the pipeline's depth ≤ 1
        staleness bound structurally.
        """
        if self._inflight:
            raise SchedulingError(
                "a step is already in flight (pipeline depth is bounded at 1)"
            )
        self._broadcast(("step", weights_index, updates_index))
        self._inflight = True

    def collect_step(self) -> np.ndarray:
        """Wait for the in-flight step; returns the ``(k,)`` loss vector.

        On return, each worker's row of the addressed update matrix holds its
        raw gradient for the batch in its input row.
        """
        if not self._inflight:
            raise SchedulingError("no step in flight to collect")
        try:
            losses = self._collect()
        finally:
            # A failed collect (dead worker) still clears the flag so the
            # caller can tear the pool down without tripping the guard.
            self._inflight = False
        return np.array(losses, dtype=np.float64)

    @property
    def step_in_flight(self) -> bool:
        return self._inflight

    def gather_buffers(self) -> List[Dict[str, np.ndarray]]:
        """Fetch every worker's non-trainable buffers (batch-norm statistics)."""
        if self._inflight:
            raise SchedulingError("cannot gather buffers while a step is in flight")
        self._broadcast(("buffers",))
        return self._collect()

    # -- persistent resize ---------------------------------------------------------------
    def resize(self, learners: Sequence[Learner]) -> None:
        """Re-point the live pool at a new learner list without a respawn.

        The caller must have quiesced the pipeline (no step in flight), synced
        nothing — worker-private batch-norm state survives untouched — and
        already re-packed the bank so that ``learners[i]`` owns bank row
        ``i``.  Workers whose learner survives receive a ``reshard`` command
        (their new row); workers whose learner was removed are stopped; new
        learners get freshly forked workers that inherit the parent's current
        object graph.
        """
        if self._stopped:
            raise SchedulingError("cannot resize a stopped pool")
        if self._inflight:
            raise SchedulingError("cannot resize while a step is in flight")
        self._check_rows(len(learners))
        survivors = {id(handle.learner): handle for handle in self._handles}
        new_handles: List[Optional[_WorkerHandle]] = []
        for index, learner in enumerate(learners):
            handle = survivors.pop(id(learner), None)
            if handle is not None:
                handle.commands.put(("reshard", index))
            new_handles.append(handle)
        for handle in survivors.values():
            self._stop_worker(handle)
        self._handles = [
            handle if handle is not None else self._spawn(index, learners[index])
            for index, handle in enumerate(new_handles)
        ]


class ProcessExecutor(EpochDraw):
    """Trainer-facing facade over the worker pool.

    Batches come from the trainer's :class:`~repro.data.batching.BatchPipeline`
    through the epoch draw both executors share
    (:class:`~repro.engine.learner.EpochDraw`).  :meth:`issue_step` copies
    learner ``j``'s batch into row ``j`` of two shared input matrices (images
    and labels) that the executor owns, then broadcasts the step.  The pool
    is spawned lazily — on the first iteration, and again whenever
    :meth:`invalidate` marks the current one stale (shared-matrix
    reallocation) — so forks always inherit the trainer's *current* learner
    and bank state.

    :class:`~repro.engine.learner.LearnerLanes` has the same trainer-facing
    surface in-process, so one training loop drives both.  Beyond it:

    * **Split step protocol** — :meth:`issue_step` / :meth:`collect_step`
      address the published weight buffer and the gradient buffer per step,
      so at ``pipeline_depth=1`` the trainer overlaps the fused
      synchronisation of iteration ``t`` with the workers' gradient
      computation of iteration ``t+1``.
    * **Persistent resize** — :meth:`resize` re-points the live pool in place
      (see :meth:`WorkerPool.resize`) instead of stopping and respawning
      every fork, unless the shared buffers themselves were reallocated.
    """

    def __init__(self, pipeline: BatchPipeline) -> None:
        super().__init__(pipeline)
        self._pool: Optional[WorkerPool] = None
        self._spawned_for: Optional[Tuple] = None
        self._bank: Optional[ReplicaBank] = None
        self._extra_weight_matrices: List[np.ndarray] = []
        self._update_matrices: List[np.ndarray] = []
        # Learner j's batch goes to row j of (images, labels) before each step.
        self._input_segments: List[SharedMatrix] = []
        self._inputs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.respawns = 0
        self.resizes_in_place = 0

    # -- buffer registration -------------------------------------------------------------
    def bind_buffers(
        self,
        bank: ReplicaBank,
        extra_weight_matrices: Sequence[np.ndarray] = (),
        update_matrices: Sequence[np.ndarray] = (),
    ) -> None:
        """Register the shared buffers worker steps address.

        ``bank`` is weight buffer 0 (its full ``storage`` matrix);
        ``extra_weight_matrices`` follow (the pipelined back buffer);
        ``update_matrices`` are the gradient buffers.  Re-binding with
        different objects invalidates the running pool, because live workers
        only map the segments that existed when they were forked, and
        reallocates the input matrices with as many rows as the update
        matrices.
        """
        if not update_matrices:
            raise SchedulingError("executor needs at least one update matrix")
        signature = (
            id(bank),
            tuple(id(m) for m in extra_weight_matrices),
            tuple(id(m) for m in update_matrices),
        )
        current = (
            id(self._bank) if self._bank is not None else None,
            tuple(id(m) for m in self._extra_weight_matrices),
            tuple(id(m) for m in self._update_matrices),
        )
        if signature == current:
            return
        self._bank = bank
        self._extra_weight_matrices = list(extra_weight_matrices)
        self._update_matrices = list(update_matrices)
        if self._pool is not None:
            self.invalidate()
        self._release_inputs()
        rows = update_matrices[0].shape[0]
        images, labels = self.pipeline.dataset.train_images, self.pipeline.dataset.train_labels
        batch_shape = (self.pipeline.batch_size, *images.shape[1:])
        self._input_segments = [
            SharedMatrix(rows, int(np.prod(batch_shape)), dtype=images.dtype),
            SharedMatrix(rows, batch_shape[0], dtype=labels.dtype),
        ]
        self._inputs = (
            self._input_segments[0].array.reshape(rows, *batch_shape),
            self._input_segments[1].array,
        )

    def _release_inputs(self) -> None:
        # Drop the views first: a segment with live views cannot be unlinked.
        self._inputs = None
        for segment in self._input_segments:
            segment.close()
        self._input_segments = []

    def _weight_matrices(self) -> List[np.ndarray]:
        assert self._bank is not None
        return [self._bank.storage, *self._extra_weight_matrices]

    def _signature(self, num_learners: int) -> Tuple:
        return (
            num_learners,
            getattr(self._bank, "generation", 0),
            tuple(id(m) for m in self._extra_weight_matrices),
            tuple(id(m) for m in self._update_matrices),
        )

    # -- iteration protocol --------------------------------------------------------------
    def issue_step(
        self,
        learners: Sequence[Learner],
        weights_index: int = 0,
        updates_index: int = 0,
    ) -> None:
        """Copy the next batch for each learner into its input row and dispatch the step.

        ``weights_index`` addresses the weight buffer workers read (0 = the
        bank, 1 = the pipelined back buffer), ``updates_index`` the gradient
        buffer they write.  At most one step may be in flight, so no worker
        reads an input row while it is written.
        """
        if self.step_in_flight:
            raise SchedulingError(
                "a step is already in flight (pipeline depth is bounded at 1)"
            )
        if self._inputs is None:
            raise SchedulingError("issue_step() before bind_buffers() or after close()")
        batches = self._take(learners)
        self._ensure_pool(learners)
        assert self._pool is not None
        images, labels = self._inputs
        for row, batch in enumerate(batches):
            with guard_for(images).write(row), guard_for(labels).write(row):
                images[row] = batch.images
                labels[row] = batch.labels
        self._pool.issue_step(weights_index, updates_index)

    def collect_step(self) -> np.ndarray:
        """Wait for the in-flight step's losses (``(k,)`` float64)."""
        if self._pool is None:
            raise SchedulingError("no worker pool is running")
        return self._pool.collect_step()

    @property
    def step_in_flight(self) -> bool:
        return self._pool is not None and self._pool.step_in_flight

    def _ensure_pool(self, learners: Sequence[Learner]) -> None:
        signature = self._signature(len(learners))
        if self._pool is not None and self._pool.is_alive() and signature == self._spawned_for:
            return
        self._stop_pool(sync_buffers=True)
        assert self._inputs is not None
        self._pool = WorkerPool(
            learners, self._weight_matrices(), self._update_matrices, self._inputs
        )
        self._spawned_for = signature
        self.respawns += 1

    # -- resize --------------------------------------------------------------------------
    def resize(self, learners: Sequence[Learner]) -> str:
        """Adapt the executor to a new learner list after an auto-tuner resize.

        Returns ``"in-place"`` when the live pool was re-pointed without a
        respawn, else ``"respawn"`` (the pool was invalidated and the next
        iteration re-forks it).  The caller must have re-packed the bank so
        ``learners[i]`` owns row ``i`` and quiesced any pipelined step before
        calling.

        The in-place path is taken whenever the pool is alive and the shared
        buffers are unchanged (same bank generation, same matrices): the
        workers hold no input state of their own, so re-pointing them is
        exactly equivalent to a respawn.
        """
        if self._pool is None or not self._pool.is_alive():
            self._stop_pool(sync_buffers=False)
            return "respawn"
        signature = self._signature(len(learners))
        if self._spawned_for is None or signature[1:] != self._spawned_for[1:]:
            self.invalidate()
            return "respawn"
        self._pool.resize(learners)
        self._spawned_for = signature
        self.resizes_in_place += 1
        return "in-place"

    # -- buffer round trip ----------------------------------------------------------------
    def sync_buffers(self) -> None:
        """Copy each worker's non-trainable buffers back into the parent's models.

        Trainable weights need no such round trip (they live in the shared
        bank), but batch-norm running statistics are updated by the forward
        pass in worker-private memory.  Called before evaluation and before a
        pool respawn, so the parent — the fork source — always holds the
        latest statistics.
        """
        if self._pool is None or not self._pool.is_alive():
            return
        gathered = self._pool.gather_buffers()
        for learner, buffers in zip(self._pool.learners, gathered):
            if not buffers:
                continue
            for name, value in learner.model.named_buffers():
                value[...] = buffers[name]

    # -- lifecycle -------------------------------------------------------------------------
    def invalidate(self) -> None:
        """Stop the pool so the next iteration respawns it.

        Worker buffers are synced back first, so the respawned workers fork
        from up-to-date models.
        """
        self._stop_pool(sync_buffers=True)

    def _stop_pool(self, sync_buffers: bool) -> None:
        if self._pool is None:
            return
        if sync_buffers:
            self.sync_buffers()
        self._pool.stop()
        self._pool = None
        self._spawned_for = None

    def close(self) -> None:
        """Terminate the worker pool and release the input matrices (idempotent).

        Worker buffers are synced back first so evaluation after close still
        sees the latest batch-norm statistics.
        """
        self._stop_pool(sync_buffers=True)
        self._release_inputs()
