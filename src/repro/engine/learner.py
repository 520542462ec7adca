"""Learners: the entities that independently train one model replica each (§3.1).

A learner executes the numeric side of a learning task: forward and backward
propagation of one complete batch through its replica, producing a gradient.
The local update (gradient plus SMA correction) is applied by the trainer once
the synchronisation algorithm has produced the correction, matching lines 8–10
of Algorithm 1.

:class:`LearnerLanes` is the in-process executor: it runs the learners of one
iteration at the same time, one lane per core that BLAS leaves free — the CPU
analogue of the learners of one GPU sharing it through their own streams (§4).
It and the multi-process executor draw their batches through
:class:`EpochDraw`, from the trainer's one batch pipeline (§4.5).
"""

from __future__ import annotations

import contextlib
import os
import queue
import threading
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.batching import Batch, BatchPipeline
from repro.engine.replica import ReplicaBank
from repro.engine.scheduler import LearnerSlot
from repro.errors import SchedulingError
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.tensor.tensor import Tensor


class Learner:
    """One learner: its model replica and the slot the scheduler gave it."""

    def __init__(self, model: Module, slot: LearnerSlot) -> None:
        self.model: Module = model
        self.slot: LearnerSlot = slot
        self.loss_fn = CrossEntropyLoss()

    def compute_gradient(
        self, batch: Batch, out: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, float]:
        """Run forward + backward on ``batch`` and return (flat gradient, loss).

        The replica's weights are *not* modified; the caller combines the
        gradient with the SMA correction and applies both (Algorithm 1 line 10).
        ``out`` gathers the gradient into a pre-allocated row of the trainer's
        ``(k, P)`` gradient matrix instead of allocating a fresh vector.
        """
        model = self.model
        model.train(True)
        model.zero_grad()
        logits = model(Tensor(batch.images))
        loss = self.loss_fn(logits, batch.labels)
        loss.backward()
        return model.gradient_vector(out=out), float(loss.data)


# ------------------------------------------------------------------------------ lanes
def usable_cpus() -> List[int]:
    """The CPUs this process may run on (its affinity mask), ascending."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def pin_thread(cpus: Iterable[int]) -> None:
    """Restrict the calling thread to ``cpus``; a no-op where that cannot be set."""
    if hasattr(os, "sched_setaffinity"):
        with contextlib.suppress(OSError):
            os.sched_setaffinity(threading.get_native_id(), set(cpus))


def blas_threads(cores: int) -> int:
    """Threads NumPy's OpenBLAS starts per call, from the variables it reads at load.

    ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``; unset (or not a
    positive integer) means one per core.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return cores


def lane_width(k: int) -> int:
    """How many lanes the ``k`` learners of one serial iteration run on.

    One per core that BLAS leaves free: ``min(k, cores // blas_threads)``.  A
    multi-threaded BLAS already fills every core inside each GEMM, so it gets
    one lane, and so does a one-CPU affinity mask.
    """
    cores = len(usable_cpus())
    return max(1, min(k, cores // blas_threads(cores)))


def _capture(job: Callable[[], None]) -> Optional[BaseException]:
    """Run ``job``; return what it raised instead of raising it."""
    try:
        job()
    except BaseException as error:  # the caller re-raises it
        return error
    return None


class _HelperLane:
    """A thread pinned to one CPU that runs the jobs handed to it, one at a time."""

    def __init__(self, lane: int, cpu: int) -> None:
        self._jobs: "queue.SimpleQueue[Optional[Callable[[], None]]]" = queue.SimpleQueue()
        self._done: "queue.SimpleQueue[Optional[BaseException]]" = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._serve, args=(cpu,), name=f"learner-lane-{lane}", daemon=True
        )
        self._thread.start()

    def _serve(self, cpu: int) -> None:
        # Unpinned, the scheduler kept helper and caller on one CPU.
        pin_thread({cpu})
        while True:
            job = self._jobs.get()
            if job is None:
                return
            self._done.put(_capture(job))

    def submit(self, job: Callable[[], None]) -> None:
        self._jobs.put(job)

    def wait(self) -> Optional[BaseException]:
        """Block until the submitted job ends; what it raised, if anything."""
        return self._done.get()

    def stop(self) -> None:
        self._jobs.put(None)
        self._thread.join()


class EpochDraw:
    """The epoch's batch draw, shared by both executors.

    Every executor reads the trainer's one
    :class:`~repro.data.batching.BatchPipeline` in its order: batch
    ``i·k + j`` of an epoch goes to learner ``j``.  An executor's
    ``issue_step`` takes its ``k`` batches with :meth:`_take`.
    """

    def __init__(self, pipeline: BatchPipeline) -> None:
        self.pipeline = pipeline
        self._epoch: Optional[int] = None
        self._batches: Iterator[Batch] = iter(())
        self._remaining = 0

    def begin_epoch(self, epoch: int) -> None:
        """Start drawing epoch ``epoch``'s batches."""
        self._epoch = epoch
        self._batches = self.pipeline.epoch_batches(epoch)
        self._remaining = self.pipeline.batches_per_epoch

    def batches_remaining(self) -> int:
        """Batches left in the current epoch (issued steps count as consumed)."""
        return self._remaining

    def end_epoch(self) -> None:
        """Draw the epoch's tail (fewer than ``k`` batches).

        The tail advances the augmentation stream and finishes the pipeline's
        epoch, as a loop that ran the iterator dry would.
        """
        try:
            for _ in self._batches:
                pass
        finally:
            self._batches = iter(())
            self._remaining = 0

    def _take(self, learners: Sequence[Learner]) -> List[Batch]:
        """The next batch for each of ``learners``, in learner order."""
        if self._epoch is None:
            raise SchedulingError("issue_step() before begin_epoch()")
        if self._remaining < len(learners):
            raise SchedulingError(
                f"epoch {self._epoch} has {self._remaining} batches left "
                f"for {len(learners)} learners"
            )
        batches = [next(self._batches) for _ in learners]
        self._remaining -= len(learners)
        return batches


class LearnerLanes(EpochDraw):
    """The in-process executor: each SMA iteration's learners on parallel lanes.

    It has :class:`~repro.engine.executor.ProcessExecutor`'s trainer-facing
    surface, so one training loop drives both.  :meth:`issue_step` takes the
    iteration's batches (:class:`EpochDraw`) and :meth:`collect_step` runs
    the passes.

    Lane 0 is the calling thread; lanes ``1..w-1`` are helper threads, each
    pinned to its own CPU, started when a width first needs them and joined
    by :meth:`end_epoch` (or :meth:`close`), so none outlives its epoch.
    Learner ``j`` runs on lane ``j mod w``, where ``w`` is :func:`lane_width`
    of the learner count.  Each learner owns its model, its dropout stream
    and its row of the update matrix, so the floats do not depend on ``w``.
    """

    def __init__(self, pipeline: BatchPipeline) -> None:
        super().__init__(pipeline)
        self._helpers: List[_HelperLane] = []
        self._update_matrices: List[np.ndarray] = []
        self._step: Optional[Tuple[List[Learner], List[Batch], np.ndarray]] = None
        #: the widest iteration run so far
        self.widest = 1

    def bind_buffers(
        self,
        bank: ReplicaBank,
        extra_weight_matrices: Sequence[np.ndarray] = (),
        update_matrices: Sequence[np.ndarray] = (),
    ) -> None:
        """Register the gradient buffers steps write (learners read their own bank rows)."""
        self._update_matrices = list(update_matrices)

    def end_epoch(self) -> None:
        """Draw the epoch's tail, then join the helpers."""
        try:
            super().end_epoch()
        finally:
            self.close()

    # -- iteration protocol --------------------------------------------------------------
    def issue_step(
        self, learners: Sequence[Learner], weights_index: int = 0, updates_index: int = 0
    ) -> None:
        """Take the next batch for each learner; :meth:`collect_step` runs the passes.

        Learner ``j``'s gradient lands in row ``j`` of update buffer
        ``updates_index``.  In-process learners read their own rows of the
        bank, so ``weights_index`` is only ever 0 (depth 1 needs processes).
        """
        if self._step is not None:
            raise SchedulingError("a step is already in flight")
        batches = self._take(learners)
        self._step = (list(learners), batches, self._update_matrices[updates_index])

    def collect_step(self) -> np.ndarray:
        """Run the issued step on every lane; returns the ``(k,)`` losses.

        Returns once every lane has finished.  If any learner raised, the
        first lane's error (in lane order) is re-raised then.
        """
        if self._step is None:
            raise SchedulingError("no step in flight to collect")
        learners, batches, updates = self._step
        self._step = None
        k = len(learners)
        width = lane_width(k)
        self.widest = max(self.widest, width)
        if len(self._helpers) < width - 1:
            cpus = usable_cpus()
            for lane in range(len(self._helpers) + 1, width):
                self._helpers.append(_HelperLane(lane, cpus[lane % len(cpus)]))
        losses = np.empty(k, dtype=np.float64)

        def share(lane: int) -> None:
            for j in range(lane, k, width):
                _, losses[j] = learners[j].compute_gradient(batches[j], out=updates[j])

        helpers = self._helpers[: width - 1]
        for lane, helper in enumerate(helpers, start=1):
            helper.submit(lambda lane=lane: share(lane))
        errors = [_capture(lambda: share(0))] + [helper.wait() for helper in helpers]
        for error in errors:
            if error is not None:
                raise error
        return losses

    # -- what the trainer also calls on a ProcessExecutor --------------------------------
    def resize(self, learners: Sequence[Learner]) -> None:
        """Nothing to re-shard: every step hands over the learners it runs."""

    def sync_buffers(self) -> None:
        """Nothing to copy back: the learners' BatchNorm buffers are the parent's."""

    def close(self) -> None:
        """Stop and join every helper thread (idempotent)."""
        helpers, self._helpers = self._helpers, []
        for helper in helpers:
            helper.stop()
