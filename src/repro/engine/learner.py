"""Learners: the entities that independently train one model replica each (§3.1).

A learner executes the numeric side of a learning task: forward and backward
propagation of one complete batch through its replica, producing a gradient.
The local update (gradient plus SMA correction) is applied by the trainer once
the synchronisation algorithm has produced the correction, matching lines 8–10
of Algorithm 1.

:class:`LearnerLanes` runs the learners of one in-process iteration at the same
time, one lane per core that BLAS leaves free — the CPU analogue of the
learners of one GPU sharing it through their own streams (§4).
"""

from __future__ import annotations

import contextlib
import os
import queue
import threading
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.batching import Batch
from repro.engine.replica import ModelReplica
from repro.nn.losses import CrossEntropyLoss
from repro.nn.metrics import accuracy
from repro.tensor.tensor import Tensor, no_grad


class Learner:
    """Trains a single model replica with a given batch size."""

    def __init__(self, learner_id: int, replica: ModelReplica) -> None:
        self.learner_id = learner_id
        self.replica = replica
        self.loss_fn = CrossEntropyLoss()
        self.batches_processed = 0
        self.last_loss: Optional[float] = None

    @property
    def gpu_id(self) -> int:
        return self.replica.gpu_id

    @property
    def stream_id(self) -> int:
        return self.replica.stream_id

    def compute_gradient(
        self, batch: Batch, out: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, float]:
        """Run forward + backward on ``batch`` and return (flat gradient, loss).

        The replica's weights are *not* modified; the caller combines the
        gradient with the SMA correction and applies both (Algorithm 1 line 10).
        ``out`` gathers the gradient into a pre-allocated row of the trainer's
        ``(k, P)`` gradient matrix instead of allocating a fresh vector.
        """
        model = self.replica.model
        model.train(True)
        model.zero_grad()
        logits = model(Tensor(batch.images))
        loss = self.loss_fn(logits, batch.labels)
        loss.backward()
        gradient = model.gradient_vector(out=out)
        self.batches_processed += 1
        self.last_loss = float(loss.data)
        return gradient, self.last_loss

    def compute_shard_gradient(self, stream, out: Optional[np.ndarray] = None) -> float:
        """Pull the next batch from a shard stream and compute its gradient.

        The multi-process executor's worker loop: ``stream`` is this learner's
        :class:`~repro.data.sharding.ShardedBatchStream`, ``out`` its row of
        the shared ``(k, P)`` update matrix.  Returns the batch loss.
        """
        batch = stream.next_batch()
        _, loss = self.compute_gradient(batch, out=out)
        return loss

    def evaluate(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy of the replica on the given evaluation data."""
        model = self.replica.model
        model.eval()
        with no_grad():
            logits = model(Tensor(images))
        model.train(True)
        return accuracy(logits, labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Learner(id={self.learner_id}, replica={self.replica.replica_id}, gpu={self.gpu_id})"


# ------------------------------------------------------------------------------ lanes
def usable_cpus() -> List[int]:
    """The CPUs this process may run on (its affinity mask), ascending."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


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
        if hasattr(os, "sched_setaffinity"):
            with contextlib.suppress(OSError):
                os.sched_setaffinity(threading.get_native_id(), {cpu})
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


class LearnerLanes:
    """Runs the learners of one in-process SMA iteration on parallel lanes.

    Lane 0 is the calling thread; lanes ``1..w-1`` are helper threads, each
    pinned to its own CPU, started when a width first needs them and stopped
    by :meth:`close`.  Learner ``j`` runs on lane ``j mod w``, where ``w`` is
    :func:`lane_width` of the learner count.  Each learner owns its model, its
    dropout stream and its row of the update matrix, so the floats do not
    depend on ``w``.  Use it as a context manager: no helper outlives the
    ``with`` block.
    """

    def __init__(self) -> None:
        self._helpers: List[_HelperLane] = []
        #: the widest iteration run so far
        self.widest = 1

    def compute_gradients(
        self, learners: Sequence[Learner], batches: Sequence[Batch], updates: np.ndarray
    ) -> np.ndarray:
        """Learner ``j``'s gradient on ``batches[j]`` into ``updates[j]``; the ``k`` losses.

        Returns once every lane has finished.  If any learner raised, the
        first lane's error (in lane order) is re-raised then.
        """
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

    def close(self) -> None:
        """Stop and join every helper thread (idempotent)."""
        helpers, self._helpers = self._helpers, []
        for helper in helpers:
            helper.stop()

    def __enter__(self) -> "LearnerLanes":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
