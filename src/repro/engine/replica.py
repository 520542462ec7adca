"""Model replicas, the replica bank, and the pool managed by the task manager.

Every learner owns one model replica.  Replicas are created from a shared
initial model (or, when the auto-tuner adds a learner mid-training, from the
latest central average model), live on one GPU, and cycle between the pool and
the learners as iterations are scheduled (§4.1, steps 2–4).

The :class:`ReplicaBank` keeps all replica weights in one persistent ``(k, P)``
float32 matrix (the paper stores replica weights in contiguous device memory,
§4.4).  Each replica's module parameters are *views* into its bank row, so the
synchronisation algorithms can update every replica with fused matrix
operations instead of per-replica flatten/unflatten round trips.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import SchedulingError
from repro.nn.module import Module


class ModelReplica:
    """One model replica pinned to a GPU and a learner stream."""

    def __init__(self, replica_id: int, model: Module, gpu_id: int, stream_id: int) -> None:
        self.replica_id = replica_id
        self.model = model
        self.gpu_id = gpu_id
        self.stream_id = stream_id
        self.bank: Optional["ReplicaBank"] = None
        self.bank_row: Optional[int] = None

    # -- flat views used by the synchronisation algorithms --------------------------------
    def vector(self) -> np.ndarray:
        return self.model.parameter_vector()

    def view(self) -> np.ndarray:
        """Zero-copy flat weight view when bank-backed (else a fresh vector)."""
        return self.model.parameter_vector(copy=False)

    def load_vector(self, vector: np.ndarray) -> None:
        self.model.load_parameter_vector(vector)

    def num_parameters(self) -> int:
        return self.model.num_parameters()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModelReplica(id={self.replica_id}, gpu={self.gpu_id}, stream={self.stream_id})"


class ReplicaBank:
    """A persistent ``(capacity, P)`` float32 matrix backing all replica weights.

    Active replicas always occupy the dense row prefix ``[0, len(bank))``, so
    :meth:`active_matrix` is a zero-copy contiguous ``(k, P)`` view suitable
    for the fused ``SMA.step_matrix`` / ``EASGD.step_matrix`` updates.  Rows
    are recycled on detach (swap-with-last) and the matrix grows geometrically
    when the auto-tuner exceeds the pre-allocated capacity, so a resize is
    O(k·P) once rather than per-iteration work.

    Shape conventions: ``k`` is the number of active learners/replicas, ``P``
    the flat parameter count of the model; row ``j`` of :meth:`active_matrix`
    *is* replica ``j``'s weights — every module parameter of the attached
    model is a reshaped view into that row.

    Parameters
    ----------
    num_parameters : int
        ``P``, the flat parameter count each row holds.
    capacity : int, default 1
        Number of pre-allocated rows.  The Crossbow trainer pre-allocates the
        auto-tuner's ceiling (``num_gpus × max_replicas_per_gpu``) so
        grow/shrink never reallocates mid-training.

    See Also
    --------
    repro.engine.executor.SharedReplicaBank :
        The same bank with its matrix in ``multiprocessing`` shared memory,
        used by the ``execution="process"`` worker pool.
    """

    def __init__(self, num_parameters: int, capacity: int = 1) -> None:
        if num_parameters < 0:
            raise SchedulingError("replica bank needs a non-negative parameter count")
        self.num_parameters = int(num_parameters)
        self._matrix = self._allocate(max(int(capacity), 1), self.num_parameters)
        self._owners: List[ModelReplica] = []

    # -- views ---------------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return int(self._matrix.shape[0])

    def active_matrix(self) -> np.ndarray:
        """Zero-copy ``(k, P)`` view of every active replica's weights."""
        return self._matrix[: len(self._owners)]

    @property
    def storage(self) -> np.ndarray:
        """The full ``(capacity, P)`` backing matrix (active rows are a prefix).

        The multi-process executor hands this to worker processes so a
        persistent pool can re-bind a worker to any row after a re-pack,
        including rows beyond the current active count.
        """
        return self._matrix

    def row_view(self, row: int) -> np.ndarray:
        if not 0 <= row < len(self._owners):
            raise SchedulingError(f"bank row {row} is not active")
        return self._matrix[row]

    def owners(self) -> List[ModelReplica]:
        return list(self._owners)

    # -- membership ----------------------------------------------------------------------
    def attach(self, replica: ModelReplica) -> int:
        """Move a replica's weights into the bank; its parameters become row views."""
        if replica.bank is not None:
            raise SchedulingError(f"replica {replica.replica_id} is already bank-backed")
        if replica.num_parameters() != self.num_parameters:
            raise SchedulingError(
                f"replica has {replica.num_parameters()} parameters, "
                f"bank rows hold {self.num_parameters}"
            )
        row = len(self._owners)
        if row == self.capacity:
            self._grow(max(1, 2 * self.capacity))
        self._owners.append(replica)
        self._bind(replica, row)
        return row

    def detach(self, replica: ModelReplica) -> None:
        """Evict a replica; its model gets private memory and the row is recycled."""
        row = replica.bank_row
        if replica.bank is not self or row is None or self._owners[row] is not replica:
            raise SchedulingError(f"replica {replica.replica_id} is not in this bank")
        replica.model.detach_parameter_storage()
        replica.bank = None
        replica.bank_row = None
        last = len(self._owners) - 1
        if row != last:
            # Keep the active prefix dense: move the last row into the hole.
            moved = self._owners[last]
            self._matrix[row] = self._matrix[last]
            self._owners[row] = moved
            self._bind(moved, row)
        self._owners.pop()

    def pack(self, replicas: Sequence[ModelReplica]) -> None:
        """Reorder rows so that ``replicas[i]`` occupies row ``i``.

        Called after an auto-tuner resize so the bank's row order matches the
        trainer's learner order, keeping :meth:`active_matrix` usable without
        per-iteration gather/scatter.  No-op when already in order.
        """
        if len(replicas) != len(self._owners) or set(id(r) for r in replicas) != set(
            id(r) for r in self._owners
        ):
            raise SchedulingError("pack() must receive exactly the bank's active replicas")
        if all(self._owners[i] is replica for i, replica in enumerate(replicas)):
            return
        for replica in replicas:
            replica.model.detach_parameter_storage()
            replica.bank = None
            replica.bank_row = None
        self._owners = []
        for replica in replicas:
            self._owners.append(replica)
            self._bind(replica, len(self._owners) - 1)

    # -- internals -----------------------------------------------------------------------
    def _allocate(self, rows: int, cols: int) -> np.ndarray:
        """Allocate zeroed ``(rows, cols)`` float32 backing storage.

        Subclasses override this to place the matrix elsewhere — e.g. the
        multi-process executor's :class:`~repro.engine.executor.SharedReplicaBank`
        allocates it in ``multiprocessing.shared_memory`` so worker processes
        see the same physical rows.
        """
        return np.zeros((rows, cols), dtype=np.float32)

    def _bind(self, replica: ModelReplica, row: int) -> None:
        replica.model.attach_parameter_storage(self._matrix[row])
        replica.bank = self
        replica.bank_row = row

    def _grow(self, new_capacity: int) -> None:
        old = self._matrix
        self._matrix = self._allocate(new_capacity, self.num_parameters)
        self._matrix[: len(self._owners)] = old[: len(self._owners)]
        for row, replica in enumerate(self._owners):
            self._bind(replica, row)

    def __len__(self) -> int:
        return len(self._owners)


class ReplicaPool:
    """The pool of model replicas, one per learner.

    The trainer adds a replica per learner and, when the auto-tuner resizes
    the pool at an iteration boundary (§4.4), adds or removes replicas while
    holding it locked via :meth:`locked`.  The checkout cycle
    (:meth:`acquire`/:meth:`release`) models the paper's per-task checkout,
    but nothing in the training loop checks replicas out: the loop runs
    every learner each iteration.  When constructed with a
    :class:`ReplicaBank`, every replica added to the pool is bank-backed.
    """

    def __init__(self, bank: Optional[ReplicaBank] = None) -> None:
        self._replicas: Dict[int, ModelReplica] = {}
        self._available: List[int] = []
        self._locked = False
        self._resizing = False
        self._next_id = 0
        self._bank = bank

    @property
    def bank(self) -> Optional[ReplicaBank]:
        return self._bank

    # -- pool management -----------------------------------------------------------------
    def add(self, model: Module, gpu_id: int, stream_id: int) -> ModelReplica:
        """Register a new replica (initially available)."""
        if self._locked and not self._resizing:
            raise SchedulingError("replica pool is locked for resizing")
        replica = ModelReplica(self._next_id, model, gpu_id, stream_id)
        if self._bank is not None:
            self._bank.attach(replica)
        self._replicas[replica.replica_id] = replica
        self._available.append(replica.replica_id)
        self._next_id += 1
        return replica

    def remove_last_on_gpu(self, gpu_id: int) -> Optional[ModelReplica]:
        """Remove the most recently added available replica on ``gpu_id`` (shrink)."""
        if self._locked and not self._resizing:
            raise SchedulingError("replica pool is locked for resizing")
        for replica_id in reversed(self._available):
            replica = self._replicas[replica_id]
            if replica.gpu_id == gpu_id:
                self._available.remove(replica_id)
                del self._replicas[replica_id]
                if self._bank is not None and replica.bank is self._bank:
                    self._bank.detach(replica)
                return replica
        return None

    def lock(self) -> None:
        self._locked = True

    def unlock(self) -> None:
        self._locked = False

    @contextlib.contextmanager
    def locked(self) -> Iterator["ReplicaPool"]:
        """Hold the pool locked across an auto-tuner resize.

        While held, checkouts (:meth:`acquire`) are rejected but the holder may
        add and remove replicas — the whole point of the resize.  The lock is
        released exactly once, on exit, even if the resize raises.

        This is step 2 of the resize lifecycle the trainer runs at an
        iteration boundary (Algorithm 2 decision → new learner count):

        1. ``TaskScheduler.barrier()`` — drain in-flight simulated tasks so no
           ready-time predates the resize.
        2. ``with pool.locked():`` — add replicas (grow: cloned from the
           current central average model, §4.4) or ``remove_last_on_gpu``
           (shrink), which attaches/detaches bank rows.
        3. ``TaskScheduler.deregister_replica`` + GPU stream retire for every
           removed replica, so neither scheduler ready-times nor learner
           streams leak across oscillations.
        4. ``ReplicaBank.pack()`` — re-pack rows into learner order so
           ``active_matrix()`` stays a dense ``(k, P)`` prefix.
        5. Rebuild the synchroniser for the new ``k`` (preserving the central
           model) and, under ``execution="process"``, re-point the worker
           pool's workers at their packed rows.
        """
        if self._locked:
            raise SchedulingError("replica pool is already locked")
        self._locked = True
        self._resizing = True
        try:
            yield self
        finally:
            self._resizing = False
            self._locked = False

    # -- checkout cycle --------------------------------------------------------------------
    def acquire(self, gpu_id: Optional[int] = None) -> ModelReplica:
        """Check out the first available replica (optionally restricted to a GPU)."""
        if self._locked:
            raise SchedulingError("replica pool is locked for resizing")
        for index, replica_id in enumerate(self._available):
            replica = self._replicas[replica_id]
            if gpu_id is None or replica.gpu_id == gpu_id:
                self._available.pop(index)
                return replica
        raise SchedulingError(
            f"no available replica{'' if gpu_id is None else f' on GPU {gpu_id}'}"
        )

    def release(self, replica: ModelReplica) -> None:
        """Return a replica to the pool after its tasks completed."""
        if replica.replica_id not in self._replicas:
            raise SchedulingError(f"replica {replica.replica_id} does not belong to this pool")
        if replica.replica_id in self._available:
            raise SchedulingError(f"replica {replica.replica_id} is already in the pool")
        self._available.append(replica.replica_id)

    # -- introspection ------------------------------------------------------------------------
    def all_replicas(self) -> List[ModelReplica]:
        return [self._replicas[i] for i in sorted(self._replicas)]

    def replicas_on_gpu(self, gpu_id: int) -> List[ModelReplica]:
        return [r for r in self.all_replicas() if r.gpu_id == gpu_id]

    def available_count(self) -> int:
        return len(self._available)

    def __len__(self) -> int:
        return len(self._replicas)

    def __contains__(self, replica_id: int) -> bool:
        return replica_id in self._replicas
