"""The replica bank: every learner's weights in one ``(k, P)`` matrix.

Every learner trains its own model replica (§3.1).  The paper stores replica
weights in contiguous device memory (§4.4); here the :class:`ReplicaBank`
keeps them in one persistent ``(k, P)`` float32 matrix.  Each model's
parameters are *views* into its bank row, so the synchronisation algorithms
update every replica with fused matrix operations instead of per-replica
flatten/unflatten round trips.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import SchedulingError
from repro.nn.module import Module


class ReplicaBank:
    """A persistent ``(capacity, P)`` float32 matrix backing all replica weights.

    Active replicas always occupy the dense row prefix ``[0, len(bank))``, so
    :meth:`active_matrix` is a zero-copy contiguous ``(k, P)`` view suitable
    for the fused ``SMA.step_matrix`` / ``EASGD.step_matrix`` updates.  Rows
    are recycled on detach (swap-with-last) and the matrix grows geometrically
    when the auto-tuner exceeds the pre-allocated capacity, so a resize is
    O(k·P) once rather than per-iteration work.

    Shape conventions: ``k`` is the number of active learners, ``P`` the flat
    parameter count of the model; row ``j`` of :meth:`active_matrix` *is* the
    weights of the ``j``-th attached model — every one of its parameters is a
    reshaped view into that row.  The bank finds a model's row by identity in
    its owner list; nothing is stored on the model.

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
        so that forked learners under ``execution="process"`` step on their
        rows in place.
    """

    def __init__(self, num_parameters: int, capacity: int = 1) -> None:
        if num_parameters < 0:
            raise SchedulingError("replica bank needs a non-negative parameter count")
        self.num_parameters = int(num_parameters)
        self._matrix = self._allocate(max(int(capacity), 1), self.num_parameters)
        self._owners: List[Module] = []

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

    # -- membership ----------------------------------------------------------------------
    def attach(self, model: Module) -> int:
        """Move a model's weights into the bank; its parameters become row views."""
        if model.has_attached_storage():
            raise SchedulingError("model is already bank-backed")
        if model.num_parameters() != self.num_parameters:
            raise SchedulingError(
                f"model has {model.num_parameters()} parameters, "
                f"bank rows hold {self.num_parameters}"
            )
        row = len(self._owners)
        if row == self.capacity:
            self._grow(max(1, 2 * self.capacity))
        self._owners.append(model)
        model.attach_parameter_storage(self._matrix[row])
        return row

    def detach(self, model: Module) -> None:
        """Evict a model; it gets private memory and its row is recycled."""
        row = next((row for row, owner in enumerate(self._owners) if owner is model), None)
        if row is None:
            raise SchedulingError("model is not in this bank")
        model.detach_parameter_storage()
        last = self._owners.pop()
        if row != len(self._owners):
            # Keep the active prefix dense: move the last row into the hole.
            self._matrix[row] = self._matrix[len(self._owners)]
            self._owners[row] = last
            last.attach_parameter_storage(self._matrix[row])

    def pack(self, models: Sequence[Module]) -> None:
        """Reorder rows so that ``models[i]`` occupies row ``i``.

        Called after an auto-tuner resize so the bank's row order matches the
        trainer's learner order, keeping :meth:`active_matrix` usable without
        per-iteration gather/scatter.  No-op when already in order.
        """
        if sorted(map(id, models)) != sorted(map(id, self._owners)):
            raise SchedulingError("pack() must receive exactly the bank's active models")
        if all(owner is model for owner, model in zip(self._owners, models)):
            return
        # Every model takes a private copy first, so no row is overwritten
        # while another model still views it.
        for model in models:
            model.detach_parameter_storage()
        self._owners = list(models)
        for row, model in enumerate(models):
            model.attach_parameter_storage(self._matrix[row])

    # -- internals -----------------------------------------------------------------------
    def _allocate(self, rows: int, cols: int) -> np.ndarray:
        """Allocate zeroed ``(rows, cols)`` float32 backing storage.

        Subclasses override this to place the matrix elsewhere — e.g. the
        multi-process executor's :class:`~repro.engine.executor.SharedReplicaBank`
        allocates it in ``multiprocessing.shared_memory`` so worker processes
        see the same physical rows.
        """
        return np.zeros((rows, cols), dtype=np.float32)

    def _grow(self, new_capacity: int) -> None:
        old = self._matrix
        self._matrix = self._allocate(new_capacity, self.num_parameters)
        self._matrix[: len(self._owners)] = old[: len(self._owners)]
        for row, model in enumerate(self._owners):
            model.attach_parameter_storage(self._matrix[row])

    def __len__(self) -> int:
        return len(self._owners)
