"""Learners: the entities that independently train one model replica each (§3.1).

A learner executes the numeric side of a learning task: forward and backward
propagation of one complete batch through its replica, producing a gradient.
The local update (gradient plus SMA correction) is applied by the trainer once
the synchronisation algorithm has produced the correction, matching lines 8–10
of Algorithm 1.
"""

from __future__ import annotations

from typing import Optional, Tuple

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
