"""Input batch pipeline: pre-processors, circular batch buffer, batch iterator.

Section 4.5 of the paper describes data pre-processors that write complete
batches into a page-aligned, page-locked circular buffer registered with the
GPUs, with double buffering between the pre-processors and the task scheduler.
We model the same structure: a :class:`CircularBatchBuffer` with a bounded
number of slots, :class:`DataPreProcessor` workers that fill slots (applying
augmentation), and a :class:`BatchPipeline` facade that the trainers iterate.
The buffer must hold at least one batch per learner, i.e. enough for a complete
SMA iteration — the pipeline enforces this invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.data.augmentation import AugmentationPipeline
from repro.data.datasets import Dataset
from repro.errors import DataError
from repro.utils.rng import RandomState


@dataclass
class Batch:
    """One training batch: images, labels and bookkeeping for the task engine."""

    images: np.ndarray
    labels: np.ndarray
    index: int
    epoch: int
    slot: Optional[int] = None

    @property
    def size(self) -> int:
        return int(self.images.shape[0])

    def nbytes(self) -> int:
        return int(self.images.nbytes + self.labels.nbytes)


class CircularBatchBuffer:
    """Bounded circular buffer of batch slots shared by pre-processors and scheduler.

    This is a sequential model of the concurrent structure in the paper: slots
    are claimed by :meth:`put` and recycled with :meth:`release` once the task
    manager has confirmed the corresponding learning task finished.
    """

    def __init__(self, num_slots: int) -> None:
        if num_slots < 1:
            raise DataError("circular buffer needs at least one slot")
        self.num_slots = num_slots
        self._slots: List[Optional[Batch]] = [None] * num_slots
        self._next = 0
        self.total_puts = 0
        self.total_releases = 0

    def occupancy(self) -> int:
        return sum(1 for slot in self._slots if slot is not None)

    def has_free_slot(self) -> bool:
        return self.occupancy() < self.num_slots

    def put(self, batch: Batch) -> int:
        """Store ``batch`` in the next free slot and return the slot index."""
        if not self.has_free_slot():
            raise DataError("circular batch buffer is full; release a slot first")
        # Scan from the cursor for the next free slot (wrap-around).
        for offset in range(self.num_slots):
            slot = (self._next + offset) % self.num_slots
            if self._slots[slot] is None:
                self._slots[slot] = batch
                batch.slot = slot
                self._next = (slot + 1) % self.num_slots
                self.total_puts += 1
                return slot
        raise DataError("circular batch buffer is full")  # pragma: no cover - guarded above

    def get(self, slot: int) -> Batch:
        batch = self._slots[slot]
        if batch is None:
            raise DataError(f"slot {slot} is empty")
        return batch

    def release(self, slot: int) -> None:
        """Free a slot so a pre-processor can refill it."""
        if self._slots[slot] is None:
            raise DataError(f"slot {slot} is already free")
        self._slots[slot] = None
        self.total_releases += 1


class DataPreProcessor:
    """Reads the dataset, applies augmentation and produces complete batches."""

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        augmentation: Optional[AugmentationPipeline] = None,
        rng: Optional[RandomState] = None,
        drop_last: bool = True,
    ) -> None:
        if batch_size < 1:
            raise DataError("batch size must be >= 1")
        if batch_size > dataset.num_train:
            raise DataError(
                f"batch size {batch_size} exceeds the number of training samples {dataset.num_train}"
            )
        self.dataset = dataset
        self.batch_size = batch_size
        self.augmentation = (
            augmentation if augmentation is not None else AugmentationPipeline.identity()
        )
        self.rng = rng if rng is not None else RandomState(0, name="preprocessor")
        self.drop_last = drop_last
        self._epoch = 0
        self._batch_index = 0

    @property
    def batches_per_epoch(self) -> int:
        if self.drop_last:
            return self.dataset.num_train // self.batch_size
        return int(np.ceil(self.dataset.num_train / self.batch_size))

    def epoch_batches(self, epoch: Optional[int] = None) -> Iterator[Batch]:
        """Yield the batches of one epoch (shuffled, augmented)."""
        epoch = epoch if epoch is not None else self._epoch
        order = self.rng.permutation(self.dataset.num_train)
        count = self.batches_per_epoch
        for index in range(count):
            # Gather one batch's rows, not the whole permuted set up front.
            rows = order[index * self.batch_size : (index + 1) * self.batch_size]
            yield Batch(
                images=self.augmentation(self.dataset.train_images[rows]),
                labels=self.dataset.train_labels[rows],
                index=self._batch_index + index,
                epoch=epoch,
            )
        self._batch_index += count
        self._epoch = epoch + 1


class BatchPipeline:
    """Facade combining pre-processors with the circular buffer.

    The one input path: a single pipeline feeds every learner, in-process or
    forked, handing batch ``i·k + j`` of each epoch to learner ``j`` (``k``
    learners, one batch each per SMA iteration).  The executors draw from it
    (:class:`~repro.engine.learner.EpochDraw`); the multi-process executor
    copies each worker's batch into that worker's row of a shared input
    matrix.

    Parameters
    ----------
    dataset : Dataset
        Training and test data.
    batch_size : int
        Per-learner batch size ``b`` (complete batches, §4.3 — never split
        across learners).
    num_learners : int
        ``k``; the circular buffer must hold at least one batch per learner
        so a full iteration can be in flight.
    augmentation : AugmentationPipeline, optional
        Applied by the pre-processors while filling slots; identity when
        omitted.
    rng : RandomState, optional
        Pipeline-level stream; pre-processor ``i`` shuffles with its
        ``preprocessor{i}`` child.
    num_preprocessors : int
        Data pre-processor workers cycled per epoch (§4.5).
    min_slots : int, optional
        Circular-buffer slots; defaults to double buffering — two full
        iterations' worth (``2 × num_learners``), matching §4.5.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        num_learners: int = 1,
        augmentation: Optional[AugmentationPipeline] = None,
        rng: Optional[RandomState] = None,
        num_preprocessors: int = 1,
        min_slots: Optional[int] = None,
    ) -> None:
        if num_learners < 1:
            raise DataError("pipeline needs at least one learner")
        self.dataset = dataset
        self.batch_size = batch_size
        self.num_learners = num_learners
        slots = min_slots if min_slots is not None else 2 * num_learners
        if slots < num_learners:
            raise DataError(
                "circular buffer must hold at least one batch per learner "
                f"({num_learners}), got {slots} slots"
            )
        self.buffer = CircularBatchBuffer(slots)
        base_rng = rng if rng is not None else RandomState(0, name="pipeline")
        self.preprocessors = [
            DataPreProcessor(
                dataset,
                batch_size,
                augmentation=augmentation,
                rng=base_rng.child(f"preprocessor{i}"),
            )
            for i in range(max(1, num_preprocessors))
        ]
        self._round_robin = 0

    @property
    def batches_per_epoch(self) -> int:
        return self.preprocessors[0].batches_per_epoch

    def epoch_batches(self, epoch: int) -> Iterator[Batch]:
        """Yield one epoch of batches, cycling through pre-processors.

        Slots are claimed and released around the yield so that the buffer's
        occupancy models the double-buffered pipeline of the paper.
        """
        source = self.preprocessors[self._round_robin % len(self.preprocessors)]
        self._round_robin += 1
        for batch in source.epoch_batches(epoch):
            slot = self.buffer.put(batch)
            try:
                yield batch
            finally:
                self.buffer.release(slot)

    def test_batches(self, batch_size: Optional[int] = None) -> Iterator[Batch]:
        """Yield the held-out test set in evaluation-sized batches."""
        batch_size = batch_size or max(self.batch_size, 64)
        images = self.dataset.test_images
        labels = self.dataset.test_labels
        for index, start in enumerate(range(0, images.shape[0], batch_size)):
            stop = min(start + batch_size, images.shape[0])
            yield Batch(
                images=images[start:stop], labels=labels[start:stop], index=index, epoch=-1
            )
