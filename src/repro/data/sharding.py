"""Batch partitioning for the S-SGD baseline.

Parallel S-SGD partitions every batch equally across GPUs (§2.3); Crossbow
instead assigns complete batches to learners (§4.3), which the one
:class:`~repro.data.batching.BatchPipeline` does for every executor.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.data.batching import Batch
from repro.errors import DataError


# repro: waive[R6] - the S-SGD split the sharded-gradient tests check the full batch against
def partition_batch(batch: Batch, num_partitions: int) -> List[Batch]:
    """Split ``batch`` into ``num_partitions`` near-equal shards (S-SGD style).

    The first ``batch.size % num_partitions`` shards receive one extra sample,
    so no sample is dropped and shard sizes differ by at most one.
    """
    if num_partitions < 1:
        raise DataError("cannot partition a batch into fewer than 1 shard")
    if batch.size < num_partitions:
        raise DataError(
            f"batch of {batch.size} samples cannot be split across {num_partitions} partitions"
        )
    image_shards = np.array_split(batch.images, num_partitions)
    label_shards = np.array_split(batch.labels, num_partitions)
    return [
        Batch(images=images, labels=labels, index=batch.index, epoch=batch.epoch)
        for images, labels in zip(image_shards, label_shards)
    ]
