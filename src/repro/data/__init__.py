"""Data substrate: synthetic datasets, augmentation and the input batch pipeline.

The paper trains on MNIST, CIFAR-10, CIFAR-100 and ILSVRC-2012.  Those datasets
are not available offline, so this package generates *synthetic* classification
datasets with the same tensor shapes and label structure (see DESIGN.md §2 for
why this preserves the behaviour the experiments measure).  The batch pipeline
mirrors Crossbow's data pre-processors: a circular buffer of batch slots filled
by pre-processor workers and drained by the task scheduler.
"""

from repro.data.datasets import (
    DATASET_REGISTRY,
    Dataset,
    SyntheticImageDataset,
    create_dataset,
)
from repro.data.augmentation import (
    AugmentationPipeline,
    random_crop,
    random_horizontal_flip,
)
from repro.data.batching import Batch, BatchPipeline, CircularBatchBuffer, DataPreProcessor
from repro.data.sharding import partition_batch

__all__ = [
    "DATASET_REGISTRY",
    "Dataset",
    "SyntheticImageDataset",
    "create_dataset",
    "AugmentationPipeline",
    "random_crop",
    "random_horizontal_flip",
    "Batch",
    "BatchPipeline",
    "CircularBatchBuffer",
    "DataPreProcessor",
    "partition_batch",
]
