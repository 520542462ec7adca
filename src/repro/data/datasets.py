"""Synthetic image-classification datasets standing in for the paper's datasets.

Each dataset draws one smooth random *prototype* image per class and generates
samples as ``prototype + noise`` (plus small random geometric jitter), so the
classes are separable but not trivially so: a linear model underfits while the
convolutional models from :mod:`repro.models` reach high accuracy after a few
epochs — exactly the regime the statistical-efficiency experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import DataError
from repro.utils.registry import Registry
from repro.utils.rng import RandomState

DATASET_REGISTRY = Registry("dataset")


@dataclass
class Dataset:
    """An in-memory dataset split into train and test partitions."""

    name: str
    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray
    num_classes: int
    metadata: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.train_images.shape[0] != self.train_labels.shape[0]:
            raise DataError("train images and labels have different lengths")
        if self.test_images.shape[0] != self.test_labels.shape[0]:
            raise DataError("test images and labels have different lengths")

    @property
    def sample_shape(self) -> Tuple[int, ...]:
        return tuple(self.train_images.shape[1:])

    @property
    def num_train(self) -> int:
        return int(self.train_images.shape[0])

    @property
    def num_test(self) -> int:
        return int(self.test_images.shape[0])

    def input_size_mb(self) -> float:
        """Total size of the training input in MB (the Table 1 'Input size' column)."""
        return self.train_images.nbytes / (1024.0 * 1024.0)

    def subset(self, num_train: int, num_test: Optional[int] = None) -> "Dataset":
        """Return a smaller dataset view (used by fast tests)."""
        num_test = num_test if num_test is not None else min(self.num_test, num_train)
        return Dataset(
            name=f"{self.name}-subset",
            train_images=self.train_images[:num_train],
            train_labels=self.train_labels[:num_train],
            test_images=self.test_images[:num_test],
            test_labels=self.test_labels[:num_test],
            num_classes=self.num_classes,
            metadata=dict(self.metadata),
        )


def _smooth_random_image(
    rng: RandomState, channels: int, size: int, smoothness: int = 3
) -> np.ndarray:
    """Generate a smooth random image by upsampling low-resolution noise."""
    low = max(2, size // smoothness)
    coarse = rng.normal(size=(channels, low, low))
    # Bilinear-ish upsampling via repeat + box blur keeps the dependency footprint
    # at plain NumPy.
    image = np.repeat(np.repeat(coarse, size // low + 1, axis=1), size // low + 1, axis=2)
    image = image[:, :size, :size]
    kernel = np.ones((3, 3), dtype=np.float64) / 9.0
    blurred = np.empty_like(image)
    padded = np.pad(image, ((0, 0), (1, 1), (1, 1)), mode="edge")
    for c in range(channels):
        acc = np.zeros((size, size), dtype=np.float64)
        for di in range(3):
            for dj in range(3):
                acc += kernel[di, dj] * padded[c, di : di + size, dj : dj + size]
        blurred[c] = acc
    return blurred.astype(np.float32)


class SyntheticImageDataset(Dataset):
    """Synthetic dataset generated from per-class prototypes plus noise."""

    def __init__(
        self,
        name: str,
        num_classes: int,
        channels: int,
        image_size: int,
        num_train: int,
        num_test: int,
        noise_scale: float = 0.35,
        signal_scale: float = 1.0,
        seed: int = 7,
    ) -> None:
        rng = RandomState(seed, name=f"dataset/{name}")
        prototypes = np.stack(
            [
                _smooth_random_image(rng.child(f"class{c}"), channels, image_size)
                for c in range(num_classes)
            ]
        )
        prototypes *= signal_scale

        def _generate(count: int, stream: RandomState) -> Tuple[np.ndarray, np.ndarray]:
            labels = stream.integers(0, num_classes, size=count).astype(np.int64)
            noise = stream.normal(
                scale=noise_scale, size=(count, channels, image_size, image_size)
            )
            images = prototypes[labels] + noise.astype(np.float32)
            # Per-sample brightness jitter, so samples of a class are not mere
            # translations of each other.
            jitter = stream.normal(scale=0.1, size=(count, 1, 1, 1)).astype(np.float32)
            images = images * (1.0 + jitter)
            return images.astype(np.float32), labels

        train_images, train_labels = _generate(num_train, rng.child("train"))
        test_images, test_labels = _generate(num_test, rng.child("test"))
        super().__init__(
            name=name,
            train_images=train_images,
            train_labels=train_labels,
            test_images=test_images,
            test_labels=test_labels,
            num_classes=num_classes,
            metadata={"noise_scale": noise_scale, "image_size": image_size, "channels": channels},
        )


# -- registered dataset configurations -------------------------------------------------
# Paper-shape datasets keep the sample tensor shape of the real dataset but use a
# modest number of synthetic samples; "-scaled" variants match the scaled models.


@DATASET_REGISTRY.register("mnist")
def _mnist(num_train: int = 4096, num_test: int = 1024, seed: int = 11, **kw):
    return SyntheticImageDataset("mnist", 10, 1, 28, num_train, num_test, seed=seed, **kw)


@DATASET_REGISTRY.register("cifar10")
def _cifar10(num_train: int = 4096, num_test: int = 1024, seed: int = 12, **kw):
    return SyntheticImageDataset("cifar10", 10, 3, 32, num_train, num_test, seed=seed, **kw)


@DATASET_REGISTRY.register("cifar100")
def _cifar100(num_train: int = 4096, num_test: int = 1024, seed: int = 13, **kw):
    return SyntheticImageDataset("cifar100", 100, 3, 32, num_train, num_test, seed=seed, **kw)


@DATASET_REGISTRY.register("imagenet")
def _imagenet(num_train: int = 512, num_test: int = 128, seed: int = 14, **kw):
    # ILSVRC-2012 images are 224x224x3; sample count is kept small because this
    # configuration exists for shape/cost accounting, not for convergence runs.
    return SyntheticImageDataset("imagenet", 1000, 3, 224, num_train, num_test, seed=seed, **kw)


@DATASET_REGISTRY.register("mnist-scaled")
def _mnist_scaled(num_train: int = 2048, num_test: int = 512, seed: int = 21, **kw):
    return SyntheticImageDataset("mnist-scaled", 10, 1, 12, num_train, num_test, seed=seed, **kw)


@DATASET_REGISTRY.register("cifar10-scaled")
def _cifar10_scaled(num_train: int = 2048, num_test: int = 512, seed: int = 22, **kw):
    return SyntheticImageDataset("cifar10-scaled", 10, 3, 16, num_train, num_test, seed=seed, **kw)


@DATASET_REGISTRY.register("cifar100-scaled")
def _cifar100_scaled(num_train: int = 2048, num_test: int = 512, seed: int = 23, **kw):
    return SyntheticImageDataset(
        "cifar100-scaled", 10, 3, 16, num_train, num_test, seed=seed, **kw
    )


@DATASET_REGISTRY.register("imagenet-scaled")
def _imagenet_scaled(num_train: int = 2048, num_test: int = 512, seed: int = 24, **kw):
    return SyntheticImageDataset(
        "imagenet-scaled", 10, 3, 16, num_train, num_test, seed=seed, **kw
    )


@DATASET_REGISTRY.register("blobs")
def _blobs(
    num_train: int = 512,
    num_test: int = 256,
    num_classes: int = 4,
    input_dim: int = 32,
    noise_scale: float = 0.5,
    seed: int = 31,
):
    """Separable Gaussian blobs reshaped to (C=1, H=1, W=input_dim); used by tests."""
    rng = RandomState(seed, name="dataset/blobs")
    centers = rng.normal(scale=2.0, size=(num_classes, input_dim)).astype(np.float32)

    def _make(count: int, stream: RandomState):
        labels = stream.integers(0, num_classes, size=count).astype(np.int64)
        points = centers[labels] + stream.normal(
            scale=noise_scale, size=(count, input_dim)
        ).astype(np.float32)
        return points.reshape(count, 1, 1, input_dim).astype(np.float32), labels

    train_images, train_labels = _make(num_train, rng.child("train"))
    test_images, test_labels = _make(num_test, rng.child("test"))
    return Dataset(
        name="blobs",
        train_images=train_images,
        train_labels=train_labels,
        test_images=test_images,
        test_labels=test_labels,
        num_classes=num_classes,
        metadata={"input_dim": input_dim, "noise_scale": noise_scale},
    )


def create_dataset(name: str, **overrides) -> Dataset:
    """Instantiate a registered dataset configuration by name."""
    return DATASET_REGISTRY.create(name, **overrides)
