"""Data augmentation applied by the pre-processors before batches reach a GPU.

The paper configures Crossbow and TensorFlow with the same data augmentation;
this module provides the standard CIFAR-style transforms (pad-and-crop,
horizontal flip, per-channel normalisation) operating on NCHW NumPy batches.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.utils.rng import RandomState


def random_horizontal_flip(
    images: np.ndarray, rng: RandomState, probability: float = 0.5
) -> np.ndarray:
    """Flip each image left-right with the given probability."""
    flips = rng.uniform(size=images.shape[0]) < probability
    out = images.copy()
    out[flips] = out[flips, :, :, ::-1]
    return out


def random_crop(images: np.ndarray, rng: RandomState, padding: int = 2) -> np.ndarray:
    """Pad each image by ``padding`` pixels and crop back to the original size."""
    batch, channels, height, width = images.shape
    padded = np.pad(
        images, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
    )
    out = np.empty_like(images)
    offsets_h = rng.integers(0, 2 * padding + 1, size=batch)
    offsets_w = rng.integers(0, 2 * padding + 1, size=batch)
    for index in range(batch):
        oh, ow = int(offsets_h[index]), int(offsets_w[index])
        out[index] = padded[index, :, oh : oh + height, ow : ow + width]
    return out


class AugmentationPipeline:
    """Composable list of augmentation transforms applied to a training batch.

    Each transform is a callable ``(images, rng) -> images``.  The pipeline is
    deterministic given the :class:`RandomState` it was constructed with.
    """

    def __init__(
        self,
        transforms: Optional[List[Callable[[np.ndarray, RandomState], np.ndarray]]] = None,
        rng: Optional[RandomState] = None,
    ) -> None:
        self.transforms = list(transforms) if transforms else []
        self.rng = rng if rng is not None else RandomState(0, name="augmentation")

    @classmethod
    def cifar_default(cls, rng: Optional[RandomState] = None) -> "AugmentationPipeline":
        """Pad-and-crop + horizontal flip, the standard CIFAR recipe."""
        return cls(
            transforms=[
                lambda images, stream: random_crop(images, stream, padding=2),
                lambda images, stream: random_horizontal_flip(images, stream),
            ],
            rng=rng,
        )

    @classmethod
    def identity(cls) -> "AugmentationPipeline":
        return cls(transforms=[])

    def __call__(self, images: np.ndarray) -> np.ndarray:
        for transform in self.transforms:
            images = transform(images, self.rng)
        return images

    def __len__(self) -> int:
        return len(self.transforms)
