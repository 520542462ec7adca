#!/usr/bin/env python
"""Quickstart: train a small model with Crossbow and compare against S-SGD.

This example exercises the whole public API in under a minute on a laptop CPU:
it builds a synthetic classification dataset, trains it with the TensorFlow-style
parallel S-SGD baseline and with Crossbow (two learners per simulated GPU), and
prints the time-to-accuracy of both systems.  Both run through the same trainer;
only the synchroniser differs.

Run with:  PYTHONPATH=src python examples/quickstart.py
"""

from __future__ import annotations

from repro.engine import CrossbowConfig, CrossbowTrainer
from repro.experiments import format_table

TARGET_ACCURACY = 0.95
DATASET = {"num_train": 512, "num_test": 256}


def train(**options):
    config = CrossbowConfig(
        model_name="mlp",
        dataset_name="blobs",
        num_gpus=2,
        batch_size=16,  # per-learner batch: small batches are the whole point
        max_epochs=8,
        target_accuracy=TARGET_ACCURACY,
        dataset_overrides=DATASET,
        seed=7,
        **options,
    )
    return CrossbowTrainer(config).train()


def main() -> None:
    print("=== Crossbow quickstart: MLP on synthetic 'blobs' data, 2 simulated GPUs ===\n")

    # S-SGD: one replica per GPU, each on 16 samples of an aggregate batch of 32.
    ssgd_result = train(synchronisation="ssgd")
    # Crossbow: two learners per GPU, kept together by SMA.
    crossbow_result = train(replicas_per_gpu=2)

    rows = [ssgd_result.summary(), crossbow_result.summary()]
    print(format_table(rows))

    ssgd_tta = ssgd_result.time_to_accuracy()
    crossbow_tta = crossbow_result.time_to_accuracy()
    if ssgd_tta and crossbow_tta:
        print(
            f"\nCrossbow reached {TARGET_ACCURACY:.0%} accuracy "
            f"{ssgd_tta / crossbow_tta:.1f}x faster (simulated time) than parallel S-SGD."
        )
    print(
        "\nTimes are simulated seconds on an 8-GPU-class server model "
        "(see repro.gpusim); accuracies come from real training of the NumPy models."
    )


if __name__ == "__main__":
    main()
