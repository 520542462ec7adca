"""Figure 10: time-to-accuracy of TensorFlow-style S-SGD vs Crossbow.

For the ResNet-32 workload, sweeps the number of GPUs and compares three
systems: the S-SGD baseline, Crossbow with one learner per GPU and Crossbow
with the best number of learners per GPU.  Expected shape (paper): Crossbow's
TTA is comparable to or better than the baseline at small GPU counts and
clearly better at 8 GPUs, with multiple learners per GPU giving the largest
reduction.
"""

from __future__ import annotations

from repro.experiments import run_fig10_time_to_accuracy


def test_fig10_time_to_accuracy_resnet32(benchmark, report):
    rows = benchmark.pedantic(
        run_fig10_time_to_accuracy,
        kwargs={
            "models": ("resnet32",),
            "gpu_counts": (1, 8),
            "best_replicas": 2,
            # S-SGD at 8 GPUs reaches the target at epoch 11; runs stop there.
            "max_epochs": 12,
        },
        rounds=1,
        iterations=1,
    )
    report("fig10_time_to_accuracy", rows)

    def tta(system, gpus):
        for row in rows:
            if row["system"] == system and row["gpus"] == gpus:
                return row["tta_seconds"]
        return None

    # Both reach the target within the budget, and Crossbow with multiple
    # learners gets there first on 8 GPUs.
    baseline = tta("tensorflow-ssgd", 8)
    crossbow = tta("crossbow-m2", 8)
    assert baseline is not None and crossbow is not None
    assert crossbow < baseline
