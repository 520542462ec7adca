"""Runners for every table and figure in the paper's evaluation (§5).

Each ``run_*`` function sweeps the parameters of one experiment and returns a
list of row dictionaries shaped like the corresponding figure's series.  The
benchmark modules under ``benchmarks/`` call these runners with small budgets
("quick" scale profile); ``EXPERIMENTS.md`` records how the measured shapes
compare against the paper.

The experiments fall into three groups:

* **pure hardware-efficiency** experiments (Figures 2, 17, parts of 12–14) only
  need the simulated server, so they sweep the scheduler directly without
  numeric training — they are exact and fast;
* **pure statistical-efficiency** experiments (Figures 3, 9, parts of 12–13)
  train the scaled models for real and count epochs to an accuracy target;
* **time-to-accuracy** experiments (Figures 10, 11, 15, 16) combine both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


from repro.data import create_dataset
from repro.engine import (
    CrossbowConfig,
    CrossbowTrainer,
    SchedulingPolicy,
    TaskScheduler,
    naive_memory_plan,
    offline_memory_plan,
    online_shared_plan,
    operator_specs_from_forward,
)
from repro.engine.metrics import TrainingResult
from repro.experiments.workloads import Workload, workload_for_model
from repro.gpusim import cost_profile_for_model, titan_x_server
from repro.models import create_model, summarize_model
from repro.utils.logging import get_logger

logger = get_logger("experiments.figures")

# Models and datasets of Table 1, with the dataset each model trains on.
TABLE1_MODELS = [
    ("lenet", "mnist"),
    ("resnet32", "cifar10"),
    ("vgg16", "cifar100"),
    ("resnet50", "imagenet"),
]


# --------------------------------------------------------------------------------------
# Table 1 — model/dataset inventory
# --------------------------------------------------------------------------------------
def run_table1_model_inventory(include_input_size: bool = False) -> List[Dict[str, object]]:
    """Reproduce Table 1: per-model operator count and model size.

    ``include_input_size`` also instantiates the (synthetic) dataset to report
    the input-size column; it is off by default because the ImageNet-shaped
    dataset is large to materialise.
    """
    rows: List[Dict[str, object]] = []
    for model_name, dataset_name in TABLE1_MODELS:
        model = create_model(model_name)
        summary = summarize_model(model, name=model_name)
        row: Dict[str, object] = {
            "model": model_name,
            "dataset": dataset_name,
            "num_operators": summary.num_operators,
            "model_size_mb": round(summary.model_size_mb, 2),
            "num_parameters": summary.num_parameters,
        }
        if include_input_size:
            dataset = create_dataset(dataset_name)
            row["input_size_mb"] = round(dataset.input_size_mb(), 2)
        rows.append(row)
    return rows


# --------------------------------------------------------------------------------------
# Figure 2 — hardware efficiency of S-SGD vs. number of GPUs and batch size
# --------------------------------------------------------------------------------------
def run_fig2_hardware_efficiency(
    model: str = "resnet32",
    gpu_counts: Sequence[int] = (1, 2, 4, 8),
    aggregate_batch_sizes: Sequence[int] = (64, 128, 256, 512, 1024),
    iterations: int = 50,
) -> List[Dict[str, object]]:
    """Throughput speed-up of S-SGD as GPUs scale, for several aggregate batch sizes.

    Only the simulated server is involved: the speed-up is the ratio of
    iteration throughput at ``g`` GPUs to the throughput at 1 GPU for the same
    aggregate batch size.
    """
    profile = cost_profile_for_model(model)
    rows: List[Dict[str, object]] = []
    throughput: Dict[tuple, float] = {}
    for aggregate in aggregate_batch_sizes:
        for gpus in gpu_counts:
            if aggregate < gpus:
                continue
            server = titan_x_server(gpus)
            for gpu in server.gpus:
                gpu.add_learner_stream()
            scheduler = TaskScheduler(
                server=server, profile=profile, policy=SchedulingPolicy.LOCKSTEP
            )
            batch_per_gpu = max(1, aggregate // gpus)
            for iteration in range(iterations):
                scheduler.schedule_ssgd_iteration(iteration, batch_per_gpu)
            elapsed = server.now()
            images_per_second = iterations * batch_per_gpu * gpus / elapsed if elapsed > 0 else 0.0
            throughput[(aggregate, gpus)] = images_per_second
    for (aggregate, gpus), images_per_second in sorted(throughput.items()):
        base = throughput.get((aggregate, 1), images_per_second)
        rows.append(
            {
                "model": model,
                "aggregate_batch": aggregate,
                "gpus": gpus,
                "throughput_img_s": round(images_per_second, 1),
                "speedup_vs_1gpu": round(images_per_second / base, 2) if base > 0 else None,
            }
        )
    return rows


# --------------------------------------------------------------------------------------
# Figure 3 — statistical efficiency of S-SGD vs. batch size
# --------------------------------------------------------------------------------------
def run_fig3_statistical_efficiency(
    batch_sizes: Sequence[int] = (16, 32, 64, 128, 256),
    target_accuracy: float = 0.80,
    workload: Optional[Workload] = None,
    max_epochs: Optional[int] = None,
    seed: int = 5,
) -> List[Dict[str, object]]:
    """Epochs needed by S-SGD to reach a target accuracy as the batch size grows."""
    workload = workload if workload is not None else workload_for_model("resnet32")
    rows: List[Dict[str, object]] = []
    for batch_size in batch_sizes:
        config = CrossbowConfig(
            model_name=workload.model_name,
            dataset_name=workload.dataset_name,
            num_gpus=1,
            batch_size=batch_size,
            max_epochs=max_epochs if max_epochs is not None else workload.max_epochs,
            target_accuracy=target_accuracy,
            dataset_overrides=workload.dataset_overrides,
            model_overrides=workload.model_overrides,
            synchronisation="ssgd",
            seed=seed,
        )
        result = CrossbowTrainer(config).train()
        epochs = result.epochs_to_accuracy(target_accuracy)
        rows.append(
            {
                "system": "tensorflow-ssgd",
                "batch_size": batch_size,
                "epochs_to_target": epochs,
                "target_accuracy": target_accuracy,
                "best_accuracy": round(result.metrics.best_accuracy(), 4),
                "reached": epochs is not None,
            }
        )
    return rows


# --------------------------------------------------------------------------------------
# Figure 9 — baseline convergence over epochs for the four models
# --------------------------------------------------------------------------------------
def run_fig9_baseline_convergence(
    models: Sequence[str] = ("lenet", "resnet32", "vgg16", "resnet50"),
    max_epochs: Optional[int] = None,
    seed: int = 5,
) -> List[Dict[str, object]]:
    """Accuracy-over-epoch curves of the S-SGD baseline, which set the TTA targets."""
    rows: List[Dict[str, object]] = []
    for model in models:
        workload = workload_for_model(model)
        config = CrossbowConfig(
            model_name=workload.model_name,
            dataset_name=workload.dataset_name,
            num_gpus=1,
            batch_size=workload.batch_size,
            max_epochs=max_epochs if max_epochs is not None else workload.max_epochs,
            dataset_overrides=workload.dataset_overrides,
            model_overrides=workload.model_overrides,
            synchronisation="ssgd",
            seed=seed,
        )
        result = CrossbowTrainer(config).train()
        for point in result.metrics.accuracy_curve():
            rows.append(
                {
                    "model": model,
                    "epoch": point["epoch"],
                    "test_accuracy": round(point["accuracy"], 4),
                    "target_accuracy": workload.target_accuracy,
                }
            )
    return rows


# --------------------------------------------------------------------------------------
# Figure 10 — time-to-accuracy for the four models across GPU counts
# --------------------------------------------------------------------------------------
def _run_crossbow(
    workload: Workload,
    num_gpus: int,
    replicas_per_gpu: int,
    seed: int,
    max_epochs: Optional[int] = None,
    synchronisation: str = "sma",
    synchronisation_period: int = 1,
    batch_size: Optional[int] = None,
) -> TrainingResult:
    config = CrossbowConfig(
        model_name=workload.model_name,
        dataset_name=workload.dataset_name,
        num_gpus=num_gpus,
        batch_size=batch_size if batch_size is not None else workload.batch_size,
        replicas_per_gpu=replicas_per_gpu,
        max_epochs=max_epochs if max_epochs is not None else workload.max_epochs,
        target_accuracy=workload.target_accuracy,
        dataset_overrides=workload.dataset_overrides,
        model_overrides=workload.model_overrides,
        synchronisation=synchronisation,
        synchronisation_period=synchronisation_period,
        seed=seed,
    )
    return CrossbowTrainer(config).train()


def _run_ssgd(
    workload: Workload,
    num_gpus: int,
    seed: int,
    max_epochs: Optional[int] = None,
    use_baseline_batch: bool = False,
) -> TrainingResult:
    """Run the S-SGD baseline, one replica per GPU.

    ``use_baseline_batch`` selects the per-GPU batch the paper's baseline would
    use (large, to keep the GPUs busy — Figures 10/11); otherwise the baseline
    gets the same per-GPU batch as Crossbow's learners (Figures 12/13).
    """
    per_gpu = workload.batch_size
    if use_baseline_batch and workload.baseline_batch_per_gpu is not None:
        per_gpu = workload.baseline_batch_per_gpu
    # Never ask for an aggregate batch larger than the training set.
    num_train = workload.dataset_overrides.get("num_train", per_gpu * num_gpus)
    per_gpu = min(per_gpu, num_train // num_gpus)
    return _run_crossbow(
        workload, num_gpus, 1, seed, max_epochs, synchronisation="ssgd", batch_size=per_gpu
    )


def run_fig10_time_to_accuracy(
    models: Sequence[str] = ("resnet32",),
    gpu_counts: Sequence[int] = (1, 2, 4, 8),
    best_replicas: int = 2,
    max_epochs: Optional[int] = None,
    seed: int = 5,
) -> List[Dict[str, object]]:
    """TTA of S-SGD vs Crossbow (m=1) vs Crossbow (best m) across GPU counts."""
    rows: List[Dict[str, object]] = []
    for model in models:
        workload = workload_for_model(model)
        for gpus in gpu_counts:
            runs = {
                "tensorflow-ssgd": _run_ssgd(
                    workload, gpus, seed, max_epochs=max_epochs, use_baseline_batch=True
                ),
                "crossbow-m1": _run_crossbow(workload, gpus, 1, seed, max_epochs=max_epochs),
                f"crossbow-m{best_replicas}": _run_crossbow(
                    workload, gpus, best_replicas, seed, max_epochs=max_epochs
                ),
            }
            for system, result in runs.items():
                # S-SGD's batch is the aggregate its GPUs share (Figure 1).
                shared_by = gpus if system == "tensorflow-ssgd" else 1
                rows.append(
                    {
                        "model": model,
                        "gpus": gpus,
                        "system": system,
                        "batch_size": result.batch_size * shared_by,
                        "tta_seconds": result.time_to_accuracy(workload.target_accuracy),
                        "epochs_to_target": result.epochs_to_accuracy(workload.target_accuracy),
                        "throughput_img_s": round(result.throughput(), 1),
                        "best_accuracy": round(result.metrics.best_accuracy(), 4),
                        "target_accuracy": workload.target_accuracy,
                    }
                )
    return rows


# --------------------------------------------------------------------------------------
# Figure 11 — accuracy over (simulated) time
# --------------------------------------------------------------------------------------
def run_fig11_convergence_curves(
    model: str = "resnet32",
    gpu_counts: Sequence[int] = (1, 8),
    best_replicas: int = 2,
    max_epochs: Optional[int] = None,
    seed: int = 5,
) -> List[Dict[str, object]]:
    """Test accuracy as a function of simulated time for both systems."""
    workload = workload_for_model(model)
    rows: List[Dict[str, object]] = []
    for gpus in gpu_counts:
        runs = {
            "tensorflow-ssgd": _run_ssgd(
                workload, gpus, seed, max_epochs=max_epochs, use_baseline_batch=True
            ),
            "crossbow-m1": _run_crossbow(workload, gpus, 1, seed, max_epochs=max_epochs),
            f"crossbow-m{best_replicas}": _run_crossbow(
                workload, gpus, best_replicas, seed, max_epochs=max_epochs
            ),
        }
        for system, result in runs.items():
            for point in result.metrics.accuracy_curve():
                rows.append(
                    {
                        "model": model,
                        "gpus": gpus,
                        "system": system,
                        "time_seconds": round(point["time"], 3),
                        "epoch": point["epoch"],
                        "test_accuracy": round(point["accuracy"], 4),
                    }
                )
    return rows


# --------------------------------------------------------------------------------------
# Figures 12 & 13 — hardware/statistical efficiency trade-off vs. m
# --------------------------------------------------------------------------------------
def run_fig12_fig13_tradeoff(
    num_gpus: int,
    replica_counts: Sequence[int] = (1, 2, 4),
    model: str = "resnet32",
    target_accuracy: Optional[float] = None,
    max_epochs: Optional[int] = None,
    include_baseline: bool = True,
    seed: int = 5,
) -> List[Dict[str, object]]:
    """Throughput, epochs-to-accuracy and TTA as the number of learners per GPU varies.

    ``num_gpus=1`` reproduces Figure 12; ``num_gpus=8`` reproduces Figure 13.
    """
    workload = workload_for_model(model)
    target = target_accuracy if target_accuracy is not None else workload.target_accuracy
    rows: List[Dict[str, object]] = []
    for replicas in replica_counts:
        result = _run_crossbow(workload, num_gpus, replicas, seed, max_epochs=max_epochs)
        rows.append(
            {
                "system": f"crossbow-m{replicas}",
                "gpus": num_gpus,
                "replicas_per_gpu": replicas,
                "throughput_img_s": round(result.throughput(), 1),
                "epochs_to_target": result.epochs_to_accuracy(target),
                "tta_seconds": result.time_to_accuracy(target),
                "best_accuracy": round(result.metrics.best_accuracy(), 4),
            }
        )
    if include_baseline:
        result = _run_ssgd(workload, num_gpus, seed, max_epochs=max_epochs)
        rows.append(
            {
                "system": "tensorflow-ssgd",
                "gpus": num_gpus,
                "replicas_per_gpu": 1,
                "throughput_img_s": round(result.throughput(), 1),
                "epochs_to_target": result.epochs_to_accuracy(target),
                "tta_seconds": result.time_to_accuracy(target),
                "best_accuracy": round(result.metrics.best_accuracy(), 4),
            }
        )
    return rows


# --------------------------------------------------------------------------------------
# Figure 14 — TTA and throughput vs. number of model replicas (auto-tuner validation)
# --------------------------------------------------------------------------------------
def run_fig14_learner_sweep(
    model: str = "resnet32",
    num_gpus: int = 1,
    replica_counts: Sequence[int] = (1, 2, 3, 4),
    max_epochs: Optional[int] = None,
    seed: int = 5,
) -> List[Dict[str, object]]:
    """Sweep m and report TTA plus throughput improvement over m=1."""
    workload = workload_for_model(model)
    rows: List[Dict[str, object]] = []
    base_throughput: Optional[float] = None
    for replicas in replica_counts:
        result = _run_crossbow(workload, num_gpus, replicas, seed, max_epochs=max_epochs)
        throughput = result.throughput()
        if base_throughput is None:
            base_throughput = throughput
        rows.append(
            {
                "model": model,
                "gpus": num_gpus,
                "replicas_per_gpu": replicas,
                "tta_seconds": result.time_to_accuracy(workload.target_accuracy),
                "throughput_img_s": round(throughput, 1),
                "throughput_improvement_pct": round(
                    100.0 * (throughput - base_throughput) / base_throughput, 1
                )
                if base_throughput
                else 0.0,
                "best_accuracy": round(result.metrics.best_accuracy(), 4),
            }
        )
    return rows


# --------------------------------------------------------------------------------------
# Figure 15 — SMA vs EA-SGD
# --------------------------------------------------------------------------------------
def run_fig15_sma_vs_easgd(
    model: str = "resnet32",
    gpu_counts: Sequence[int] = (1, 2, 4, 8),
    replicas_per_gpu: int = 2,
    max_epochs: Optional[int] = None,
    seed: int = 5,
) -> List[Dict[str, object]]:
    """TTA of Crossbow using SMA versus Crossbow using EA-SGD synchronisation."""
    workload = workload_for_model(model)
    rows: List[Dict[str, object]] = []
    for gpus in gpu_counts:
        for sync in ("sma", "easgd"):
            result = _run_crossbow(
                workload,
                gpus,
                replicas_per_gpu,
                seed,
                max_epochs=max_epochs,
                synchronisation=sync,
            )
            rows.append(
                {
                    "model": model,
                    "gpus": gpus,
                    "synchronisation": sync,
                    "replicas_per_gpu": replicas_per_gpu,
                    "tta_seconds": result.time_to_accuracy(workload.target_accuracy),
                    "epochs_to_target": result.epochs_to_accuracy(workload.target_accuracy),
                    "best_accuracy": round(result.metrics.best_accuracy(), 4),
                }
            )
    return rows


# --------------------------------------------------------------------------------------
# Figure 16 — synchronisation frequency τ: TTA and throughput
# --------------------------------------------------------------------------------------
def run_fig16_sync_frequency(
    model: str = "resnet32",
    num_gpus: int = 8,
    replicas_per_gpu: int = 2,
    periods: Sequence[int] = (1, 2, 3, 4),
    max_epochs: Optional[int] = None,
    seed: int = 5,
) -> List[Dict[str, object]]:
    """Less frequent synchronisation raises throughput slightly but hurts TTA."""
    workload = workload_for_model(model)
    rows: List[Dict[str, object]] = []
    for period in periods:
        result = _run_crossbow(
            workload,
            num_gpus,
            replicas_per_gpu,
            seed,
            max_epochs=max_epochs,
            synchronisation_period=period,
        )
        rows.append(
            {
                "model": model,
                "gpus": num_gpus,
                "replicas_per_gpu": replicas_per_gpu,
                "tau": period,
                "tta_seconds": result.time_to_accuracy(workload.target_accuracy),
                "throughput_img_s": round(result.throughput(), 1),
                "best_accuracy": round(result.metrics.best_accuracy(), 4),
            }
        )
    return rows


# --------------------------------------------------------------------------------------
# Figure 17 — synchronisation overhead: throughput vs τ (hardware only)
# --------------------------------------------------------------------------------------
def run_fig17_sync_overhead(
    model: str = "resnet32",
    num_gpus: int = 8,
    replica_counts: Sequence[int] = (1, 2, 4),
    periods: Sequence[Optional[int]] = (1, 2, 3, None),
    batch_size: int = 64,
    iterations: int = 60,
) -> List[Dict[str, object]]:
    """Throughput for τ ∈ {1, 2, 3, ∞}; ``None`` means no synchronisation at all.

    Only the simulated server is exercised: this experiment isolates the cost of
    the synchronisation implementation, so no numeric training is needed.
    """
    profile = cost_profile_for_model(model)
    rows: List[Dict[str, object]] = []
    for replicas in replica_counts:
        for period in periods:
            server = titan_x_server(num_gpus)
            scheduler = TaskScheduler(
                server=server, profile=profile, policy=SchedulingPolicy.FCFS_OVERLAP
            )
            slots = [
                scheduler.add_learner(gpu.gpu_id) for gpu in server.gpus for _ in range(replicas)
            ]
            samples = 0
            for iteration in range(iterations):
                synchronise = period is not None and (iteration + 1) % period == 0
                timing = scheduler.schedule_iteration(
                    iteration, slots, batch_size, synchronise=synchronise
                )
                samples += timing.samples
            elapsed = server.now()
            throughput = samples / elapsed if elapsed > 0 else 0.0
            rows.append(
                {
                    "model": model,
                    "gpus": num_gpus,
                    "replicas_per_gpu": replicas,
                    "tau": "inf" if period is None else period,
                    "throughput_img_s": round(throughput, 1),
                }
            )
    return rows


# --------------------------------------------------------------------------------------
# Ablations beyond the paper's figures
# --------------------------------------------------------------------------------------
def run_ablation_scheduler(
    model: str = "lenet",
    num_gpus: int = 1,
    replicas_per_gpu: int = 1,
    batch_size: int = 4,
    iterations: int = 200,
) -> List[Dict[str, object]]:
    """FCFS-with-overlap vs lockstep dispatch (the §4.3 scheduling claim)."""
    profile = cost_profile_for_model(model)
    rows: List[Dict[str, object]] = []
    for policy in (SchedulingPolicy.FCFS_OVERLAP, SchedulingPolicy.LOCKSTEP):
        server = titan_x_server(num_gpus)
        scheduler = TaskScheduler(server=server, profile=profile, policy=policy)
        slots = [
            scheduler.add_learner(gpu.gpu_id)
            for gpu in server.gpus
            for _ in range(replicas_per_gpu)
        ]
        samples = 0
        for iteration in range(iterations):
            timing = scheduler.schedule_iteration(iteration, slots, batch_size, synchronise=True)
            samples += timing.samples
        elapsed = server.now()
        rows.append(
            {
                "model": model,
                "policy": policy.value,
                "gpus": num_gpus,
                "replicas_per_gpu": replicas_per_gpu,
                "batch_size": batch_size,
                "throughput_img_s": round(samples / elapsed, 1) if elapsed > 0 else 0.0,
            }
        )
    return rows


def run_ablation_memory_plan(
    model_name: str = "resnet32-scaled",
    batch_size: int = 16,
    learners: Sequence[int] = (1, 2, 4),
) -> List[Dict[str, object]]:
    """Memory footprint: naive allocation vs offline reuse vs online shared pools (§4.5)."""
    model = create_model(model_name)
    channels = getattr(model, "in_channels", 3)
    image_size = 16 if "scaled" in model_name else 32
    specs = operator_specs_from_forward(model, (channels, image_size, image_size), batch_size)
    naive = naive_memory_plan(specs)
    offline = offline_memory_plan(specs)
    rows: List[Dict[str, object]] = [
        {
            "plan": "naive",
            "learners": 1,
            "peak_mb": round(naive.peak_bytes / 2**20, 3),
            "buffers": naive.num_buffers,
        },
        {
            "plan": "offline-reuse",
            "learners": 1,
            "peak_mb": round(offline.peak_bytes / 2**20, 3),
            "buffers": offline.num_buffers,
        },
    ]
    for count in learners:
        replicated = naive.peak_bytes * count
        shared = online_shared_plan(specs, num_learners=count)
        rows.append(
            {
                "plan": "online-shared",
                "learners": count,
                "peak_mb": round(shared.peak_bytes / 2**20, 3),
                "buffers": shared.num_buffers,
                "vs_replicated_naive_mb": round(replicated / 2**20, 3),
            }
        )
    return rows
