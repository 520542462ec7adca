"""Experiment harness: workload definitions and runners for every table and figure.

Each experiment from the paper's evaluation (§5) has a runner in
:mod:`repro.experiments.figures` that sweeps the relevant parameters, runs the
trainers and returns rows shaped like the corresponding table or figure series.
The benchmark modules under ``benchmarks/`` are thin wrappers around these
runners, and ``EXPERIMENTS.md`` records the paper-vs-measured comparison.
"""

from repro.experiments.workloads import (
    SCALE_PROFILES,
    Workload,
    WORKLOADS,
    workload_for_model,
)
from repro.experiments.reporting import (
    format_table,
    record_bench_summary,
    save_rows,
)
# Training-plane studies that run on the scenario sweep engine; re-exported
# here because they belong to the same evaluation surface as the figures.
from repro.scenarios.studies import (
    run_autotuner_hysteresis_study,
    run_pipelined_easgd_ablation,
)
from repro.experiments.figures import (
    run_table1_model_inventory,
    run_fig2_hardware_efficiency,
    run_fig3_statistical_efficiency,
    run_fig9_baseline_convergence,
    run_fig10_time_to_accuracy,
    run_fig11_convergence_curves,
    run_fig12_fig13_tradeoff,
    run_fig14_learner_sweep,
    run_fig15_sma_vs_easgd,
    run_fig16_sync_frequency,
    run_fig17_sync_overhead,
    run_ablation_scheduler,
    run_ablation_memory_plan,
)

__all__ = [
    "Workload",
    "WORKLOADS",
    "SCALE_PROFILES",
    "workload_for_model",
    "format_table",
    "record_bench_summary",
    "save_rows",
    "run_table1_model_inventory",
    "run_fig2_hardware_efficiency",
    "run_fig3_statistical_efficiency",
    "run_fig9_baseline_convergence",
    "run_fig10_time_to_accuracy",
    "run_fig11_convergence_curves",
    "run_fig12_fig13_tradeoff",
    "run_fig14_learner_sweep",
    "run_fig15_sma_vs_easgd",
    "run_fig16_sync_frequency",
    "run_fig17_sync_overhead",
    "run_ablation_scheduler",
    "run_ablation_memory_plan",
    "run_autotuner_hysteresis_study",
    "run_pipelined_easgd_ablation",
]
