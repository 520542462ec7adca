"""A/A: the benchmark against itself, to show its numbers repeat.

``run.py --aa N`` runs the whole benchmark ``2 N`` times, alternating between
set A and set B (same code, a different ``--seed`` every run), and prints for
every workload x end-to-end metric both set medians, the relative gap between
them, each set's quartile spread and the largest distance of any single run
from its set's median.  A gap above half the metric's bound, a spread above
the bound, or a single run more than a tenth from its set's median is
flagged: the remedy is more repeats or longer segments in
``phases.plan_for`` — never a wider bound.  The pass is also appended to
``AA_RESULTS.md`` beside this file.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List

import stats
from cli import HERE, SPEC_PATH, environment, run_child, stolen_seconds
from workloads import WORKLOADS


#: acceptance: no single run further than this from its set's median
SINGLE_RUN_LIMIT = 0.10


def load_bounds() -> Dict[str, float]:
    spec = json.loads(SPEC_PATH.read_text())
    return {metric["name"]: float(metric["bound"]) for metric in spec["end_to_end"]}


def main(runs_per_side: int, seconds: float, seed: int) -> int:
    bounds = load_bounds()
    #: values[side][workload][metric] -> one value per run
    values: List[Dict[str, Dict[str, List[float]]]] = [
        {w.name: {m: [] for m in bounds} for w in WORKLOADS} for _ in range(2)
    ]
    #: the same values in the order the runs were made, to tell drift of the host from spread
    in_order: Dict[str, Dict[str, List[float]]] = {
        w.name: {m: [] for m in bounds} for w in WORKLOADS
    }
    started = time.time()
    slowest = 0.0
    failed = 0
    starved: List[str] = []
    for pair in range(runs_per_side):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            run_seed = seed + 2 * pair + side
            for workload in WORKLOADS:
                run_started = time.time()
                stolen = stolen_seconds()
                result = run_child(workload.name, run_seed, seconds, trace=0, echo=False)
                wall = time.time() - run_started
                stolen = stolen_seconds() - stolen
                slowest = max(slowest, wall)
                if stolen > 0.5:
                    starved.append(
                        f"{workload.name} seed {run_seed} (set {'AB'[side]}): "
                        f"{stolen:.1f} s stolen, {wall:.0f} s wall"
                    )
                failed += result["failed"]
                if not result["correct"]:
                    print(f"! {workload.name} seed {run_seed}: {result['failed']} failed")
                for metric in bounds:
                    value = result["metrics"][metric]["value"]
                    values[side][workload.name][metric].append(value)
                    in_order[workload.name][metric].append(value)
                print(
                    f"pair {pair} side {'AB'[side]} {workload.name} seed {run_seed}: {wall:.1f} s",
                    flush=True,
                )

    header = (
        "| workload | metric | median A | median B | gap | iqr A | iqr B | iqr A+B | max dev "
        "| bound | |\n"
        "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---|"
    )
    rows = []
    flagged = 0
    for workload in WORKLOADS:
        for metric, bound in bounds.items():
            a = values[0][workload.name][metric]
            b = values[1][workload.name][metric]
            med_a, med_b = stats.median(a), stats.median(b)
            gap = abs(med_a - med_b) / med_a if med_a else 0.0
            spread_a, spread_b = stats.iqr_share(a), stats.iqr_share(b)
            deviation = max(
                max(abs(v - med) / med for v in side) if med else 0.0
                for side, med in ((a, med_a), (b, med_b))
            )
            over = ", ".join(
                word
                for word, is_over in (
                    ("gap", gap > bound / 2),
                    ("spread", max(spread_a, spread_b) > bound),
                    ("single run", deviation > SINGLE_RUN_LIMIT),
                )
                if is_over
            )
            flagged += bool(over)
            rows.append(
                f"| {workload.name} | {metric} | {med_a:.5g} | {med_b:.5g} | {gap:.1%} "
                f"| {spread_a:.1%} | {spread_b:.1%} | {stats.iqr_share(a + b):.1%} "
                f"| {deviation:.1%} | {bound:.0%} "
                f"| {'**over: ' + over + '**' if over else 'ok'} |"
            )
    env = environment(seed)
    text = "\n".join(
        [
            "# A/A results",
            "",
            f"`python benchmarks/e2e/run.py --aa {runs_per_side} --seconds {seconds:g} "
            f"--seed {seed}` — {runs_per_side} runs a side, alternating, one seed per run; "
            f"{(time.time() - started) / 60:.0f} min, slowest single run {slowest:.1f} s.",
            "",
            f"Host: {env['nproc']} x {env['cpu_model']}, Python {env['python']}, "
            f"NumPy {env['numpy']}, BLAS threads pinned to 1.",
            "",
            "gap = |median A - median B| / median A; iqr = (Q3 - Q1) / median inside a set "
            "(A+B: over all runs, every one with its own seed); "
            "max dev = the single run furthest from its set's median; flagged when the gap "
            "exceeds half the bound, a spread exceeds the bound, or a single run lies more than "
            f"{SINGLE_RUN_LIMIT:.0%} from its set's median.",
            "",
            header,
            *rows,
            "",
            f"{flagged} rows flagged (of {len(rows)}); {failed} failed operations in all runs.",
            "",
            "Every run's value, in the order the runs were made (A B B A A B ...):",
            "",
            "| workload | metric | values |",
            "|---|---|---|",
            *(
                f"| {name} | {metric} | {' '.join(f'{v:.5g}' for v in series)} |"
                for name, metrics in in_order.items()
                for metric, series in metrics.items()
            ),
            "",
            "Runs during which the hypervisor stole more than 0.5 s of CPU from the VM: "
            + ("; ".join(starved) if starved else "none")
            + ".",
            "",
        ]
    )
    print(text)
    # Appended, never overwritten: the file is the record of every pass made.
    with Path(HERE / "AA_RESULTS.md").open("a") as record:
        record.write(text + "\n")
    return 1 if flagged or failed else 0
