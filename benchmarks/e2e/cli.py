"""Command line of the whole-path benchmark (``run.py`` pins the environment, then calls this)."""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SPEC_PATH = HERE.parents[1] / "BENCHMARK.json"
#: ``run_seconds`` of BENCHMARK.json; ``--selfcheck`` asserts they agree
DEFAULT_SECONDS = 42


def environment(seed: int) -> Dict[str, Any]:
    """What tells two result files apart by host class."""
    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_average": list(os.getloadavg()),
        "seed": seed,
        **{name: os.environ[name] for name in THREAD_PINS},
    }


def stolen_seconds() -> float:
    """CPU time the hypervisor gave to someone else since boot, summed over cores.

    A shared host now and then starves the VM for minutes (everything runs up
    to ten times slower); the difference of two readings says whether a run
    was hit.
    """
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def child_pids() -> List[int]:
    """Live direct children of this process (field 4 of ``/proc/<pid>/stat`` is the parent)."""
    own = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # ended while we looked
        if int(fields[1]) == own:
            found.append(int(entry.name))
    return found


def reap_children() -> None:
    """Leave no process behind: called on every path out of ``run.py``.

    The first shared-memory block makes ``multiprocessing`` start a resource
    tracker, a child that ends only once its pipe closes — which by default
    is *after* this process has ended, so a caller that looks right after our
    exit still finds it running.  It is stopped and waited for here instead.
    Workers a failed phase left behind hold that pipe open too, so they are
    killed first; every child is waited for last.
    """
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    for pid in child_pids():
        if pid != getattr(tracker, "_pid", None):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    if tracker is not None:
        tracker._stop()  # closes the pipe, then waits for the tracker to exit
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so that the ``finally`` clauses and the reaper run.

    Forked workers inherit the handler; in them it restores the default and
    re-raises the signal, so ``Process.terminate()`` still ends a worker at once.
    """
    main_pid = os.getpid()

    def handler(signum: int, _frame: Any) -> None:
        if os.getpid() != main_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def contract_object(report: Any) -> Dict[str, Any]:
    return {
        "correct": report.correct,
        "attempted": max(int(report.attempted), 1),
        "failed": int(report.failed),
        "metrics": {
            name: {"value": metric.value, "unit": metric.unit}
            for name, metric in report.metrics.items()
        },
    }


def print_report(report: Any) -> None:
    kind = "per-layer (traced)" if report.traced else "end-to-end"
    print(f"== {report.workload}  seed={report.seed}  {kind}")
    for name, metric in report.metrics.items():
        spread = (
            f"   iqr {metric.spread * 100:.1f}% of {len(metric.samples)}"
            if len(metric.samples) > 1
            else ""
        )
        print(f"  {name:28s} {metric.value:>16.6g} {metric.unit:<6s}{spread}")
    print(f"  attempted {report.attempted}  failed {report.failed}")
    for note in report.notes:
        print(f"  ! {note}")


def run_one(args: argparse.Namespace) -> int:
    """One workload in this interpreter; the contract's JSON object is the last line."""
    import phases
    from workloads import by_name

    workload = by_name(args.workload)
    env = environment(args.seed)
    print(json.dumps({"env": env}))
    plan = phases.plan_for(args.seconds, traced=bool(args.trace), smoke=args.smoke)
    stolen = stolen_seconds()
    if args.trace:
        report = phases.run_traced(workload, args.seed, plan, OUT_DIR)
    else:
        report = phases.run_untraced(workload, args.seed, plan)
    stolen = stolen_seconds() - stolen
    if stolen > 0.5:
        report.notes.append(f"the host stole {stolen:.1f} s of CPU during this run")
    print_report(report)
    result = contract_object(report)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "layers" if args.trace else "e2e"
    (OUT_DIR / f"result-{workload.name}-{suffix}.json").write_text(
        json.dumps(
            {
                "env": env,
                "workload": workload.name,
                **result,
                "samples": {name: metric.samples for name, metric in report.metrics.items()},
                "notes": report.notes,
            },
            indent=1,
        )
        + "\n"
    )
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


def child_command(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> List[str]:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    return command + ["--smoke"] if smoke else command


def run_child(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool = False, echo: bool = True
) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter and parse its last line."""
    done = subprocess.run(
        child_command(workload, seed, seconds, trace, smoke),
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    lines = done.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]))
        sys.stdout.flush()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"workload {workload} exited {done.returncode}")
    return json.loads(lines[-1])


def run_all(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    results = {
        workload.name: run_child(workload.name, args.seed, args.seconds, args.trace, args.smoke)
        for workload in WORKLOADS
    }
    print(json.dumps(results))
    return 0 if all(result["correct"] for result in results.values()) else 1


def main(argv: List[str], usage: str = "") -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=usage.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0, help="arrival schedule and request samples")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measuring time")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="1: the per-layer breakdown instead"
    )
    parser.add_argument("--smoke", action="store_true", help="tiny run, harness check only")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--aa", type=int, metavar="N", help="A/A: N alternating runs a side")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        import phases
        from workloads import by_name

        phases.setup_probe(by_name(args.workload))
        return 0
    if args.selfcheck:
        import selfcheck

        return selfcheck.main()
    if args.aa:
        import aa

        return aa.main(args.aa, args.seconds, args.seed)
    if args.workload:
        return run_one(args)
    return run_all(args)
