"""Whole-path benchmark: train -> checkpoint -> serve, one command.

    python benchmarks/e2e/run.py                     every workload, end-to-end metrics
    python benchmarks/e2e/run.py --trace 1           every workload, per-layer metrics
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python benchmarks/e2e/run.py --smoke             seconds-long harness check, no perf meaning
    python benchmarks/e2e/run.py --selfcheck         checks of the harness itself
    python benchmarks/e2e/run.py --aa N              the benchmark against itself, N runs a side

With ``--workload`` the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; without it
every workload runs in its own interpreter (so ``peak_rss_mb`` is per
workload) and the last line maps workload names to those objects.  See
README.md beside this file for what each number means.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import cli  # imports neither NumPy nor the program

# Pinned before NumPy is imported: BLAS worker threads on a shared 2-core
# host are the largest single source of run-to-run spread.
for _name in cli.THREAD_PINS:
    os.environ[_name] = "1"

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    import repro  # noqa: F401 - fail here, before any output, when the program is absent

    cli.exit_on_sigterm()
    try:
        code = cli.main(sys.argv[1:], usage=__doc__)
    finally:
        cli.reap_children()  # the contract: every process started is stopped and waited for
    sys.exit(code)
