"""Project lint and shared-memory race sanitizer for the repro codebase.

The repository's correctness rests on three cooperating shared-memory
protocols — the executor's double-buffered gradient/weight views, the
evaluator pool's slot ring with its EMPTY→FILLING→READY→CLAIMED state
machine, and the checkpoint hot-swap path — whose lock discipline and
fork-safety conventions were previously enforced only by review.  This
package makes those conventions checkable:

* **Static half** — an AST-based rule framework (:mod:`repro.analysis.core`)
  with five project-specific rules, four for the protocols and one for the
  library's surface:

  - ``R1`` *lock discipline* (:mod:`repro.analysis.lock_discipline`) —
    registered cross-process state words may only be touched under a lock or
    inside an approved helper.
  - ``R2`` *slot-ring protocol conformance*
    (:mod:`repro.analysis.slot_protocol`) — slot state words change only
    through the named claim/publish/free transition helpers.
  - ``R3`` *fork safety* (:mod:`repro.analysis.fork_safety`) — worker entry
    functions must not capture threading primitives, open file handles or the
    parent's global RNG state, and modules must not fork after starting
    threads.
  - ``R4`` *deferred-publish ordering* (:mod:`repro.analysis.publish_order`)
    — a ``step_matrix(..., out=)`` deferred write must be followed by a
    buffer flip before any worker-visible read.
  - ``R6`` *test-only surface* (:mod:`repro.analysis.surface`) — a public
    top-level function or class in ``src/repro/`` must be used outside
    ``tests/``.

  Run it as ``python -m repro.analysis src tests``; per-line
  ``# repro: waive[R1]`` suppressions and a committed JSON baseline keep the
  signal actionable (see ``docs/analysis.md``).

* **Dynamic half** — :class:`~repro.analysis.sanitizer.ShmSanitizer`, a debug
  mode on :class:`~repro.engine.executor.SharedMatrix` that stamps
  per-``(pid, region)`` access epochs into a side shared-memory map and
  raises :class:`~repro.errors.ShmRaceError` on overlapping writer/writer or
  writer-while-claimed-reader windows.  Enabled with ``REPRO_SHM_SANITIZE=1``
  and instrumented into the evaluator pool and the pipelined executor.
"""

from repro.analysis.core import (
    AnalysisReport,
    Rule,
    Violation,
    analyze_file,
    analyze_paths,
    analyze_source,
    load_baseline,
    write_baseline,
)
from repro.analysis.fork_safety import ForkSafetyRule
from repro.analysis.lock_discipline import LockDisciplineRule
from repro.analysis.protocol import DEFAULT_SPEC, ProtocolSpec
from repro.analysis.publish_order import PublishOrderRule
from repro.analysis.slot_protocol import SlotProtocolRule
from repro.analysis.surface import UnusedSurfaceRule


def default_rules(spec: ProtocolSpec = DEFAULT_SPEC) -> list:
    """The project rule set: R1-R4 bound to ``spec``'s protocol registries, and R6."""
    return [
        LockDisciplineRule(spec),
        SlotProtocolRule(spec),
        ForkSafetyRule(spec),
        PublishOrderRule(spec),
        UnusedSurfaceRule(),
    ]


__all__ = [
    "AnalysisReport",
    "Rule",
    "Violation",
    "ProtocolSpec",
    "DEFAULT_SPEC",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "default_rules",
    "load_baseline",
    "write_baseline",
    "LockDisciplineRule",
    "SlotProtocolRule",
    "ForkSafetyRule",
    "PublishOrderRule",
    "UnusedSurfaceRule",
]
