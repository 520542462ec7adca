"""R3 — fork safety of worker entry functions and fork/thread ordering.

Worker processes are started with the ``fork`` start method and inherit the
parent's entire object graph.  That is the design (zero-copy shared-memory
views, no pickling), but it makes three classes of capture silently unsafe:

* **Threading primitives** — a ``threading.Lock``/``Event``/``Thread``
  captured from the parent is a copy of parent-process state, not a shared
  object; synchronising on it does nothing across the fork boundary.  Worker
  bodies must use the multiprocessing primitives handed to them in their
  state object.
* **Open file handles** — a file object opened in the worker body (or
  captured from the parent) shares its OS-level offset with the parent copy;
  interleaved reads corrupt both.  Workers receive data through their state
  object's streams, never via ``open()``.
* **The global RNG** — ``np.random.*`` / ``random.*`` module-level calls use
  the RNG state forked from the parent, so every worker draws *identical*
  "random" numbers.  Fresh per-worker generators (``default_rng(seed)`` /
  ``random.Random(seed)``) are fine and exempted.

Additionally, a process that has started threads must never ``fork`` — the
child inherits locked locks whose owners do not exist in it.  R3 flags fork
call sites in any module that also constructs a thread: ``threading.Thread``
(qualified or from-imported) or a ``ThreadPoolExecutor``.

Worker entry functions are recognised by the ``*_worker_main`` suffix or by
being passed as a fork target (``._fork(fn, ...)`` / ``Process(target=fn)``).
The check is intentionally non-transitive: it audits the entry function's own
body, the place where the fork-safety convention is owned.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.astutil import terminal_name, worker_entry_functions
from repro.analysis.core import FileContext, Rule, Violation
from repro.analysis.protocol import ProtocolSpec

#: RNG constructors that create *fresh* per-process state (explicitly safe)
_SAFE_RNG_CALLS = frozenset({"default_rng", "Generator", "Random", "SeedSequence"})
#: module aliases whose attribute calls draw from the forked global RNG
_RNG_MODULES = frozenset({"random"})
_NUMPY_ALIASES = frozenset({"np", "numpy"})
#: call names that start threads in the calling process
_THREAD_CONSTRUCTORS = frozenset({"Thread", "ThreadPoolExecutor"})


def _rng_violation_name(func: ast.AST) -> Optional[str]:
    """Dotted name of a global-RNG call (``np.random.rand`` / ``random.seed``)."""
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in _SAFE_RNG_CALLS:
        return None
    value = func.value
    # random.<fn>(...)
    if isinstance(value, ast.Name) and value.id in _RNG_MODULES:
        return f"{value.id}.{func.attr}"
    # np.random.<fn>(...) / numpy.random.<fn>(...)
    if (
        isinstance(value, ast.Attribute)
        and value.attr == "random"
        and isinstance(value.value, ast.Name)
        and value.value.id in _NUMPY_ALIASES
    ):
        return f"{value.value.id}.random.{func.attr}"
    return None


class ForkSafetyRule(Rule):
    rule_id = "R3"
    title = "worker entries must not capture parent-process state; no fork after threads"

    def __init__(self, spec: ProtocolSpec) -> None:
        self.spec = spec

    def _check_worker_entry(
        self, context: FileContext, function: ast.AST
    ) -> List[Violation]:
        violations: List[Violation] = []
        name = getattr(function, "name", "?")
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                callee = node.func
                if isinstance(callee, ast.Name) and callee.id == "open":
                    violations.append(
                        self.violation(
                            context,
                            node,
                            f"worker entry {name}() opens a file handle; stream "
                            "data through the worker's state object instead",
                        )
                    )
                rng = _rng_violation_name(callee)
                if rng is not None:
                    violations.append(
                        self.violation(
                            context,
                            node,
                            f"worker entry {name}() draws from the global RNG "
                            f"({rng}) forked from the parent — every worker gets "
                            "identical state; use a fresh seeded generator",
                        )
                    )
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id == "threading":
                    violations.append(
                        self.violation(
                            context,
                            node,
                            f"worker entry {name}() uses threading.{node.attr}; "
                            "thread primitives do not cross the fork boundary — "
                            "use the multiprocessing primitives in the worker state",
                        )
                    )
        return violations

    def _thread_creation_lines(self, tree: ast.Module) -> List[int]:
        """Lines constructing a thread, however the name was imported.

        ``threading.Thread(...)``, a from-imported ``Thread(...)`` and
        ``ThreadPoolExecutor(...)`` (bare or module-qualified) all count.
        """
        return sorted(
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and terminal_name(node.func) in _THREAD_CONSTRUCTORS
        )

    def _fork_sites(self, tree: ast.Module) -> List[ast.Call]:
        sites: List[ast.Call] = []
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and terminal_name(node.func) in self.spec.fork_call_names
            ):
                sites.append(node)
        return sites

    def check(self, context: FileContext) -> List[Violation]:
        violations: List[Violation] = []
        for function in worker_entry_functions(context.tree, self.spec):
            violations.extend(self._check_worker_entry(context, function))
        thread_lines = self._thread_creation_lines(context.tree)
        if thread_lines:
            for site in self._fork_sites(context.tree):
                violations.append(
                    self.violation(
                        context,
                        site,
                        "fork site in a module that also starts threads "
                        f"(thread constructed at line {thread_lines[0]}); a forked "
                        "child inherits locked locks whose owners do not exist — "
                        "keep forking and threading in separate modules",
                    )
                )
        return violations
