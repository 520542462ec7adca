"""R6 — public library surface that only tests use.

A public top-level function or class in ``src/repro/`` earns its place by
serving the library, its benchmarks, its examples or its tools.  R6 reports,
at its ``def``/``class`` line, one that only ``tests/`` use or nothing uses.

What counts as a use of a name:

* a ``Name``, an ``Attribute``, an import alias, or a name inside a quoted
  annotation, in another file under ``src/``, ``benchmarks/``, ``examples/``
  or ``tools/`` of the tree that holds ``src/repro/`` (the runner's root, or
  a directory below it);
* a use in the name's own module, outside its own body;
* in an ``__init__.py``, only a non-import use: a re-export or an
  ``__all__`` entry is not a use;
* a decorator on a function, which is a registration.

Names are matched by identifier, not resolved, so a same-named attribute
elsewhere counts as a use: R6 errs towards silence.  ``repro/tensor/`` and
``repro/nn/`` are exempt: they are the operator library that the gradchecks
pin.  A name kept on purpose (a reference a test compares the production
path against, a test hook, documented API) carries ``repro: waive[R6]`` and
its reason on the ``def`` line.  The corpus is read on the first check, not
at import: the trainer imports this package through the sanitizer.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set, Tuple

from repro.analysis.core import FileContext, Rule, Violation, iter_python_files

#: the package R6 audits, relative to the runner's root
SCOPE = "src/repro/"
#: operator-library packages whose test-only names the gradchecks pin
EXEMPT = ("src/repro/tensor/", "src/repro/nn/")
#: the trees whose references keep a name alive
CORPUS_DIRS = ("src", "benchmarks", "examples", "tools")


def _used_names(tree: ast.AST, imports: bool = True) -> Set[str]:
    """Every identifier ``tree`` references, including quoted annotations."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and imports:
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names |= _quoted_annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            names |= _quoted_annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= _quoted_annotation_names(node.annotation)
    return names


def _quoted_annotation_names(annotation: ast.expr) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                continue
    return names


class UnusedSurfaceRule(Rule):
    rule_id = "R6"
    title = "public top-level names in src/repro need a use outside tests"

    def __init__(self) -> None:
        self._corpus: Dict[Path, Dict[str, Set[str]]] = {}

    def _uses_by_name(self, root: Path) -> Dict[str, Set[str]]:
        """``{name: display paths of the corpus files using it}``, read once per root."""
        key = root.resolve()
        if key not in self._corpus:
            uses: Dict[str, Set[str]] = {}
            dirs = [key / name for name in CORPUS_DIRS if (key / name).is_dir()]
            for path in iter_python_files(dirs):
                display = path.relative_to(key).as_posix()
                tree = ast.parse(path.read_text(encoding="utf-8"), filename=display)
                for name in _used_names(tree, imports=path.name != "__init__.py"):
                    uses.setdefault(name, set()).add(display)
            self._corpus[key] = uses
        return self._corpus[key]

    def check(self, context: FileContext) -> List[Violation]:
        # The tree's root is what precedes ``src/repro/``: the runner's root or below it.
        prefix, scope, rest = context.display_path.partition(SCOPE)
        path = scope + rest
        if not scope or prefix[-1:] not in ("", "/") or path.startswith(EXEMPT):
            return []
        if path.endswith("__init__.py"):
            return []
        definitions = [
            node
            for node in context.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        ]
        elsewhere = self._uses_by_name((context.root or Path(".")) / prefix)
        in_module: List[Tuple[ast.stmt, Set[str]]] = [
            (node, _used_names(node)) for node in context.tree.body
        ]
        violations: List[Violation] = []
        for node in definitions:
            if node.decorator_list and not isinstance(node, ast.ClassDef):
                continue  # a registration
            if elsewhere.get(node.name, set()) - {path}:
                continue
            if any(node.name in names for other, names in in_module if other is not node):
                continue
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            violations.append(
                self.violation(
                    context,
                    node,
                    f"public {kind} '{node.name}' has no use outside tests; "
                    "delete it or waive it with the reason it stays",
                )
            )
        return violations
