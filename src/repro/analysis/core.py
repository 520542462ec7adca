"""Rule framework: violations, waivers, baselines and the file runner.

The framework is deliberately small: a rule is an object with a ``rule_id``
and a ``check(tree, context)`` method returning :class:`Violation` records.
Everything around it is plumbing shared by all rules:

* **Waivers** — a violation whose line carries ``# repro: waive[R1]`` (one or
  more comma-separated rule ids, optionally followed by ``- reason``) is
  suppressed at the source.  Waivers are the reviewed, in-tree escape hatch
  for accesses that are intentionally outside the protocol (e.g. a monotone
  stop flag read without the lock).
* **Baseline** — a committed JSON file mapping violation keys to occurrence
  counts.  Runs fail only on violations *not* covered by the baseline, so the
  analyzer can be adopted (and new rules added) without a flag day.  Keys are
  ``path::rule::message`` — line numbers are deliberately excluded so that
  unrelated edits shifting a baselined violation do not break CI.
* **Runner** — walks files/directory trees, parses each file once and applies
  every rule to the shared AST.  Directory walks skip ``fixtures`` directories
  (the analyzer's own known-bad test inputs); explicitly named files are
  always analyzed.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import AnalysisError

#: the waiver marker comment: ``repro: waive[R1]`` / ``repro: waive[R1,R3] - reason``
WAIVE_RE = re.compile(r"#\s*repro:\s*waive\[([A-Za-z0-9_,\s]+)\]")

#: directory names skipped by directory walks (never by explicit file args)
DEFAULT_EXCLUDED_DIRS = frozenset({"fixtures", "__pycache__", ".git"})

BASELINE_VERSION = 1


@dataclass(frozen=True)
class Violation:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def key(self) -> str:
        """Baseline identity: stable across unrelated line-number drift."""
        return f"{self.path}::{self.rule}::{self.message}"

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class Rule:
    """Base class for AST rules; subclasses set ``rule_id``/``title``.

    ``check`` receives a :class:`FileContext` holding the parsed tree, the
    source text and the (posix, repo-relative when possible) display path, and
    returns the rule's violations for that file.  Rules never see waivers or
    the baseline — suppression is framework policy, applied uniformly.
    """

    rule_id: str = "R0"
    title: str = "abstract rule"

    def check(self, context: "FileContext") -> List[Violation]:  # pragma: no cover
        raise NotImplementedError

    def violation(self, context: "FileContext", node: ast.AST, message: str) -> Violation:
        return Violation(
            rule=self.rule_id,
            path=context.display_path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


@dataclass
class FileContext:
    """Everything a rule needs about one source file."""

    display_path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: the directory ``display_path`` is relative to, when the runner has one
    root: Optional[Path] = None

    @classmethod
    def parse(cls, display_path: str, source: str, root: Optional[Path] = None) -> "FileContext":
        tree = ast.parse(source, filename=display_path)
        return cls(
            display_path=display_path,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            root=root,
        )


def _waiver_target_line(lines: List[str], comment_line: int) -> int:
    """The line a standalone waiver comment applies to: the next code line.

    A waiver trailing a statement applies to that statement's line; a waiver
    on a line of its own (possibly one of several stacked comment lines)
    applies to the next non-blank, non-comment line.
    """
    target = comment_line + 1
    while target <= len(lines):
        stripped = lines[target - 1].strip()
        if stripped and not stripped.startswith("#"):
            return target
        target += 1
    return comment_line


def waived_rules_by_line(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule ids waived on that line.

    Only genuine ``#`` comment tokens count — waiver syntax quoted inside a
    docstring or string literal (this module's own documentation, say) is not
    a waiver.  A trailing comment waives its own line; a comment-only line
    waives the next code line.
    """
    waivers: Dict[int, Set[str]] = {}
    lines = source.splitlines()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = WAIVE_RE.search(token.string)
            if match is None:
                continue
            rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
            line = token.start[0]
            if lines[line - 1][: token.start[1]].strip() == "":
                line = _waiver_target_line(lines, line)
            waivers.setdefault(line, set()).update(rules)
    except tokenize.TokenError:  # pragma: no cover - ast.parse reports it first
        pass
    return waivers


@dataclass
class AnalysisReport:
    """The outcome of one analyzer run over a set of files."""

    violations: List[Violation] = field(default_factory=list)
    waived: int = 0
    unused_waivers: List[Tuple[str, int, str]] = field(default_factory=list)
    checked_files: int = 0
    parse_errors: List[str] = field(default_factory=list)

    def extend(self, other: "AnalysisReport") -> None:
        self.violations.extend(other.violations)
        self.waived += other.waived
        self.unused_waivers.extend(other.unused_waivers)
        self.checked_files += other.checked_files
        self.parse_errors.extend(other.parse_errors)

    def partition(
        self, baseline: Optional[Dict[str, int]]
    ) -> Tuple[List[Violation], List[Violation]]:
        """Split violations into ``(new, baselined)`` against a baseline map.

        The baseline allows up to ``count`` occurrences of each key; any
        occurrence beyond the budget is new.  ``None`` means no baseline —
        every violation is new.
        """
        if not baseline:
            return list(self.violations), []
        budget = dict(baseline)
        new: List[Violation] = []
        covered: List[Violation] = []
        for violation in self.violations:
            key = violation.key()
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                covered.append(violation)
            else:
                new.append(violation)
        return new, covered

    def to_json(self, baseline: Optional[Dict[str, int]] = None) -> Dict[str, object]:
        new, covered = self.partition(baseline)
        return {
            "checked_files": self.checked_files,
            "waived": self.waived,
            "baselined": len(covered),
            "parse_errors": list(self.parse_errors),
            "unused_waivers": [
                {"path": path, "line": line, "rule": rule}
                for path, line, rule in self.unused_waivers
            ],
            "violations": [violation.to_json() for violation in new],
        }


def analyze_source(
    source: str,
    rules: Sequence[Rule],
    display_path: str = "<string>",
    root: Optional[Path] = None,
) -> AnalysisReport:
    """Apply ``rules`` to one source string, applying per-line waivers."""
    report = AnalysisReport(checked_files=1)
    try:
        context = FileContext.parse(display_path, source, root=root)
    except SyntaxError as exc:
        report.parse_errors.append(f"{display_path}:{exc.lineno}: {exc.msg}")
        return report
    waivers = waived_rules_by_line(source)
    used: Dict[int, Set[str]] = {line: set() for line in waivers}
    for rule in rules:
        for violation in rule.check(context):
            waived_here = waivers.get(violation.line, set())
            if rule.rule_id in waived_here:
                report.waived += 1
                used[violation.line].add(rule.rule_id)
            else:
                report.violations.append(violation)
    for line, rules_on_line in waivers.items():
        for rule_id in sorted(rules_on_line - used.get(line, set())):
            report.unused_waivers.append((display_path, line, rule_id))
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return report


def analyze_file(path: Path, rules: Sequence[Rule], root: Optional[Path] = None) -> AnalysisReport:
    """Analyze one file; ``root`` relativises the display path when given."""
    display = path.as_posix()
    if root is not None:
        try:
            display = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            display = path.as_posix()
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(f"cannot read {path}: {exc}") from exc
    return analyze_source(source, rules, display_path=display, root=root)


def iter_python_files(
    paths: Iterable[Path],
    excluded_dirs: frozenset = DEFAULT_EXCLUDED_DIRS,
) -> List[Path]:
    """Expand files/directories into the sorted list of ``.py`` files to scan.

    Explicitly listed files are always included (the analyzer's own tests
    point it at known-bad fixtures); only directory *walks* skip the excluded
    directory names.
    """
    files: List[Path] = []
    for path in paths:
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = set(candidate.parts)
                if parts & excluded_dirs:
                    continue
                files.append(candidate)
        else:
            raise AnalysisError(f"{path} is neither a file nor a directory")
    return files


def analyze_paths(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    root: Optional[Path] = None,
) -> AnalysisReport:
    """Run ``rules`` over every Python file under ``paths``."""
    report = AnalysisReport()
    for path in iter_python_files(paths):
        report.extend(analyze_file(path, rules, root=root))
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return report


# ---------------------------------------------------------------- baseline IO
def load_baseline(path: Path) -> Dict[str, int]:
    """Load a baseline file's ``{violation key: allowed count}`` map."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise AnalysisError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise AnalysisError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "violations" not in payload:
        raise AnalysisError(f"baseline {path} must be an object with a 'violations' map")
    violations = payload["violations"]
    if not isinstance(violations, dict):
        raise AnalysisError(f"baseline {path} 'violations' must map keys to counts")
    return {str(key): int(count) for key, count in violations.items()}


def write_baseline(path: Path, violations: Sequence[Violation]) -> Dict[str, int]:
    """Write the baseline covering exactly ``violations``; returns the map."""
    counts: Dict[str, int] = {}
    for violation in violations:
        counts[violation.key()] = counts.get(violation.key(), 0) + 1
    payload = {
        "version": BASELINE_VERSION,
        "comment": (
            "Known pre-existing repro.analysis violations; new code must be "
            "clean. Refresh with: python -m repro.analysis <paths> --write-baseline"
        ),
        "violations": dict(sorted(counts.items())),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return counts
