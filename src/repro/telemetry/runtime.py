"""Run identity shared by telemetry, logging and the bench summary.

A *run* is one process tree: the parent generates a ``run_id`` once and
exports it through the ``REPRO_RUN_ID`` environment variable, so forked
workers (and subprocesses such as the benchmark scripts a CI job launches
back-to-back, when the job sets the variable up front) stamp their events
with the same identity.  The run's commit and host metadata let history
accumulated across runs answer per-commit questions without shelling out to
git on the hot path — the commit is resolved from CI environment variables
or a direct read of ``.git/HEAD``.
"""

from __future__ import annotations

import os
import platform
import uuid
from pathlib import Path
from typing import Optional

#: environment variable carrying the run identity across processes
RUN_ID_ENV = "REPRO_RUN_ID"

_run_id: Optional[str] = None


def current_run_id() -> str:
    """The run id for this process tree (stable across forks).

    Resolution order: the cached value, then :data:`RUN_ID_ENV`, then a fresh
    random id — which is exported to the environment so every child process
    started afterwards (fork or exec) joins the same run.
    """
    global _run_id
    if _run_id is None:
        _run_id = os.environ.get(RUN_ID_ENV) or uuid.uuid4().hex[:12]
        os.environ.setdefault(RUN_ID_ENV, _run_id)
    return _run_id


def set_run_id(run_id: str) -> str:  # repro: waive[R6] - test hook on the process-wide run id
    """Force the run id (tests, or a harness grouping several commands)."""
    global _run_id
    _run_id = run_id
    os.environ[RUN_ID_ENV] = run_id
    return run_id


def reset_run_id() -> None:  # repro: waive[R6] - test hook on the process-wide run id
    """Drop the cached id so the next :func:`current_run_id` re-resolves."""
    global _run_id
    _run_id = None
    os.environ.pop(RUN_ID_ENV, None)


def detect_commit(repo_root: Optional[Path] = None) -> str:
    """Best-effort current commit sha, without spawning git.

    CI exposes the sha as ``GITHUB_SHA``; locally ``.git/HEAD`` is read
    directly (one or two small file reads).  Returns ``"unknown"`` when
    neither source resolves — telemetry metadata must never fail a run.
    """
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    root = Path(repo_root) if repo_root is not None else Path.cwd()
    for directory in (root, *root.parents):
        head = directory / ".git" / "HEAD"
        if not head.is_file():
            continue
        try:
            content = head.read_text().strip()
            if content.startswith("ref:"):
                ref = directory / ".git" / content.split(None, 1)[1]
                if ref.is_file():
                    return ref.read_text().strip()
                packed = directory / ".git" / "packed-refs"
                if packed.is_file():
                    name = content.split(None, 1)[1]
                    for line in packed.read_text().splitlines():
                        if line.endswith(" " + name):
                            return line.split(" ", 1)[0]
                return "unknown"
            return content
        except OSError:
            return "unknown"
    return "unknown"


def host_name() -> str:
    """The host label stored in run metadata."""
    return platform.node() or "unknown"
