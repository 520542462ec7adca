"""The project's shared-memory protocol registry, consumed by the rules.

One declarative object names every convention the concurrency rules enforce,
so adding a protocol participant (a new shared state word, a new transition
helper, a new worker entry point) is a one-line registry edit rather than a
rule rewrite.  The defaults describe the repository's three protocols:

* the serving pools' slot ring (``meta`` state words + ``stop_flag``,
  guarded by the ring's cross-process lock, mutated only through the named
  claim/publish/free helpers of :class:`repro.serve.ring.SlotRing`);
* the executor's fork/command protocol (worker entry functions
  ``*_worker_main``; queue-synchronised, so its matrices are deliberately
  *not* R1 state words — the dynamic sanitizer covers them instead);
* the trainer's deferred-publish/flip protocol
  (``step_matrix(..., out=)`` writes consumed by ``_apply_pending``'s
  ``_published_index`` flip).

Attribute names are matched with leading underscores stripped, so
``state.meta``, ``self._meta`` and ``self._meta.array`` all resolve to the
registered name ``meta``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet


def _names(*values: str) -> FrozenSet[str]:
    return frozenset(values)


@dataclass(frozen=True)
class ProtocolSpec:
    """Declarative description of the conventions R1-R4 check."""

    # -- R1: lock discipline ---------------------------------------------------------
    #: normalized attribute names whose subscript reads/writes are
    #: cross-process state words requiring the protocol lock
    shared_state_attrs: FrozenSet[str] = field(default_factory=lambda: _names("meta", "stop_flag"))
    #: normalized attribute/variable names recognised as the protocol lock in
    #: ``with <lock>:`` blocks
    lock_names: FrozenSet[str] = field(default_factory=lambda: _names("lock"))
    #: functions allowed to touch shared state words without a lexically
    #: visible ``with <lock>:`` (e.g. setup code that runs before any fork)
    lock_exempt_functions: FrozenSet[str] = field(default_factory=frozenset)

    # -- R2: slot-ring protocol conformance ------------------------------------------
    #: the subset of ``shared_state_attrs`` that are slot-ring state words
    #: (the stop flag is shared state under R1 but not a ring transition)
    slot_state_attrs: FrozenSet[str] = field(default_factory=lambda: _names("meta"))
    #: prefix of the slot state-word constants (EMPTY/FILLING/READY/CLAIMED)
    state_constant_prefix: str = "_SLOT_"
    #: the only functions allowed to assign a slot state word — the named
    #: claim/publish/free transition helpers of the ring protocol
    transition_helpers: FrozenSet[str] = field(
        default_factory=lambda: _names(
            "_reserve_empty_slot",
            "_publish_ready_slot",
            "_abort_filling_slot",
            "_free_claimed_slot",
            "_claim_ready_slot",
        )
    )

    # -- R3: fork safety --------------------------------------------------------------
    #: suffix identifying worker entry functions by name (in addition to any
    #: function passed as fork target, which is detected structurally)
    worker_entry_suffix: str = "_worker_main"
    #: call names that mark a fork site within a module
    fork_call_names: FrozenSet[str] = field(default_factory=lambda: _names("_fork", "Process"))

    # -- R4: deferred-publish ordering ------------------------------------------------
    #: callee names whose ``out=`` keyword denotes a deferred weight publish
    deferred_write_calls: FrozenSet[str] = field(default_factory=lambda: _names("step_matrix"))
    #: functions that forward an ``out=`` deferred write to a registered
    #: callee and leave the buffer flip to *their* caller; calls to these with
    #: ``out=`` are themselves deferred writes
    deferred_write_forwarders: FrozenSet[str] = field(
        default_factory=lambda: _names("_finish_iteration")
    )
    #: substrings of attribute targets / call names that count as the
    #: worker-visible publish (the buffer flip)
    publish_markers: FrozenSet[str] = field(
        default_factory=lambda: _names("published", "flip", "publish")
    )


def normalize_attr(name: str) -> str:
    """Strip leading underscores: ``_meta`` and ``meta`` are one registry entry."""
    return name.lstrip("_")


DEFAULT_SPEC = ProtocolSpec()
