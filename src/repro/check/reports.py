"""Structured sanitizer findings.

Every invariant violation the sanitizer detects — whether it aborts the
run or is collected at finalize — is recorded as one
:class:`SanitizerReport`.  Reports are plain data (kind, simulated
time, message, detail mapping) so they serialise to JSON for the
``python -m repro check`` CLI and diff cleanly in CI logs.

The ``kind`` vocabulary is closed: each constant below names one
invariant class (see ``docs/sanitizer.md`` for the catalogue).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "SanitizerReport",
    "GATE_REOPEN",
    "GATE_OVERFILL",
    "GATE_PARTY_MISMATCH",
    "GATE_LEAK",
    "SHM_DOUBLE_WRITE",
    "SHM_OVERLAP",
    "SHM_OUT_OF_BOUNDS",
    "SHM_SPAN_MISMATCH",
    "SHM_STALE_READ",
    "SHM_READER_MISMATCH",
    "SHM_LEAK",
    "MATCHER_LEAK",
    "MATCHER_SEQ",
    "MATCHER_MISROUTE",
    "HEAP_REGRESSION",
    "DEADLOCK",
    "RESOURCE_MISUSE",
    "NUMERIC_MISMATCH",
    "COST_DIVERGENCE",
    "PHASE_DIVERGENCE",
    "FAULT_RETRIES_EXHAUSTED",
    "RESILIENCE_DOUBLE_FAILOVER",
    "RESILIENCE_LOST_PARTITION",
    "RESILIENCE_POST_SHRINK_LEAK",
    "ALL_KINDS",
]

# -- gate lifecycle (runtime rendezvous state machine) -----------------------
GATE_REOPEN = "gate-reopen"  #: arrival at an already-completed gate
GATE_OVERFILL = "gate-overfill"  #: more arrivers than declared parties
GATE_PARTY_MISMATCH = "gate-party-mismatch"  #: arrivers disagree on parties
GATE_LEAK = "gate-leak"  #: gate opened but never completed by finalize

# -- shared-memory store -----------------------------------------------------
SHM_DOUBLE_WRITE = "shm-double-write"  #: same key deposited twice
SHM_OVERLAP = "shm-overlap"  #: partition spans of one frame intersect
SHM_OUT_OF_BOUNDS = "shm-out-of-bounds"  #: span outside the frame's extent
SHM_SPAN_MISMATCH = "shm-span-mismatch"  #: payload size != declared span
SHM_STALE_READ = "shm-stale-read"  #: read of a key already fully consumed
SHM_READER_MISMATCH = "shm-reader-mismatch"  #: readers disagree on fan-out
SHM_LEAK = "shm-leak"  #: values never consumed by finalize

# -- message matching --------------------------------------------------------
MATCHER_LEAK = "matcher-leak"  #: unmatched sends/recvs left at finalize
MATCHER_SEQ = "matcher-seq-violation"  #: duplicate per-sender sequence number
MATCHER_MISROUTE = "matcher-misroute"  #: envelope delivered to the wrong rank

# -- simulation kernel -------------------------------------------------------
HEAP_REGRESSION = "heap-time-regression"  #: event fired before current time
DEADLOCK = "deadlock"  #: heap drained with live blocked processes
RESOURCE_MISUSE = "resource-misuse"  #: release without acquire, bad service

# -- differential oracle -----------------------------------------------------
NUMERIC_MISMATCH = "numeric-mismatch"  #: result differs from numpy reference
COST_DIVERGENCE = "cost-model-divergence"  #: simulated time outside the band
PHASE_DIVERGENCE = "phase-timing-divergence"  #: hybrid charge vs exact phase

# -- fault injection ---------------------------------------------------------
FAULT_RETRIES_EXHAUSTED = "fault-retries-exhausted"  #: outage outlived backoff

# -- recovery invariants (repro.resilience) ----------------------------------
RESILIENCE_DOUBLE_FAILOVER = "resilience-double-failover"  #: failover budget spent
RESILIENCE_LOST_PARTITION = "resilience-lost-partition"  #: no surviving node left
RESILIENCE_POST_SHRINK_LEAK = "resilience-post-shrink-leak"  #: traffic to a dead rank

#: The closed kind vocabulary, for validation and docs.
ALL_KINDS = (
    GATE_REOPEN,
    GATE_OVERFILL,
    GATE_PARTY_MISMATCH,
    GATE_LEAK,
    SHM_DOUBLE_WRITE,
    SHM_OVERLAP,
    SHM_OUT_OF_BOUNDS,
    SHM_SPAN_MISMATCH,
    SHM_STALE_READ,
    SHM_READER_MISMATCH,
    SHM_LEAK,
    MATCHER_LEAK,
    MATCHER_SEQ,
    MATCHER_MISROUTE,
    HEAP_REGRESSION,
    DEADLOCK,
    RESOURCE_MISUSE,
    NUMERIC_MISMATCH,
    COST_DIVERGENCE,
    PHASE_DIVERGENCE,
    FAULT_RETRIES_EXHAUSTED,
    RESILIENCE_DOUBLE_FAILOVER,
    RESILIENCE_LOST_PARTITION,
    RESILIENCE_POST_SHRINK_LEAK,
)


@dataclass(frozen=True)
class SanitizerReport:
    """One detected invariant violation.

    Attributes
    ----------
    kind:
        One of the module's kind constants (e.g. ``"gate-reopen"``).
    message:
        Human-readable one-liner.
    time:
        Simulated time at which the violation was detected.
    details:
        Structured context (keys depend on the kind: gate key, shm
        spans, wait graph, model ratio, ...).  Values must be
        JSON-serialisable for the CLI output.
    """

    kind: str
    message: str
    time: float = 0.0
    details: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready dict."""
        return {
            "kind": self.kind,
            "message": self.message,
            "time": self.time,
            "details": _jsonable(self.details),
        }

    def to_json(self) -> str:
        """One-line JSON rendition."""
        return json.dumps(self.to_dict(), sort_keys=True)

    def __str__(self) -> str:
        return f"[{self.kind}] t={self.time:.3e}: {self.message}"


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of detail values to JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
