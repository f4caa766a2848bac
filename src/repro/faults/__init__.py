"""FaultLab: declarative, seed-deterministic fault injection.

A :class:`FaultPlan` (typed list of scheduled faults) plus a seed
replays bit-identically; a :class:`FaultInjector` realises a plan for
one job layout.  See ``docs/faults.md`` for the schema, the determinism
contract, and the retry/backoff semantics, and
``python -m repro faults --help`` for the plan tooling CLI.
"""

from repro.faults.inject import FaultInjector
from repro.faults.plan import (
    ARRIVAL_PATTERNS,
    FAULT_KINDS,
    ArrivalSkew,
    FaultPlan,
    LinkDegrade,
    LinkOutage,
    NodeSlowdown,
    Straggler,
)

__all__ = [
    "ARRIVAL_PATTERNS",
    "FAULT_KINDS",
    "ArrivalSkew",
    "FaultInjector",
    "FaultPlan",
    "LinkDegrade",
    "LinkOutage",
    "NodeSlowdown",
    "Straggler",
]
