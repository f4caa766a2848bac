"""Declarative fault plans: resilience experiments as data.

Every simulated cluster in this repo is perfectly healthy by default —
uniform links, instant process arrival, no stragglers.  Real clusters
are not: Proficz (arXiv:1804.05349) shows allreduce latency collapsing
under imbalanced process arrival patterns (PAPs), and the paper's DPML
design is precisely about hiding intra- and inter-node imbalance behind
multiple leaders.  A :class:`FaultPlan` makes that imbalance a
first-class, reproducible input: a typed list of scheduled faults that,
together with a seed, replays bit-identically.

Fault vocabulary
----------------
* :class:`Straggler` — one rank's reduction compute slows down by a
  multiplicative factor inside a time window (OS noise, thermal
  throttling, a co-scheduled job);
* :class:`ArrivalSkew` — PAP-style staggered process starts,
  parameterised like Proficz's patterns (``sorted``/``reverse`` linear
  ramps, seeded ``random``/``exponential`` draws, ``single`` late rank);
* :class:`LinkDegrade` — latency and/or bandwidth multipliers on
  specific (or wildcarded) topology edges for a time window (adaptive
  rerouting, a flapping cable renegotiating rate);
* :class:`LinkOutage` — transient send failures on an edge; the
  transport retries with capped exponential backoff (the plan's
  ``retry_limit`` / ``backoff_base`` / ``backoff_cap``) and surfaces
  :class:`~repro.errors.MPIError` only once retries exhaust;
* :class:`NodeSlowdown` — every rank on one node computes and copies
  slower inside a window (memory-bandwidth theft, power capping).

Determinism contract
--------------------
A plan is pure data (frozen dataclasses, canonical JSON round-trip,
content hash).  Randomness enters only when a plan is *realised* into a
:class:`~repro.faults.inject.FaultInjector` for a concrete layout: the
injector draws every stochastic quantity (random/exponential arrival
delays) from one ``numpy`` generator seeded with the realisation seed,
in plan order.  ``(plan, seed)`` therefore replays bit-identically, and
re-realising (session reuse) restores the exact same schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Union

from repro import canonical
from repro.errors import FaultError

__all__ = [
    "Straggler",
    "ArrivalSkew",
    "LinkDegrade",
    "LinkOutage",
    "NodeSlowdown",
    "FaultPlan",
    "FAULT_KINDS",
    "ARRIVAL_PATTERNS",
]

#: Arrival-skew patterns (Proficz-style PAP shapes).
ARRIVAL_PATTERNS = ("sorted", "reverse", "random", "exponential", "single")


def _check_window(kind: str, start: float, duration: Optional[float]) -> None:
    if start < 0:
        raise FaultError(f"{kind}: start must be non-negative, got {start}")
    if duration is not None and duration <= 0:
        raise FaultError(
            f"{kind}: duration must be positive (or None for open-ended), "
            f"got {duration}"
        )


def _window_end(start: float, duration: Optional[float]) -> float:
    return math.inf if duration is None else start + duration


class _Fault:
    """A fault's JSON object is its fields plus its ``kind`` tag."""

    kind: ClassVar[str]

    def to_dict(self) -> dict:
        return {"kind": self.kind, **canonical.fields_dict(self)}


@dataclass(frozen=True)
class Straggler(_Fault):
    """One rank's reduction compute runs ``factor`` x slower in a window."""

    kind: ClassVar[str] = "straggler"

    rank: int
    factor: float
    start: float = 0.0
    duration: Optional[float] = None  #: None = until the job ends

    def __post_init__(self):
        if self.rank < 0:
            raise FaultError(f"straggler: rank must be >= 0, got {self.rank}")
        if self.factor < 1.0:
            raise FaultError(
                f"straggler: factor must be >= 1 (a slowdown), got {self.factor}"
            )
        _check_window("straggler", self.start, self.duration)

    def describe(self) -> str:
        until = "end" if self.duration is None else f"t={self.start + self.duration:g}"
        return (
            f"straggler: rank {self.rank} computes {self.factor:g}x slower "
            f"from t={self.start:g} to {until}"
        )


@dataclass(frozen=True)
class ArrivalSkew(_Fault):
    """Staggered process starts (process arrival pattern imbalance).

    ``magnitude`` is the skew scale in simulated seconds; ``pattern``
    picks the shape:

    * ``sorted`` — linear ramp, rank ``r`` delayed ``magnitude * r/(R-1)``;
    * ``reverse`` — the mirrored ramp (last rank starts first);
    * ``random`` — per-rank uniform draw from ``[0, magnitude]`` (seeded);
    * ``exponential`` — per-rank exponential draw with mean ``magnitude``
      (seeded) — Proficz's heavy-tailed arrival shape;
    * ``single`` — only one rank (``rank``, default the last) is delayed
      by the full ``magnitude``.
    """

    kind: ClassVar[str] = "arrival-skew"

    magnitude: float
    pattern: str = "sorted"
    rank: Optional[int] = None  #: the late rank for ``pattern="single"``

    def __post_init__(self):
        if self.magnitude < 0:
            raise FaultError(
                f"arrival-skew: magnitude must be non-negative, got {self.magnitude}"
            )
        if self.pattern not in ARRIVAL_PATTERNS:
            raise FaultError(
                f"arrival-skew: unknown pattern {self.pattern!r}; choose from "
                f"{ARRIVAL_PATTERNS}"
            )
        if self.rank is not None and self.rank < 0:
            raise FaultError(f"arrival-skew: rank must be >= 0, got {self.rank}")
        if self.rank is not None and self.pattern != "single":
            raise FaultError(
                "arrival-skew: rank only applies to pattern='single'"
            )

    def describe(self) -> str:
        who = f" (rank {self.rank})" if self.rank is not None else ""
        return (
            f"arrival-skew: {self.pattern}{who} pattern, up to "
            f"{self.magnitude:g}s of start delay"
        )


@dataclass(frozen=True)
class LinkDegrade(_Fault):
    """Latency/bandwidth multipliers on a topology edge for a window.

    ``src``/``dst`` are *node* indices; ``None`` wildcards that side, so
    ``LinkDegrade(src=None, dst=3, ...)`` degrades everything flowing
    into node 3.  ``latency_factor`` multiplies the wire latency;
    ``bandwidth_factor`` divides the effective link bandwidth (i.e.
    multiplies every chunk's NIC/link service time).
    """

    kind: ClassVar[str] = "link-degrade"

    src: Optional[int] = None
    dst: Optional[int] = None
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    start: float = 0.0
    duration: Optional[float] = None

    def __post_init__(self):
        for name in ("src", "dst"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise FaultError(f"link-degrade: {name} must be >= 0, got {value}")
        if self.latency_factor < 1.0:
            raise FaultError(
                f"link-degrade: latency_factor must be >= 1, got "
                f"{self.latency_factor}"
            )
        if not (0.0 < self.bandwidth_factor <= 1.0):
            raise FaultError(
                f"link-degrade: bandwidth_factor must be in (0, 1], got "
                f"{self.bandwidth_factor}"
            )
        if self.latency_factor == 1.0 and self.bandwidth_factor == 1.0:
            raise FaultError("link-degrade: degrades nothing (both factors 1)")
        _check_window("link-degrade", self.start, self.duration)

    @property
    def service_factor(self) -> float:
        """Multiplier applied to per-chunk service times."""
        return 1.0 / self.bandwidth_factor

    def describe(self) -> str:
        edge = f"{'*' if self.src is None else self.src}->" \
               f"{'*' if self.dst is None else self.dst}"
        until = "end" if self.duration is None else f"t={self.start + self.duration:g}"
        return (
            f"link-degrade: edge {edge} latency x{self.latency_factor:g}, "
            f"bandwidth x{self.bandwidth_factor:g} from t={self.start:g} to {until}"
        )


@dataclass(frozen=True)
class LinkOutage(_Fault):
    """Transient send failures on an edge inside a time window.

    While the window is active, every message trying to enter the edge
    fails; the transport retries with the plan's capped exponential
    backoff.  A ``duration`` of ``None`` models a permanent outage —
    retries are guaranteed to exhaust and the send surfaces
    :class:`~repro.errors.MPIError` (plus a ``fault-retries-exhausted``
    sanitizer report on sanitized runs).
    """

    kind: ClassVar[str] = "link-outage"

    src: Optional[int] = None
    dst: Optional[int] = None
    start: float = 0.0
    duration: Optional[float] = None

    def __post_init__(self):
        for name in ("src", "dst"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise FaultError(f"link-outage: {name} must be >= 0, got {value}")
        _check_window("link-outage", self.start, self.duration)

    @property
    def end(self) -> float:
        """Window end (``inf`` for a permanent outage)."""
        return _window_end(self.start, self.duration)

    def describe(self) -> str:
        edge = f"{'*' if self.src is None else self.src}->" \
               f"{'*' if self.dst is None else self.dst}"
        until = "forever" if self.duration is None else f"for {self.duration:g}s"
        return f"link-outage: edge {edge} down from t={self.start:g} {until}"


@dataclass(frozen=True)
class NodeSlowdown(_Fault):
    """Every rank on one node computes and copies slower in a window."""

    kind: ClassVar[str] = "node-slowdown"

    node: int
    factor: float
    start: float = 0.0
    duration: Optional[float] = None

    def __post_init__(self):
        if self.node < 0:
            raise FaultError(f"node-slowdown: node must be >= 0, got {self.node}")
        if self.factor < 1.0:
            raise FaultError(
                f"node-slowdown: factor must be >= 1 (a slowdown), got "
                f"{self.factor}"
            )
        _check_window("node-slowdown", self.start, self.duration)

    def describe(self) -> str:
        until = "end" if self.duration is None else f"t={self.start + self.duration:g}"
        return (
            f"node-slowdown: node {self.node} runs {self.factor:g}x slower "
            f"from t={self.start:g} to {until}"
        )


#: Any concrete fault.
Fault = Union[Straggler, ArrivalSkew, LinkDegrade, LinkOutage, NodeSlowdown]

#: kind string -> fault class (the closed schema vocabulary).
FAULT_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (Straggler, ArrivalSkew, LinkDegrade, LinkOutage, NodeSlowdown)
}


def _fault_from_dict(data) -> Fault:
    if not isinstance(data, dict):
        raise FaultError(f"fault must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    cls = FAULT_KINDS.get(kind)
    if cls is None:
        raise FaultError(
            f"unknown fault kind {kind!r}; choose from {sorted(FAULT_KINDS)}"
        )
    rest = {k: v for k, v in data.items() if k != "kind"}
    return canonical.build(cls, rest, FaultError, f"fault {kind!r}")


@dataclass(frozen=True)
class FaultPlan(canonical.JsonRecord):
    """A typed, ordered list of scheduled faults plus the retry policy.

    The plan is pure data: frozen, hashable, picklable, and JSON
    round-trippable (:meth:`to_dict` / :meth:`from_dict`), so it can sit
    inside a :class:`~repro.bench.spec.SweepSpec` and contribute to its
    content hash.  Realise it for a concrete layout with
    :meth:`~repro.faults.inject.FaultInjector.for_machine` (or the
    ``faults=`` arguments threaded through ``run_job`` /
    ``SimSession.run`` / ``allreduce_latency``).

    ``retry_limit``/``backoff_base``/``backoff_cap`` govern how the
    transport survives :class:`LinkOutage`: on each failed attempt the
    sender waits ``min(backoff_cap, backoff_base * 2**attempt)`` and
    retries, up to ``retry_limit`` retries before raising
    :class:`~repro.errors.MPIError`.
    """

    faults: tuple[Fault, ...] = field(default_factory=tuple)
    retry_limit: int = 6
    backoff_base: float = 1e-6
    backoff_cap: float = 1e-4

    noun = "fault plan"
    error = FaultError

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if type(fault) not in FAULT_KINDS.values():
                raise FaultError(
                    f"not a fault: {fault!r} (expected one of "
                    f"{sorted(FAULT_KINDS)})"
                )
        if self.retry_limit < 0:
            raise FaultError(
                f"retry_limit must be >= 0, got {self.retry_limit}"
            )
        if self.backoff_base <= 0:
            raise FaultError(
                f"backoff_base must be positive, got {self.backoff_base}"
            )
        if self.backoff_cap < self.backoff_base:
            raise FaultError(
                f"backoff_cap ({self.backoff_cap}) must be >= backoff_base "
                f"({self.backoff_base})"
            )

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    @property
    def is_empty(self) -> bool:
        """Whether the plan schedules no faults at all."""
        return not self.faults

    def of_kind(self, kind: str) -> tuple[Fault, ...]:
        """All faults of one kind string (e.g. ``"link-outage"``)."""
        if kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {kind!r}; choose from {sorted(FAULT_KINDS)}"
            )
        return tuple(f for f in self.faults if f.kind == kind)

    def max_rank_referenced(self) -> Optional[int]:
        """Largest rank index any fault names (layout sanity checks)."""
        ranks = [f.rank for f in self.faults
                 if isinstance(f, Straggler)
                 or (isinstance(f, ArrivalSkew) and f.rank is not None)]
        return max(ranks) if ranks else None

    def max_node_referenced(self) -> Optional[int]:
        """Largest node index any fault names (layout sanity checks)."""
        nodes: list[int] = []
        for f in self.faults:
            if isinstance(f, NodeSlowdown):
                nodes.append(f.node)
            elif isinstance(f, (LinkDegrade, LinkOutage)):
                nodes.extend(v for v in (f.src, f.dst) if v is not None)
        return max(nodes) if nodes else None

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"fault plan {self.plan_hash()}: {len(self.faults)} fault(s), "
            f"retry_limit={self.retry_limit}, "
            f"backoff={self.backoff_base:g}s..{self.backoff_cap:g}s"
        ]
        lines.extend(f"  - {fault.describe()}" for fault in self.faults)
        return "\n".join(lines)

    # -- (de)serialisation ---------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; validates the whole schema."""
        return canonical.build(
            cls, data, FaultError, cls.noun,
            faults=lambda raw: tuple(_fault_from_dict(f) for f in raw),
        )

    def plan_hash(self) -> str:
        """Stable content hash: equal plans inject the same faults."""
        return canonical.sha256(self.to_dict())[:12]
