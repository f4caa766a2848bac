"""Recovery policies: failure-handling behaviour as frozen data.

A :class:`RecoveryPolicy` is to the resilience layer what a
:class:`~repro.faults.plan.FaultPlan` is to the fault layer — pure,
hashable configuration.  Everything a recovering job does (how many
node failures it survives, how much evidence confirms a suspect, how
long a restart costs, which algorithm degraded communicators fall back
to) is captured here, so a ``(fault plan, recovery policy)`` pair fully
determines the recover-or-abort decision and the recovered timeline:
the chaos harness replays it bit-identically.

The schema mirrors the fault-plan idiom: frozen dataclass, closed
vocabulary validated at construction, canonical JSON round-trip, and a
content hash (:meth:`RecoveryPolicy.policy_hash`) for result records.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.canonical import JsonRecord
from repro.errors import ConfigError

__all__ = ["RecoveryPolicy"]

_FIELDS = (
    "enabled",
    "max_failovers",
    "suspect_after",
    "restart_latency",
    "heartbeat_timeout",
    "fallback_algorithm",
)


@dataclass(frozen=True)
class RecoveryPolicy(JsonRecord):
    """How a job responds to confirmed transport failures.

    Attributes
    ----------
    enabled:
        Master switch.  A disabled policy behaves exactly like no
        policy at all: retry exhaustion aborts the job with a typed
        :class:`~repro.errors.TransportError`.
    max_failovers:
        How many node failures the job survives; the next one raises
        :class:`~repro.errors.RecoveryError` (``"double-failover"``).
    suspect_after:
        Evidence threshold: a node is suspected once its incidence
        count over distinct failed edges reaches this value (the probe
        round usually settles it on the first signal — see
        :class:`~repro.resilience.detector.FailureDetector`).
    restart_latency:
        Simulated seconds charged per failover before the surviving
        ranks restart (detector confirmation, shrink negotiation, and
        collective re-setup, as one aggregate charge).
    heartbeat_timeout:
        How long a node must sit behind an active outage before the
        heartbeat monitor declares its heartbeats missed (used on the
        deadlock path, where no send ever exhausts retries).
    fallback_algorithm:
        The topology-agnostic allreduce the adaptive selector locks
        onto on degraded (post-failover) communicators.
    """

    enabled: bool = True
    max_failovers: int = 1
    suspect_after: int = 1
    restart_latency: float = 5e-4
    heartbeat_timeout: float = 5e-3
    fallback_algorithm: str = "recursive_doubling"

    noun = "recovery policy"
    error = ConfigError

    def __post_init__(self):
        if self.max_failovers < 0:
            raise ConfigError(
                f"max_failovers must be >= 0, got {self.max_failovers}"
            )
        if self.suspect_after < 1:
            raise ConfigError(
                f"suspect_after must be >= 1, got {self.suspect_after}"
            )
        if self.restart_latency < 0:
            raise ConfigError(
                f"restart_latency must be >= 0, got {self.restart_latency}"
            )
        if self.heartbeat_timeout <= 0:
            raise ConfigError(
                f"heartbeat_timeout must be positive, got "
                f"{self.heartbeat_timeout}"
            )
        if not self.fallback_algorithm or not isinstance(
            self.fallback_algorithm, str
        ):
            raise ConfigError(
                f"fallback_algorithm must be a non-empty algorithm name, "
                f"got {self.fallback_algorithm!r}"
            )

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready dict (canonical field order)."""
        return {name: getattr(self, name) for name in _FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "RecoveryPolicy":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"recovery policy must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - set(_FIELDS)
        if unknown:
            raise ConfigError(
                f"unknown recovery policy field(s): {', '.join(sorted(unknown))}"
            )
        return cls(**data)

    def policy_hash(self) -> str:
        """Stable content hash (first 12 hex chars of sha256)."""
        # Default separators, not repro.canonical: soak records carry this hash.
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def describe(self) -> str:
        """Human-readable one-paragraph summary."""
        state = "enabled" if self.enabled else "DISABLED"
        return (
            f"recovery policy [{self.policy_hash()}] ({state}): survives "
            f"{self.max_failovers} node failure(s), suspects after "
            f"{self.suspect_after} signal(s), charges "
            f"{self.restart_latency:g}s per restart, declares heartbeats "
            f"missed after {self.heartbeat_timeout:g}s, degrades to "
            f"{self.fallback_algorithm!r}"
        )
