"""Fault tolerance: failure detection, leader failover, degraded mode.

PR 5 made failures *observable* (``repro.faults`` injects them, the
transport retries, exhaustion aborts the job).  This package makes them
*recoverable*: a deterministic failure detector turns exhausted retries
and heartbeat timeouts into node suspicions, ULFM-style
``revoke``/``shrink``/``agree`` primitives rebuild a survivor
communicator, and the runtime restarts the job from the last completed
collective boundary on the shrunk world — all governed by a frozen,
hashable :class:`RecoveryPolicy`.

Entry points:

* ``run_job(..., recovery=RecoveryPolicy())`` — attach the layer to a
  job (also accepted by :class:`~repro.mpi.runtime.SimSession` and the
  bench harness).
* :func:`~repro.resilience.soak.soak` /
  ``python -m repro resilience soak`` — the seeded chaos harness
  asserting recover-or-abort on every scenario.
"""

from repro.resilience.detector import FailureDetector
from repro.resilience.manager import RecoveryManager, as_manager
from repro.resilience.policy import RecoveryPolicy
from repro.resilience.soak import canonical_json, isolation_plan, soak

__all__ = [
    "FailureDetector",
    "RecoveryManager",
    "RecoveryPolicy",
    "as_manager",
    "canonical_json",
    "isolation_plan",
    "soak",
]
