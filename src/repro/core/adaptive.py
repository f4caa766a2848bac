"""Online adaptive algorithm selection.

The paper tunes DPML *offline* ("we performed empirical evaluation of
different configurations ... and chose the best configuration for each
message size").  Production MPI libraries increasingly do this *online*
instead: try the candidate configurations on the first calls of each
message-size class, then lock in the winner for the rest of the run.

:func:`allreduce_adaptive` implements that: per power-of-two size
bucket it cycles through the candidate configurations (one per call),
*agrees* on each candidate's cost via an 8-byte MAX-allreduce of the
locally observed latency (all ranks must pick the same winner or the
job would deadlock on mismatched algorithms), and afterwards always
uses the fastest.  Registered as ``algorithm="adaptive"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence

import numpy as np

from repro.core.phases import AllreduceAlgorithm
from repro.payload.ops import MAX, ReduceOp
from repro.payload.payload import DataPayload, Payload

__all__ = ["ADAPTIVE", "allreduce_adaptive", "AdaptiveState", "DEFAULT_CANDIDATES"]

#: (algorithm, kwargs) configurations the explorer tries, in order.
#: The DPML leader ladder comes first (the paper's own tuning axis),
#: then the classic flat baselines, then the literature families
#: (:mod:`repro.mpi.collectives.dualroot` / ``optimal_rsag`` /
#: ``generalized``) so the selector can beat DPML with a competing
#: design when the topology favours one.
DEFAULT_CANDIDATES: tuple[tuple[str, dict], ...] = (
    ("dpml", {"leaders": 1}),
    ("dpml", {"leaders": 4}),
    ("dpml", {"leaders": 16}),
    ("rabenseifner", {}),
    ("recursive_doubling", {}),
    ("dualroot_pipelined", {}),
    ("optimal_rsag", {}),
    ("generalized", {}),
)


@dataclass
class AdaptiveState:
    """Exploration state of one (communicator, size-bucket) pair."""

    candidates: Sequence[tuple[str, dict]]
    agreed_costs: list[float] = field(default_factory=list)
    locked: Optional[int] = None  #: index of the winner once decided

    @property
    def exploring(self) -> bool:
        """Whether unexplored candidates remain."""
        return self.locked is None

    def next_candidate(self) -> int:
        """Index of the configuration to run on this call."""
        if self.locked is not None:
            return self.locked
        return len(self.agreed_costs)

    def record(self, agreed_cost: float) -> None:
        """Store one candidate's agreed cost; lock when all are in."""
        self.agreed_costs.append(agreed_cost)
        if len(self.agreed_costs) == len(self.candidates):
            self.locked = int(np.argmin(self.agreed_costs))


def allreduce_adaptive(
    comm,
    payload: Payload,
    op: ReduceOp,
    tag_base: int = 0,
    candidates: Optional[Sequence[tuple[str, dict]]] = None,
) -> Generator:
    """Allreduce with online per-size-bucket algorithm selection.

    On a degraded communicator (a recovery manager has confirmed dead
    nodes) exploration is skipped entirely and the policy's
    topology-agnostic ``fallback_algorithm`` runs instead: tuned
    crossover points and DPML/SHArP leader layouts were learned for the
    healthy topology, and the shrunk one may not even be homogeneous.
    The decision is logged once per communicator context in
    ``JobResult.counters["resilience"]["fallbacks"]``.
    """
    from repro.mpi.collectives.registry import resolve_allreduce

    manager = getattr(comm.runtime, "recovery", None)
    if manager is not None and manager.degraded:
        name = manager.policy.fallback_algorithm
        manager.record_fallback("adaptive", name, comm.group.context)
        fn = resolve_allreduce(name, comm)
        result = yield from fn(comm, payload, op, tag_base=tag_base)
        return result

    candidates = tuple(candidates or DEFAULT_CANDIDATES)
    bucket = payload.nbytes.bit_length()
    key = (
        "adaptive",
        bucket,
        tuple((name, tuple(sorted(kw.items()))) for name, kw in candidates),
    )
    state: AdaptiveState = comm.cache.get(key)
    if state is None:
        state = AdaptiveState(candidates=candidates)
        comm.cache[key] = state

    idx = state.next_candidate()
    name, kwargs = candidates[idx]
    fn = resolve_allreduce(name, comm)

    t0 = comm.now
    result = yield from fn(comm, payload, op, tag_base=tag_base, **kwargs)
    local_cost = comm.now - t0

    if state.exploring:
        # Agree on the candidate's cost (max across ranks) through a
        # fixed, self-contained algorithm so every rank locks in the
        # same winner.
        cost_payload = DataPayload(np.array([local_cost]))
        agreed = yield from comm.allreduce(
            cost_payload, MAX, algorithm="recursive_doubling"
        )
        state.record(float(agreed.array[0]))
    return result


ADAPTIVE = AllreduceAlgorithm(
    "adaptive", allreduce_adaptive,
    exempt="online selector: its cost is whichever candidate wins",
    stateful=True,
)
