"""DPML-based ``MPI_Reduce`` (the paper's future work, Section 8).

"We would like to explore the possibilities of exploiting DPML
approach for other blocking and non-blocking collectives as well."

The rooted reduce runs DPML's phases 1-2 (partition copies into the
leaders' shared memory, parallel intra-node combines) on the phase
generators of :mod:`repro.core.dpml`, then replaces phase 3's allreduce
with ``l`` concurrent *inter-node reduces* rooted at the leaders on the
root's node; phase 4 is the fan-out read by the root alone.  Compared
to the classic binomial reduce this parallelises both the combine work
(over ``l`` cores per node) and the inter-node traffic (over ``l``
concurrent trees of ``n / l`` bytes).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.dpml import (
    PhaseState,
    phase_copy_in,
    phase_copy_out,
    phase_reduce,
    publish,
)
from repro.core.leaders import get_leader_plan
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload

__all__ = ["reduce_dpml"]


def reduce_dpml(
    comm,
    payload: Payload,
    op: ReduceOp,
    root: int = 0,
    tag_base: int = 0,
    leaders: int = 4,
    inter_algorithm: Optional[str] = None,
) -> Generator:
    """Multi-leader reduce; the result lands at ``root`` only."""
    from repro.mpi.collectives.registry import resolve_collective

    plan = yield from get_leader_plan(comm, leaders)
    inter = resolve_collective("reduce", inter_algorithm or "binomial", comm)

    if plan.n_nodes == comm.size:
        # One rank per node: plain inter-node reduce.
        result = yield from inter(comm, payload, op, root=root, tag_base=tag_base)
        return result

    st = PhaseState(comm, payload, op, tag_base, plan)
    yield from phase_copy_in(st)

    if plan.is_leader:
        reduced = yield from phase_reduce(st)
        # Phase 3: inter-node reduce rooted at the root node's leader j.
        # The leader communicator was built with key=node, so its rank
        # order follows the sorted node ids.
        root_leader = comm.layout.nodes.index(comm.layout.node[root])
        result_j = yield from inter(
            plan.leader_comm, reduced, op, root=root_leader, tag_base=tag_base
        )
        if plan.leader_comm.rank == root_leader:
            publish(st, result_j)

    # Phase 4: only the root reassembles.
    if comm.rank != root:
        return None
    yield comm.machine.flag_sync()
    result = yield from phase_copy_out(st, readers=1)
    return result
