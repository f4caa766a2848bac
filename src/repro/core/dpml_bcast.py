"""DPML-based ``MPI_Bcast`` (the paper's future work, Section 8).

The mirror image of the multi-leader reduce: the root partitions its
vector into ``l`` pieces and deposits them with its node's leaders
(phase 1); leader ``j`` of the root node then runs an inter-node
broadcast of partition ``j`` to leader ``j`` of every other node over
its leader communicator (phase 3 — there is no compute phase); finally
every rank copies the ``l`` partitions out of its node's shared memory
(phase 4).  The inter-node traffic is ``l`` concurrent trees of
``n / l`` bytes instead of one tree of ``n`` bytes.

Phases 1 (run by the root alone) and 4 are the phase generators of
:mod:`repro.core.dpml`; only the rooted phase 3 lives here.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.dpml import PhaseState, phase_copy_in, phase_copy_out, publish
from repro.core.leaders import get_leader_plan
from repro.payload.payload import Payload

__all__ = ["bcast_dpml"]


def bcast_dpml(
    comm,
    payload: Optional[Payload],
    root: int = 0,
    tag_base: int = 0,
    leaders: int = 4,
    inter_algorithm: Optional[str] = None,
) -> Generator:
    """Multi-leader broadcast from ``root``; returns the vector everywhere."""
    from repro.mpi.collectives.registry import resolve_collective

    plan = yield from get_leader_plan(comm, leaders)
    inter = resolve_collective("bcast", inter_algorithm or "binomial", comm)

    if plan.n_nodes == comm.size:
        result = yield from inter(comm, payload, root=root, tag_base=tag_base)
        return result

    st = PhaseState(comm, payload, None, tag_base, plan)
    # Phase 1 (root only): deposit each partition with its leader on
    # the root's node.
    if comm.rank == root:
        yield from phase_copy_in(st)

    if plan.is_leader:
        root_leader = comm.layout.nodes.index(comm.layout.node[root])
        part_j = None
        if plan.leader_comm.rank == root_leader:
            part_j = yield st.region.take(
                (st.ctx, tag_base, "in", plan.leader_index,
                 plan.node_ranks.index(root))
            )
            yield comm.machine.flag_sync()
        part_j = yield from inter(
            plan.leader_comm, part_j, root=root_leader, tag_base=tag_base
        )
        publish(st, part_j)

    # Phase 4: everyone copies the partitions out.
    yield comm.machine.flag_sync()
    result = yield from phase_copy_out(st)
    return result
