"""DPML-based ``MPI_Bcast`` (the paper's future work, Section 8).

The mirror image of the multi-leader reduce: the root partitions its
vector into ``l`` pieces and deposits them with its node's leaders
(phase 1); leader ``j`` of the root node then runs an inter-node
broadcast of partition ``j`` to leader ``j`` of every other node over
its leader communicator (phase 3 — there is no compute phase); finally
every rank copies the ``l`` partitions out of its node's shared memory
(phase 4).  The inter-node traffic is ``l`` concurrent trees of
``n / l`` bytes instead of one tree of ``n`` bytes.
"""

from __future__ import annotations

from typing import Generator, Optional

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

    machine = comm.machine
    plan = yield from get_leader_plan(comm, leaders)
    root_node = machine.node_of(comm.translate(root))

    if plan.n_nodes == comm.size:
        fn = resolve_collective("bcast", inter_algorithm or "binomial", comm)
        result = yield from fn(comm, payload, root=root, tag_base=tag_base)
        return result

    ell = plan.leaders
    me = comm.world_rank
    region = comm.runtime.shm_region(plan.node)
    ctx = comm.group.context
    my_loc = machine.loc(me)
    ppn = plan.ppn

    # Phase 1 (root only): deposit each partition with its leader on
    # the root's node.
    if comm.rank == root:
        parts = payload.split(ell)
        for j in range(ell):
            leader_world = comm.translate(plan.node_ranks[j])
            cross = machine.loc(leader_world).socket != my_loc.socket
            yield machine.shm_copy(me, parts[j].nbytes, cross_socket=cross)
            region.put((ctx, tag_base, "root-in", j), parts[j])

    if plan.is_leader:
        j = plan.leader_index
        leader_comm = plan.leader_comm
        root_leader = comm.layout.nodes.index(root_node)
        if leader_comm.rank == root_leader:
            part_j = yield region.take((ctx, tag_base, "root-in", j))
            yield machine.flag_sync()
        else:
            part_j = None
        fn = resolve_collective("bcast", inter_algorithm or "binomial", comm)
        part_j = yield from fn(
            leader_comm, part_j, root=root_leader, tag_base=tag_base
        )
        region.put((ctx, tag_base, "out", j), part_j)

    # Phase 4: everyone copies the partitions out.
    yield machine.flag_sync()
    outs = []
    for j in range(ell):
        leader_world = comm.translate(plan.node_ranks[j])
        cross = machine.loc(leader_world).socket != my_loc.socket
        part_j = yield region.read((ctx, tag_base, "out", j), readers=ppn)
        yield machine.shm_copy(me, part_j.nbytes, cross_socket=cross)
        outs.append(part_j)
    return region.concat(outs)
