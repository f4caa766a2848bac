"""DPML-based ``MPI_Reduce`` (the paper's future work, Section 8).

"We would like to explore the possibilities of exploiting DPML
approach for other blocking and non-blocking collectives as well."

The rooted reduce reuses DPML's phases 1-2 verbatim (partition copies
into the leaders' shared memory, parallel intra-node combines) and then
replaces phase 3's allreduce with ``l`` concurrent *inter-node reduces*
rooted at the leaders on the root's node; phase 4 degenerates to the
root copying the ``l`` fully reduced partitions out of its node's
shared memory.  Compared to the classic binomial reduce this
parallelises both the combine work (over ``l`` cores per node) and the
inter-node traffic (over ``l`` concurrent trees of ``n / l`` bytes).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.leaders import get_leader_plan
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, reduce_payloads

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

    machine = comm.machine
    plan = yield from get_leader_plan(comm, leaders)
    root_node = machine.node_of(comm.translate(root))

    if plan.n_nodes == comm.size:
        # One rank per node: plain inter-node reduce.
        fn = resolve_collective("reduce", inter_algorithm or "binomial", comm)
        result = yield from fn(comm, payload, op, root=root, tag_base=tag_base)
        return result

    ell = plan.leaders
    me = comm.world_rank
    region = comm.runtime.shm_region(plan.node)
    ctx = comm.group.context
    parts = payload.split(ell)
    my_loc = machine.loc(me)
    ppn = plan.ppn

    # Phases 1-2: identical to DPML allreduce.
    for j in range(ell):
        leader_world = comm.translate(plan.node_ranks[j])
        cross = machine.loc(leader_world).socket != my_loc.socket
        yield from machine.shm_copy(me, parts[j].nbytes, cross_socket=cross)
        region.put((ctx, tag_base, "in", j, plan.local_index), parts[j])

    if plan.is_leader:
        j = plan.leader_index
        gathered = []
        for i in range(ppn):
            part = yield region.take((ctx, tag_base, "in", j, i))
            gathered.append(part)
        yield from machine.gather_sync(me, ppn)
        if ppn > 1:
            yield from machine.compute(me, gathered[0].nbytes, combines=ppn - 1)
        reduced = reduce_payloads(gathered, op)

        # Phase 3: inter-node reduce rooted at the root node's leader j.
        # The leader communicator was built with key=node, so its rank
        # order follows the sorted node ids.
        leader_comm = plan.leader_comm
        root_leader = comm.layout.nodes.index(root_node)
        fn = resolve_collective("reduce", inter_algorithm or "binomial", comm)
        result_j = yield from fn(
            leader_comm, reduced, op, root=root_leader, tag_base=tag_base
        )
        if leader_comm.rank == root_leader:
            region_root = comm.runtime.shm_region(root_node)
            region_root.put((ctx, tag_base, "out", j), result_j)

    # Phase 4: only the root reassembles.
    if comm.rank != root:
        return None
    region_root = comm.runtime.shm_region(root_node)
    yield from machine.flag_sync()
    outs = []
    for j in range(ell):
        result_j = yield region_root.read((ctx, tag_base, "out", j), readers=1)
        leader_world = comm.translate(plan.node_ranks[j])
        cross = machine.loc(leader_world).socket != my_loc.socket
        yield from machine.shm_copy(me, result_j.nbytes, cross_socket=cross)
        outs.append(result_j)
    return region_root.concat(outs)
