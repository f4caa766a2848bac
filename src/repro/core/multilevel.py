"""Two-level (socket-aware) DPML variant — and why the paper is right
to avoid it.

Section 3 argues that because shared memory sustains many concurrent
copies, "shallow hierarchies with small depth and large number of
children per parent would be better than deeper hierarchies with small
number of children".  This module implements the deeper alternative so
the claim can be tested rather than assumed:

* **level 1**: within each socket, ranks deposit their partitions with
  *socket sub-leaders* (one per partition per socket), which combine
  the socket's contributions;
* **level 2**: the node leaders combine the per-socket partials
  (one extra inter-socket copy + combine per partition);
* **levels 3-4**: the usual DPML inter-node allreduce and fan-out.

Compared to flat DPML this halves the number of deposits each leader
polls but adds a full extra synchronisation/copy/combine level; the
ablation benchmark (``benchmarks/bench_ablation_multilevel.py``) shows
flat DPML winning across the size range on the paper's machines —
reproducing the Section 3 design argument.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.leaders import get_leader_plan
from repro.core.phases import AllreduceAlgorithm
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, reduce_payloads

__all__ = ["DPML_MULTILEVEL", "allreduce_dpml_multilevel"]


def allreduce_dpml_multilevel(
    comm,
    payload: Payload,
    op: ReduceOp,
    tag_base: int = 0,
    leaders: int = 4,
    inter_algorithm: Optional[str] = None,
) -> Generator:
    """DPML with an extra per-socket reduction level."""
    machine = comm.machine
    plan = yield from get_leader_plan(comm, leaders)

    if plan.n_nodes == comm.size:
        result = yield from comm.allreduce(
            payload, op, algorithm=inter_algorithm or "flat_auto"
        )
        return result

    ell = plan.leaders
    me = comm.world_rank
    region = comm.runtime.shm_region(plan.node)
    ctx = comm.group.context
    parts = payload.split(ell)
    my_loc = machine.loc(me)
    ppn = plan.ppn

    # The first rank of each socket group acts as that socket's
    # sub-leader for every partition.
    socket_ranks = comm.layout.socket_ranks
    my_socket_members = socket_ranks[(plan.node, my_loc.socket)]
    my_socket_pos = my_socket_members.index(comm.rank)
    i_am_sub_leader = my_socket_pos == 0

    # --- Level 1a: deposit each partition with the socket sub-leader
    # (never crosses a socket).
    for j in range(ell):
        yield from machine.shm_copy(me, parts[j].nbytes, cross_socket=False)
        region.put(
            (ctx, tag_base, "sock", my_loc.socket, j, my_socket_pos), parts[j]
        )

    # --- Level 1b: sub-leaders combine their socket's contributions and
    # hand one partial per partition to the node leader.
    if i_am_sub_leader:
        members = len(my_socket_members)
        for j in range(ell):
            gathered = []
            for pos in range(members):
                part = yield region.take(
                    (ctx, tag_base, "sock", my_loc.socket, j, pos)
                )
                gathered.append(part)
            yield from machine.gather_sync(me, members)
            if members > 1:
                yield from machine.compute(
                    me, gathered[0].nbytes, combines=members - 1
                )
            partial = reduce_payloads(gathered, op)
            # Forward to the node leader (cross-socket for one socket).
            leader_world = comm.translate(plan.node_ranks[j])
            cross = machine.loc(leader_world).socket != my_loc.socket
            yield from machine.shm_copy(me, partial.nbytes, cross_socket=cross)
            region.put((ctx, tag_base, "in", j, my_loc.socket), partial)

    if plan.is_leader:
        j = plan.leader_index
        sockets = sorted(sock for node, sock in socket_ranks if node == plan.node)
        gathered = []
        for sock in sockets:
            part = yield region.take((ctx, tag_base, "in", j, sock))
            gathered.append(part)
        yield from machine.gather_sync(me, len(sockets))
        if len(sockets) > 1:
            yield from machine.compute(
                me, gathered[0].nbytes, combines=len(sockets) - 1
            )
        reduced = reduce_payloads(gathered, op)

        result_j = yield from plan.leader_comm.allreduce(
            reduced, op, algorithm=inter_algorithm or "flat_auto"
        )
        region.put((ctx, tag_base, "out", j), result_j)

    # --- Fan-out: identical to flat DPML.
    yield from machine.flag_sync()
    outs = []
    for j in range(ell):
        leader_world = comm.translate(plan.node_ranks[j])
        cross = machine.loc(leader_world).socket != my_loc.socket
        result_j = yield region.read((ctx, tag_base, "out", j), readers=ppn)
        yield from machine.shm_copy(me, result_j.nbytes, cross_socket=cross)
        outs.append(result_j)
    return region.concat(outs)


DPML_MULTILEVEL = AllreduceAlgorithm(
    "dpml_multilevel", allreduce_dpml_multilevel,
    exempt="socket-aware multilevel layout outside Table 1",
)
