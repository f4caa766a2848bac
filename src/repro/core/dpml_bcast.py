"""DPML-based ``MPI_Bcast`` (the paper's future work, Section 8).

The mirror image of the multi-leader reduce: the root partitions its
vector into ``l`` pieces and deposits them with its node's leaders
(phase 1); leader ``j`` of the root node then runs an inter-node
broadcast of partition ``j`` to leader ``j`` of every other node over
its leader communicator (phase 3 — there is no compute phase); finally
every rank copies the ``l`` partitions out of its node's shared memory
(phase 4).  The inter-node traffic is ``l`` concurrent trees of
``n / l`` bytes instead of one tree of ``n`` bytes.

:func:`bcast_work` declares the node steps (phase 1 on the root alone;
the root-node leaders take their partition in place); only the rooted
phase 3 lives here.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.dpml import FLAG, NodeStep, NodeWork, dpml_work, run_dpml
from repro.payload.payload import Payload

__all__ = ["bcast_dpml", "bcast_work"]


def bcast_work(plan, root: int) -> NodeWork:
    """The root deposits its partitions with its node's leaders; leader
    ``j`` there takes partition ``j`` without a copy and posts a flag;
    every leader publishes its phase-3 result and every rank reads the
    ``l`` results back, as in DPML."""
    copy_in, _, publish, copy_out = dpml_work(plan)
    if plan.rank != root:
        copy_in = ()
    j = plan.leader_index
    reduce = ()
    if j is not None and plan.node == plan.layout.node[root]:
        source = ("in", j, plan.node_ranks.index(root))
        reduce = (NodeStep(j, source, readers=1), FLAG)
    return NodeWork(copy_in, reduce, publish, copy_out)


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

    inter = resolve_collective("bcast", inter_algorithm or "binomial", comm)
    root_leader = comm.layout.nodes.index(comm.layout.node[root])

    def phase3(leader_comm, part, _op):
        return inter(leader_comm, part, root=root_leader, tag_base=tag_base)

    def flat(comm, payload, _op):  # one rank per node: a plain bcast
        return inter(comm, payload, root=root, tag_base=tag_base)

    return run_dpml(
        comm, payload, None, tag_base, leaders, None, phase3,
        lambda plan: bcast_work(plan, root), flat,
    )
