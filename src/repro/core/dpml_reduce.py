"""DPML-based ``MPI_Reduce`` (the paper's future work, Section 8).

"We would like to explore the possibilities of exploiting DPML
approach for other blocking and non-blocking collectives as well."

The rooted reduce declares DPML's node work with two changes
(:func:`reduce_work`): only the leaders on the root's node publish,
and only the root copies the result out.  Its own code is phase 3:
``l`` concurrent *inter-node reduces* rooted at the leaders on the
root's node, in place of the allreduce.  Compared to the classic
binomial reduce this parallelises both the combine work (over ``l``
cores per node) and the inter-node traffic (over ``l`` concurrent
trees of ``n / l`` bytes).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.dpml import NodeWork, dpml_work, run_dpml
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload

__all__ = ["reduce_dpml", "reduce_work"]


def reduce_work(plan, root: int) -> NodeWork:
    """DPML's node work, published on the root's node and read by the
    root alone."""
    copy_in, reduce, publish, copy_out = dpml_work(plan)
    if plan.node != plan.layout.node[root]:
        publish = ()
    if plan.rank != root:
        copy_out = ()
    return NodeWork(copy_in, reduce, publish, tuple([
        step._replace(readers=1) for step in copy_out
    ]))


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

    inter = resolve_collective("reduce", inter_algorithm or "binomial", comm)
    # Phase 3: inter-node reduce rooted at the root node's leader j.
    # The leader communicator was built with key=node, so its rank
    # order follows the sorted node ids.
    root_leader = comm.layout.nodes.index(comm.layout.node[root])

    def phase3(leader_comm, part, op):
        return inter(leader_comm, part, op, root=root_leader, tag_base=tag_base)

    def flat(comm, payload, op):  # one rank per node: a plain reduce
        return inter(comm, payload, op, root=root, tag_base=tag_base)

    return run_dpml(
        comm, payload, op, tag_base, leaders, None, phase3,
        lambda plan: reduce_work(plan, root), flat,
    )
