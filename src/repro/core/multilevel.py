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

Only the socket level lives here: :func:`multilevel_work` declares
each rank's node steps and :func:`~repro.core.dpml.run_dpml` runs them
around the usual phase 3.

Compared to flat DPML this halves the number of deposits each leader
polls but adds a full extra synchronisation/copy/combine level; the
``multilevel`` named sweep (claims ``E14b``) shows flat DPML winning
across the size range on the paper's machines — reproducing the
Section 3 design argument.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.dpml import NodeStep, NodeWork, dpml_work, flat_allreduce, run_dpml
from repro.core.phases import AllreduceAlgorithm
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload

__all__ = ["DPML_MULTILEVEL", "allreduce_dpml_multilevel", "multilevel_work"]


def multilevel_work(plan) -> NodeWork:
    """Phase 1 through the socket: every rank deposits its partitions
    with its socket's first rank (never across a socket), which combines
    the socket's deposits of each partition and forwards one partial
    per partition to the node leader.  Phase 2: leader ``j`` combines
    the per-socket partials."""
    layout, l = plan.layout, plan.leaders
    socket = layout.socket[plan.rank]
    members = layout.socket_ranks[(plan.node, socket)]
    pos = members.index(plan.rank)
    copy_in = [NodeStep(j, ("sock", j, socket, pos), False) for j in range(l)]
    if pos == 0:
        copy_in += [
            NodeStep(j, ("in", j, socket), plan.cross[j], sources=tuple([
                ("sock", j, socket, m) for m in range(len(members))
            ]))
            for j in range(l)
        ]
    j = plan.leader_index
    reduce = ()
    if j is not None:
        sockets = sorted(s for node, s in layout.socket_ranks if node == plan.node)
        reduce = (NodeStep(j, sources=tuple([("in", j, s) for s in sockets])),)
    _, _, publish, copy_out = dpml_work(plan)
    return NodeWork(tuple(copy_in), reduce, publish, copy_out)


def allreduce_dpml_multilevel(
    comm,
    payload: Payload,
    op: ReduceOp,
    tag_base: int = 0,
    leaders: int = 4,
    inter_algorithm: Optional[str] = None,
) -> Generator:
    """DPML with an extra per-socket reduction level."""
    return run_dpml(
        comm, payload, op, tag_base, leaders, "dpml_multilevel",
        flat_allreduce(inter_algorithm), multilevel_work,
    )


DPML_MULTILEVEL = AllreduceAlgorithm(
    "dpml_multilevel", allreduce_dpml_multilevel,
    exempt="socket-aware multilevel layout outside Table 1",
)
