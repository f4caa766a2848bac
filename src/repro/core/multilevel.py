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

Only the socket level lives here: :func:`~repro.core.dpml.run_dpml`
runs the design with this module's phase-1 and phase-2 generators.

Compared to flat DPML this halves the number of deposits each leader
polls but adds a full extra synchronisation/copy/combine level; the
ablation benchmark (``benchmarks/bench_ablation_multilevel.py``) shows
flat DPML winning across the size range on the paper's machines —
reproducing the Section 3 design argument.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.dpml import (
    PhaseState,
    deposit,
    flat_allreduce,
    gather_combine,
    run_dpml,
)
from repro.core.phases import AllreduceAlgorithm
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload

__all__ = ["DPML_MULTILEVEL", "allreduce_dpml_multilevel"]


def _socket_copy_in(st: PhaseState) -> Generator:
    """Phase 1 through the socket: deposit with the socket sub-leader,
    which combines the socket's deposits and forwards one partial per
    partition to the node leader."""
    comm = st.comm
    socket = st.machine.loc(st.me).socket
    # The first rank of each socket group acts as that socket's
    # sub-leader for every partition.
    members = comm.layout.socket_ranks[(st.plan.node, socket)]
    pos = members.index(comm.rank)
    base = (st.ctx, st.tag_base, "sock", socket)

    # Level 1a: deposit each partition with the sub-leader (never
    # crosses a socket).
    yield from deposit(st, base, pos, (False,) * st.plan.leaders)
    if pos != 0:
        return

    # Level 1b: combine the socket's contributions and hand one partial
    # per partition to the node leader (cross-socket for one socket).
    for j in range(st.plan.leaders):
        partial = yield from gather_combine(st, (*base, j), range(len(members)))
        yield st.machine.shm_copy(st.me, partial.nbytes, cross_socket=st.cross[j])
        st.region.put(
            (st.ctx, st.tag_base, "in", j, socket), partial,
            span=((*base, "fwd"), *st.bounds[j], st.total),
        )


def _socket_reduce(st: PhaseState) -> Generator:
    """Phase 2 (leaders only): combine the per-socket partials."""
    sockets = sorted(
        sock for node, sock in st.comm.layout.socket_ranks if node == st.plan.node
    )
    return gather_combine(
        st, (st.ctx, st.tag_base, "in", st.plan.leader_index), sockets
    )


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
        flat_allreduce(inter_algorithm),
        copy_in=_socket_copy_in, reduce=_socket_reduce,
    )


DPML_MULTILEVEL = AllreduceAlgorithm(
    "dpml_multilevel", allreduce_dpml_multilevel,
    exempt="socket-aware multilevel layout outside Table 1",
)
