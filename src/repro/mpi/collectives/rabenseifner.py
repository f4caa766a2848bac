"""Rabenseifner's allreduce: reduce-scatter + allgather.

The bandwidth-optimal classic (Rabenseifner 2004, the paper's [25]):

1. fold to a power of two (full-vector exchange — a simplification of
   MPICH's halved fold; only the ``2 * rem`` edge ranks pay for it);
2. **reduce-scatter by recursive halving**: ``lg p`` rounds, each
   exchanging half of the current window with the partner and combining
   — total traffic ``n * (p-1)/p`` per rank;
3. **allgather by recursive doubling**: the same windows in reverse;
4. unfold to the idle ranks.

Steps 2 and 3 are the ``recursive_halving`` reduce-scatter and
``recursive_doubling`` allgather schedules
(:func:`~repro.mpi.collectives.reduce_scatter.reduce_scatter_halving`,
:func:`~repro.mpi.collectives.allgather.allgather_doubling`), run over
the folded participants; this module only composes them.  Chunk
boundaries follow :func:`~repro.payload.payload.split_bounds`, so any
vector length works (including lengths smaller than ``p``).
"""

from __future__ import annotations

from typing import Generator

from repro.core.phases import AllreduceAlgorithm
from repro.mpi.collectives.allgather import allgather_doubling
from repro.mpi.collectives.base import (
    IDLE,
    fold_to_pof2,
    pof2_below,
    unfold_from_pof2,
)
from repro.mpi.collectives.reduce_scatter import reduce_scatter_halving
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload

__all__ = ["RABENSEIFNER", "allreduce_rabenseifner"]


def allreduce_rabenseifner(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """Allreduce via reduce-scatter + allgather; any process count."""
    p = comm.size
    if p == 1:
        return payload.copy()
    pof2 = pof2_below(p)
    rem = p - pof2

    newrank, vec = yield from fold_to_pof2(comm, payload, op, tag_base)
    if newrank != IDLE:
        vec = yield from reduce_scatter_halving(
            comm, newrank, pof2, rem, vec, op, tag_base
        )
        # Tags disjoint from the halving rounds.
        vec = yield from allgather_doubling(
            comm, newrank, pof2, rem, vec, tag_base + 32
        )
    vec = yield from unfold_from_pof2(comm, newrank, vec, tag_base + 63)
    return vec


RABENSEIFNER = AllreduceAlgorithm(
    "rabenseifner", allreduce_rabenseifner,
    exempt="pow2-fold phase structure not covered by Eq. 1-7",
)
