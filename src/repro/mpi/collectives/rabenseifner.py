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
(:func:`~repro.mpi.collectives.reduce_scatter.halving_rounds`,
:func:`~repro.mpi.collectives.allgather.doubling_rounds`), run over
the folded participants; this module only concatenates their rounds
into one list for :func:`~repro.mpi.collectives.base.run_rounds`.  Chunk
boundaries follow :func:`~repro.payload.payload.split_bounds`, so any
vector length works (including lengths smaller than ``p``).
"""

from __future__ import annotations

from typing import Generator

from repro.core.phases import AllreduceAlgorithm
from repro.mpi.collectives.allgather import doubling_rounds
from repro.mpi.collectives.base import folded, pof2_below, run_rounds
from repro.mpi.collectives.reduce_scatter import halving_rounds
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, split_bounds

__all__ = ["RABENSEIFNER", "allreduce_rabenseifner", "rabenseifner_rounds"]


def _halving_doubling(n: int, i: int, rem: int) -> list:
    # Doubling tags disjoint from the halving rounds.
    return halving_rounds(n, i, rem) + doubling_rounds(n, i, rem, tag=32)


def rabenseifner_rounds(p: int, rank: int) -> list:
    """Rank ``rank``'s rounds over ``pof2_below(p)`` blocks: fold,
    halving, doubling, unfold."""
    return folded(p, rank, pof2_below(p), _halving_doubling)


def allreduce_rabenseifner(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """Allreduce via reduce-scatter + allgather; any process count."""
    p = comm.size
    if p == 1:
        return payload.copy()
    pof2 = pof2_below(p)
    result = yield from run_rounds(
        comm, rabenseifner_rounds(p, comm.rank), payload, op, tag_base,
        bounds=split_bounds(payload.count, pof2), held=(0, pof2),
    )
    return result


RABENSEIFNER = AllreduceAlgorithm(
    "rabenseifner", allreduce_rabenseifner,
    exempt="pow2-fold phase structure not covered by Eq. 1-7",
)
