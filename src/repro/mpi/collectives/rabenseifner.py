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
into the record's schedule, one list on ``pof2`` blocks, which
:func:`~repro.mpi.collectives.base.run_schedule` runs.  Chunk
boundaries follow :func:`~repro.payload.payload.split_bounds`, so any
vector length works (including lengths smaller than ``p``).
"""

from __future__ import annotations

from repro.core.phases import AllreduceAlgorithm
from repro.mpi.collectives.allgather import doubling_rounds
from repro.mpi.collectives.base import Schedule, folded, pof2_below
from repro.mpi.collectives.reduce_scatter import halving_rounds

__all__ = ["RABENSEIFNER", "rabenseifner_schedule"]


def _halving_doubling(n: int, i: int, rem: int) -> list:
    # Doubling tags disjoint from the halving rounds.
    return halving_rounds(n, i, rem) + doubling_rounds(n, i, rem, tag=32)


def rabenseifner_schedule(p: int, rank: int) -> Schedule:
    """Rank ``rank``'s schedule over ``pof2_below(p)`` blocks: fold,
    halving, doubling, unfold."""
    pof2 = pof2_below(p)
    return Schedule(folded(p, rank, pof2, _halving_doubling), pof2)


RABENSEIFNER = AllreduceAlgorithm(
    "rabenseifner", schedule=rabenseifner_schedule,
    exempt="pow2-fold phase structure not covered by Eq. 1-7",
)
