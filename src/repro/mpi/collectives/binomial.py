"""Binomial-tree reduce and broadcast, plus the reduce+bcast allreduce.

``MPI_Reduce`` and ``MPI_Bcast`` over a binomial tree rooted anywhere;
combined they form the simplest (and rarely optimal) allreduce, kept
both as a baseline and as the intra-step building block other layers
reuse (e.g. the HPCG residual broadcast).  The binomial tree is the
radix-2 k-nomial tree, so both entries run
:mod:`repro.mpi.collectives.knomial` at ``radix=2``; they take no
``radix`` keyword.  The ``reduce_bcast`` record declares its schedule,
:func:`reduce_bcast_schedule`: the radix-2 up-list to rank 0 and the
down-list from it, one round list on one block, which
:func:`~repro.mpi.collectives.base.run_schedule` runs.
"""

from __future__ import annotations

from typing import Generator

from repro.core.phases import AllreduceAlgorithm
from repro.mpi.collectives.base import Schedule
from repro.mpi.collectives.knomial import (
    bcast_knomial, knomial_rounds, reduce_knomial,
)
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload

__all__ = [
    "REDUCE_BCAST",
    "reduce_binomial",
    "bcast_binomial",
    "reduce_bcast_schedule",
]


def reduce_binomial(
    comm, payload: Payload, op: ReduceOp, root: int = 0, tag_base: int = 0
) -> Generator:
    """Binomial-tree reduce; returns the result at ``root``, None elsewhere."""
    result = yield from reduce_knomial(
        comm, payload, op, root=root, tag_base=tag_base, radix=2
    )
    return result


def bcast_binomial(
    comm, payload: Payload | None, root: int = 0, tag_base: int = 0
) -> Generator:
    """Binomial-tree broadcast of ``payload`` from ``root``."""
    result = yield from bcast_knomial(
        comm, payload, root=root, tag_base=tag_base, radix=2
    )
    return result


def reduce_bcast_schedule(p: int, rank: int) -> Schedule:
    """Rank ``rank``'s schedule: binomial reduce to rank 0 (tag 3),
    then binomial bcast from it (tag 8)."""
    return Schedule(knomial_rounds(p, rank, 0, 2, 3, True)
                    + knomial_rounds(p, rank, 0, 2, 8, False))


REDUCE_BCAST = AllreduceAlgorithm(
    "reduce_bcast", schedule=reduce_bcast_schedule,
    exempt="reduce+bcast tree composition has no closed form",
)
