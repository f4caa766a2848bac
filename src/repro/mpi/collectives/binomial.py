"""Binomial-tree reduce and broadcast, plus the reduce+bcast allreduce.

``MPI_Reduce`` and ``MPI_Bcast`` over a binomial tree rooted anywhere;
combined they form the simplest (and rarely optimal) allreduce, kept
both as a baseline and as the intra-step building block other layers
reuse (e.g. the HPCG residual broadcast).  The binomial tree is the
radix-2 k-nomial tree, so both entries run
:mod:`repro.mpi.collectives.knomial` at ``radix=2``; they take no
``radix`` keyword.
"""

from __future__ import annotations

from typing import Generator

from repro.core.phases import AllreduceAlgorithm
from repro.mpi.collectives.knomial import bcast_knomial, reduce_knomial
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload

__all__ = [
    "REDUCE_BCAST",
    "reduce_binomial",
    "bcast_binomial",
    "allreduce_reduce_bcast",
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


def allreduce_reduce_bcast(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """Allreduce as binomial reduce-to-0 followed by binomial bcast."""
    reduced = yield from reduce_binomial(comm, payload, op, root=0, tag_base=tag_base)
    result = yield from bcast_binomial(comm, reduced, root=0, tag_base=tag_base + 4)
    return result


REDUCE_BCAST = AllreduceAlgorithm(
    "reduce_bcast", allreduce_reduce_bcast,
    exempt="reduce+bcast tree composition has no closed form",
)
