"""Binomial-tree reduce and broadcast, plus the reduce+bcast allreduce.

``MPI_Reduce`` and ``MPI_Bcast`` over a binomial tree rooted anywhere;
combined they form the simplest (and rarely optimal) allreduce, kept
both as a baseline and as the intra-step building block other layers
reuse (e.g. the HPCG residual broadcast).
"""

from __future__ import annotations

from typing import Generator

from repro.core.phases import AllreduceAlgorithm
from repro.mpi.collectives.base import charged_reduce
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
    p = comm.size
    rank = comm.rank
    if p == 1:
        return payload.copy()
    rel = (rank - root) % p
    vec = payload
    mask = 1
    while mask < p:
        if rel & mask:
            parent = ((rel - mask) + root) % p
            yield from comm.send(parent, vec, tag_base + 1)
            return None
        child_rel = rel + mask
        if child_rel < p:
            child = (child_rel + root) % p
            theirs = yield from comm.recv(child, tag_base + 1)
            vec = yield from charged_reduce(comm, vec, theirs, op)
        mask <<= 1
    return vec


def bcast_binomial(
    comm, payload: Payload | None, root: int = 0, tag_base: int = 0
) -> Generator:
    """Binomial-tree broadcast of ``payload`` from ``root``."""
    p = comm.size
    rank = comm.rank
    if p == 1:
        return payload.copy()
    rel = (rank - root) % p

    # Receive from the parent unless we are the root.
    if rel != 0:
        payload = yield from comm.recv(tag=tag_base + 2)

    # Highest bit below our relative rank determines our subtree span.
    mask = 1
    while mask < p and not (rel & mask):
        mask <<= 1
    # Forward to children at decreasing distances.
    mask >>= 1
    while mask >= 1:
        child_rel = rel + mask
        if child_rel < p:
            child = (child_rel + root) % p
            yield from comm.send(child, payload, tag_base + 2)
        mask >>= 1
    return payload


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
