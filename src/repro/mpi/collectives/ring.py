"""Ring algorithms: allreduce and scatter+allgather broadcast.

The ring allreduce runs ``p - 1`` reduce-scatter steps followed by
``p - 1`` allgather steps.  Bandwidth-optimal (each rank moves
``2n(p-1)/p`` bytes) with no power-of-two requirement; the go-to
algorithm for very large messages (and the shape popularised by
deep-learning gradient averaging, which the paper's introduction cites
as a driver of large-message allreduce).  The record declares its
schedule, :func:`ring_schedule`: both phases are
:func:`~repro.mpi.collectives.allgather.ring_rounds`, combining then
placing, one round list on the ``p`` blocks of a block list, which
:func:`~repro.mpi.collectives.base.run_schedule` runs.

:func:`bcast_scatter_ring` is the van-de-Geijn large-message broadcast:
binomial-scatter the vector, then ring-allgather the pieces with the
same :func:`~repro.mpi.collectives.allgather.ring_rounds`.
"""

from __future__ import annotations

from typing import Generator

from repro.core.phases import AllreduceAlgorithm
from repro.mpi.collectives.allgather import ring_rounds
from repro.mpi.collectives.base import (
    COMBINE, PLACE, Schedule, run_rounds, run_schedule, run_segments, segment_count,
)
from repro.mpi.collectives.gather_scatter import scatter_binomial
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, concat

__all__ = [
    "RING",
    "RING_SEGMENTED",
    "allreduce_ring_segmented",
    "bcast_scatter_ring",
    "ring_schedule",
]


def ring_schedule(p: int, rank: int) -> Schedule:
    """Rank ``rank``'s schedule on a list of ``p`` blocks: after
    reduce-scatter step s, chunk (rank - s) carries the partial sum of
    s+1 contributions; chunk (rank + 1) ends fully reduced here, and
    the allgather circulates the reduced chunks."""
    return Schedule(ring_rounds(p, rank, rank, 0, COMBINE)
                    + ring_rounds(p, rank, rank + 1, 32, PLACE), p, True)


def bcast_scatter_ring(
    comm, payload: Payload | None, root: int = 0, tag_base: int = 0
) -> Generator:
    """Van-de-Geijn broadcast: scatter from the root, ring-allgather.

    Moves ``~2n`` bytes per rank regardless of ``p`` (vs ``n lg p`` for
    the tree), which wins for large vectors.
    """
    p = comm.size
    if p == 1:
        return payload.copy()
    pieces = payload.split(p) if comm.rank == root else None
    mine = yield from scatter_binomial(comm, pieces, root=root, tag_base=tag_base)
    # Chunk sizes differ when count % p != 0, which the ring schedule
    # carries (the allgather kinds assume equal counts).
    blocks: list[Payload | None] = [None] * p
    blocks[comm.rank] = mine
    rounds = ring_rounds(p, comm.rank, comm.rank, 8, PLACE)
    yield from run_rounds(comm, rounds, blocks, tag_base=tag_base)
    return concat(blocks)


def allreduce_ring_segmented(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0,
    segment_bytes: int = 65536,
) -> Generator:
    """Segmented (pipelined) ring allreduce.

    Splits the vector into segments and runs an independent ring
    allreduce per segment with non-blocking progress, so segment ``s``'s
    allgather overlaps segment ``s+1``'s reduce-scatter — the form
    production DL stacks use for very large tensors.
    """
    p = comm.size
    if p == 1:
        return payload.copy()
    nseg = segment_count(payload.nbytes, segment_bytes, 32)
    if nseg == 1:
        result = yield from run_schedule(RING.schedule, comm, payload, op, tag_base)
        return result
    # Each segment gets its own collective tag block (allocated
    # identically on every rank), so concurrent rings never cross-match.
    result = yield from run_segments(
        comm, payload.split(nseg),
        lambda seg: comm.iallreduce(seg, op, algorithm="ring"),
    )
    return result


RING = AllreduceAlgorithm(
    "ring", schedule=ring_schedule,
    exempt="link-serialised ring schedule outside the Eq. 1-7 terms",
)
RING_SEGMENTED = AllreduceAlgorithm(
    "ring_segmented", allreduce_ring_segmented,
    exempt="link-serialised ring schedule outside Eq. 1-7",
)
