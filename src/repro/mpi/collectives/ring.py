"""Ring algorithms: allreduce and scatter+allgather broadcast.

The ring allreduce runs ``p - 1`` reduce-scatter steps followed by
``p - 1`` allgather steps.  Bandwidth-optimal (each rank moves
``2n(p-1)/p`` bytes) with no power-of-two requirement; the go-to
algorithm for very large messages (and the shape popularised by
deep-learning gradient averaging, which the paper's introduction cites
as a driver of large-message allreduce).

:func:`bcast_scatter_ring` is the van-de-Geijn large-message broadcast:
binomial-scatter the vector, then ring-allgather the pieces.
"""

from __future__ import annotations

from typing import Generator

from repro.core.phases import AllreduceAlgorithm
from repro.mpi.collectives.base import charged_reduce
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, concat, split_bounds

__all__ = [
    "RING",
    "RING_SEGMENTED",
    "allreduce_ring",
    "allreduce_ring_segmented",
    "bcast_scatter_ring",
]


def allreduce_ring(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """Allreduce via ring reduce-scatter + ring allgather."""
    p = comm.size
    rank = comm.rank
    if p == 1:
        return payload.copy()

    bounds = split_bounds(payload.count, p)
    chunks = [payload.slice(a, b) for a, b in bounds]
    right = (rank + 1) % p
    left = (rank - 1) % p

    # Reduce-scatter: after step s, chunk (rank - s) carries the partial
    # sum of s+1 contributions; chunk (rank + 1) ends fully reduced here.
    for step in range(p - 1):
        send_idx = (rank - step) % p
        recv_idx = (rank - step - 1) % p
        theirs = yield from comm.sendrecv(
            right,
            chunks[send_idx],
            source=left,
            send_tag=tag_base + step % 32,
            recv_tag=tag_base + step % 32,
        )
        chunks[recv_idx] = yield from charged_reduce(
            comm, chunks[recv_idx], theirs, op
        )

    # Allgather: circulate the fully reduced chunks.
    for step in range(p - 1):
        send_idx = (rank - step + 1) % p
        recv_idx = (rank - step) % p
        theirs = yield from comm.sendrecv(
            right,
            chunks[send_idx],
            source=left,
            send_tag=tag_base + 32 + step % 32,
            recv_tag=tag_base + 32 + step % 32,
        )
        chunks[recv_idx] = theirs

    return concat(chunks)


def bcast_scatter_ring(
    comm, payload: Payload | None, root: int = 0, tag_base: int = 0
) -> Generator:
    """Van-de-Geijn broadcast: scatter from the root, ring-allgather.

    Moves ``~2n`` bytes per rank regardless of ``p`` (vs ``n lg p`` for
    the tree), which wins for large vectors.
    """
    from repro.mpi.collectives.gather_scatter import scatter_binomial

    p = comm.size
    if p == 1:
        return payload.copy()
    pieces = payload.split(p) if comm.rank == root else None
    mine = yield from scatter_binomial(comm, pieces, root=root, tag_base=tag_base)
    # Ring allgather reassembles the full vector everywhere.  Chunk
    # sizes may differ when count % p != 0, so gather the pieces with
    # per-chunk sendrecvs (the allgather fast path assumes equal counts).
    rank = comm.rank
    blocks: list[Payload | None] = [None] * p
    blocks[rank] = mine
    right = (rank + 1) % p
    left = (rank - 1) % p
    for step in range(p - 1):
        send_idx = (rank - step) % p
        recv_idx = (rank - step - 1) % p
        theirs = yield from comm.sendrecv(
            right,
            blocks[send_idx],
            source=left,
            send_tag=tag_base + 8 + step % 32,
            recv_tag=tag_base + 8 + step % 32,
        )
        blocks[recv_idx] = theirs
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
    nseg = max(1, min(32, -(-payload.nbytes // segment_bytes)))
    if nseg == 1:
        result = yield from allreduce_ring(comm, payload, op, tag_base=tag_base)
        return result
    segments = payload.split(nseg)
    # Each segment gets its own collective tag block (allocated
    # identically on every rank), so concurrent rings never cross-match.
    requests = [
        comm.iallreduce(seg, op, algorithm="ring") for seg in segments
    ]
    results = yield from comm.waitall(requests)
    return concat(results)


RING = AllreduceAlgorithm(
    "ring", allreduce_ring,
    exempt="link-serialised ring schedule outside the Eq. 1-7 terms",
)
RING_SEGMENTED = AllreduceAlgorithm(
    "ring_segmented", allreduce_ring_segmented,
    exempt="link-serialised ring schedule outside Eq. 1-7",
)
