"""Allgather algorithms.

Every rank contributes an equal-count block; the result is the
concatenation of all blocks in rank order on every rank.

* :func:`allgather_doubling` and :func:`ring_allgather` — the
  recursive-doubling and ring schedules, written once here: the
  doubling is the second half of Rabenseifner's allreduce, and the ring
  (any block counts) is phase 2 of the ring allreduce and of the
  scatter-ring broadcast;
* :func:`allgather_recursive_doubling` — ``lg p`` rounds of pairwise
  block-range exchange (power-of-two ranks; silently delegates to Bruck
  otherwise, as MPICH does);
* :func:`allgather_bruck` — ``ceil(lg p)`` rounds, any rank count;
* :func:`allgather_ring` — ``p - 1`` neighbour steps,
  bandwidth-friendly for large blocks.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import MPIError
from repro.mpi.collectives.base import actual_rank
from repro.payload.payload import Payload, concat

__all__ = [
    "allgather_doubling",
    "ring_allgather",
    "allgather_recursive_doubling",
    "allgather_bruck",
    "allgather_ring",
]


def _check_equal_counts(comm, payload: Payload) -> None:
    if payload is None:
        raise MPIError("allgather requires a contribution on every rank")


def allgather_doubling(
    comm, newrank: int, pof2: int, rem: int, chunk: Payload, tag_base: int
) -> Generator:
    """Recursive-doubling allgather among ``pof2`` participants.

    Participant ``i`` is comm rank ``actual_rank(i, rem)`` and holds
    block ``i``; the window of contiguous blocks held doubles each
    round.  Returns the concatenation of all ``pof2`` blocks.
    """
    lo, hi = newrank, newrank + 1
    vec = chunk
    mask = 1
    round_no = 0
    while mask < pof2:
        partner = actual_rank(newrank ^ mask, rem)
        tag = tag_base + round_no
        theirs = yield from comm.sendrecv(
            partner, vec, source=partner, send_tag=tag, recv_tag=tag
        )
        if newrank & mask == 0:
            vec = concat([vec, theirs])
            hi += mask
        else:
            vec = concat([theirs, vec])
            lo -= mask
        mask <<= 1
        round_no += 1
    assert lo == 0 and hi == pof2
    return vec


def ring_allgather(comm, blocks: list, start: int, tag_base: int) -> Generator:
    """Ring allgather: ``p - 1`` neighbour steps circulate ``blocks``.

    On entry this rank holds ``blocks[start % p]``; step ``s`` forwards
    block ``start - s`` to the right neighbour and receives block
    ``start - s - 1`` from the left.  Fills ``blocks`` in place (their
    counts may differ) and returns their concatenation.
    """
    p = comm.size
    rank = comm.rank
    right = (rank + 1) % p
    left = (rank - 1) % p
    for step in range(p - 1):
        tag = tag_base + step % 32
        blocks[(start - step - 1) % p] = yield from comm.sendrecv(
            right, blocks[(start - step) % p], source=left,
            send_tag=tag, recv_tag=tag,
        )
    return concat(blocks)


def allgather_recursive_doubling(
    comm, payload: Payload, tag_base: int = 0
) -> Generator:
    """Recursive-doubling allgather (delegates to Bruck for non-pof2)."""
    p = comm.size
    if p & (p - 1):
        result = yield from allgather_bruck(comm, payload, tag_base=tag_base)
        return result
    _check_equal_counts(comm, payload)
    if p == 1:
        return payload.copy()
    result = yield from allgather_doubling(
        comm, comm.rank, p, 0, payload, tag_base
    )
    return result


def allgather_bruck(comm, payload: Payload, tag_base: int = 0) -> Generator:
    """Bruck's allgather: works for any rank count.

    Blocks accumulate in rotated order (own block first); a final local
    reorder restores rank order.
    """
    _check_equal_counts(comm, payload)
    p = comm.size
    rank = comm.rank
    if p == 1:
        return payload.copy()

    blocks = [payload]  # rotated: blocks[i] belongs to rank (rank + i) % p
    round_no = 0
    while len(blocks) < p:
        held = len(blocks)
        count = min(held, p - held)
        dst = (rank - held) % p
        src = (rank + held) % p
        theirs = yield from comm.sendrecv(
            dst,
            concat(blocks[:count]),
            source=src,
            send_tag=tag_base + round_no,
            recv_tag=tag_base + round_no,
        )
        blocks.extend(theirs.split(count))
        round_no += 1
    assert len(blocks) == p
    # Un-rotate: blocks[i] is rank (rank + i) % p; reorder to 0..p-1.
    ordered = [None] * p
    for i, block in enumerate(blocks):
        ordered[(rank + i) % p] = block
    return concat(ordered)


def allgather_ring(comm, payload: Payload, tag_base: int = 0) -> Generator:
    """Ring allgather: p-1 neighbour exchanges."""
    _check_equal_counts(comm, payload)
    p = comm.size
    if p == 1:
        return payload.copy()
    blocks: list[Payload | None] = [None] * p
    blocks[comm.rank] = payload
    result = yield from ring_allgather(comm, blocks, comm.rank, tag_base)
    return result
