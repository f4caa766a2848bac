"""Allgather algorithms.

Every rank contributes an equal-count block; the result is the
concatenation of all blocks in rank order on every rank.

* :func:`doubling_rounds` and :func:`ring_rounds` — the
  recursive-doubling and ring schedules as round data (see
  :mod:`~repro.mpi.collectives.base`): the doubling is the second half
  of Rabenseifner's allreduce, and the ring (any block counts) is both
  phases of the ring allreduce and phase 2 of the scatter-ring
  broadcast;
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
from repro.mpi.collectives.base import JOIN, PLACE, Round, actual_rank, run_rounds
from repro.payload.payload import Payload, concat

__all__ = [
    "doubling_rounds",
    "ring_rounds",
    "allgather_recursive_doubling",
    "allgather_bruck",
    "allgather_ring",
]


def _check_equal_counts(comm, payload: Payload) -> None:
    if payload is None:
        raise MPIError("allgather requires a contribution on every rank")


def doubling_rounds(n: int, i: int, rem: int = 0, tag: int = 0) -> list:
    """Recursive-doubling allgather among ``n`` (a power of two)
    participants.

    Participant ``i`` is comm rank ``actual_rank(i, rem)`` and holds
    block ``i``; each round sends the held window to the partner and
    joins the partner's window to it, so it doubles until ``(0, n)``.
    """
    rounds = []
    lo, hi = i, i + 1
    mask = 1
    while mask < n:
        peer = actual_rank(i ^ mask, rem)
        if i & mask:
            rounds.append(Round(peer, peer, tag, (lo, hi), (lo - mask, lo), JOIN))
            lo -= mask
        else:
            rounds.append(Round(peer, peer, tag, (lo, hi), (hi, hi + mask), JOIN))
            hi += mask
        mask <<= 1
        tag += 1
    return rounds


def ring_rounds(p: int, rank: int, start: int, tag: int, act: str) -> list:
    """``p - 1`` ring steps over a ``p``-block list: step ``s`` sends
    block ``start - s`` to the right neighbour and lands block
    ``start - s - 1`` from the left (``act`` is ``PLACE`` to gather,
    ``COMBINE`` to reduce-scatter)."""
    return [
        Round((rank + 1) % p, (rank - 1) % p, tag + s % 32,
              (start - s) % p, (start - s - 1) % p, act)
        for s in range(p - 1)
    ]


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
    result = yield from run_rounds(
        comm, doubling_rounds(p, comm.rank), payload, tag_base=tag_base,
        held=(comm.rank, comm.rank + 1),
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
    rounds = ring_rounds(p, comm.rank, comm.rank, 0, PLACE)
    yield from run_rounds(comm, rounds, blocks, tag_base=tag_base)
    return concat(blocks)
