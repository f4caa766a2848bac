"""Reduce-scatter algorithms.

Each rank contributes a full vector; rank ``i`` returns chunk ``i`` of
the element-wise reduction, with chunk boundaries from
:func:`repro.payload.payload.split_bounds` over ``p`` chunks.

* :func:`reduce_scatter_halving` — the recursive-halving schedule,
  ``lg p`` rounds over a power-of-two set of participants; the first
  half of Rabenseifner's allreduce, which runs it after folding to a
  power of two;
* :func:`reduce_scatter_recursive_halving` — that schedule over every
  rank, bandwidth-optimal (power-of-two ranks; delegates to pairwise
  otherwise);
* :func:`reduce_scatter_pairwise` — ``p - 1`` rounds, any rank count,
  commutative operators.
"""

from __future__ import annotations

from typing import Generator

from repro.mpi.collectives.base import actual_rank, charged_reduce, window
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, split_bounds

__all__ = [
    "reduce_scatter_halving",
    "reduce_scatter_recursive_halving",
    "reduce_scatter_pairwise",
]


def reduce_scatter_halving(
    comm, newrank: int, pof2: int, rem: int, vec: Payload, op: ReduceOp,
    tag_base: int,
) -> Generator:
    """Recursive-halving reduce-scatter among ``pof2`` participants.

    Participant ``i`` is comm rank ``actual_rank(i, rem)`` (``rem`` is 0
    when every rank takes part).  Returns the fully reduced chunk
    ``newrank`` of ``split_bounds(vec.count, pof2)``.
    """
    bounds = split_bounds(vec.count, pof2)
    lo, hi = 0, pof2  # current chunk window; vec covers its elements
    mask = pof2 >> 1
    round_no = 0
    while mask >= 1:
        partner = actual_rank(newrank ^ mask, rem)
        mid = (lo + hi) // 2
        if newrank & mask == 0:
            keep_lo, keep_hi, send_lo, send_hi = lo, mid, mid, hi
        else:
            keep_lo, keep_hi, send_lo, send_hi = mid, hi, lo, mid
        send_part = window(vec, bounds, lo, send_lo, send_hi)
        kept_part = window(vec, bounds, lo, keep_lo, keep_hi)
        tag = tag_base + round_no
        theirs = yield from comm.sendrecv(
            partner, send_part, source=partner, send_tag=tag, recv_tag=tag
        )
        vec = yield from charged_reduce(comm, kept_part, theirs, op)
        lo, hi = keep_lo, keep_hi
        mask >>= 1
        round_no += 1
    assert hi - lo == 1 and lo == newrank
    return vec


def reduce_scatter_recursive_halving(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """Recursive-halving reduce-scatter (pof2; else pairwise)."""
    p = comm.size
    if p & (p - 1):
        result = yield from reduce_scatter_pairwise(
            comm, payload, op, tag_base=tag_base
        )
        return result
    if p == 1:
        return payload.copy()
    result = yield from reduce_scatter_halving(
        comm, comm.rank, p, 0, payload, op, tag_base
    )
    return result


def reduce_scatter_pairwise(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """Pairwise-exchange reduce-scatter for any rank count.

    Round ``s``: send chunk ``(rank + s) % p`` of *my input* to rank
    ``rank + s`` and accumulate the chunk arriving from ``rank - s``.
    Requires a commutative operator (all predefined MPI ops are).
    """
    p = comm.size
    rank = comm.rank
    bounds = split_bounds(payload.count, p)

    def chunk(i: int) -> Payload:
        a, b = bounds[i]
        return payload.slice(a, b)

    mine = chunk(rank)
    for step in range(1, p):
        dst = (rank + step) % p
        src = (rank - step) % p
        theirs = yield from comm.sendrecv(
            dst,
            chunk(dst),
            source=src,
            send_tag=tag_base + step % 32,
            recv_tag=tag_base + step % 32,
        )
        mine = yield from charged_reduce(comm, mine, theirs, op)
    return mine
