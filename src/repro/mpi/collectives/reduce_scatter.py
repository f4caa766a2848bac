"""Reduce-scatter algorithms.

Each rank contributes a full vector; rank ``i`` returns chunk ``i`` of
the element-wise reduction, with chunk boundaries from
:func:`repro.payload.payload.split_bounds` over ``p`` chunks.

* :func:`halving_rounds` — the recursive-halving schedule as round
  data, ``lg p`` rounds over a power-of-two set of participants; the
  first half of Rabenseifner's allreduce, which runs it after folding
  to a power of two;
* :func:`reduce_scatter_recursive_halving` — that schedule over every
  rank, bandwidth-optimal (power-of-two ranks; delegates to pairwise
  otherwise);
* :func:`reduce_scatter_pairwise` — ``p - 1`` rounds, any rank count,
  commutative operators.
"""

from __future__ import annotations

from typing import Generator

from repro.mpi.collectives.base import COMBINE, Round, actual_rank, run_rounds
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, split_bounds

__all__ = [
    "halving_rounds",
    "pairwise_rounds",
    "reduce_scatter_recursive_halving",
    "reduce_scatter_pairwise",
]


def halving_rounds(n: int, i: int, rem: int = 0, tag: int = 0) -> list:
    """Recursive halving among ``n`` (a power of two) participants.

    Participant ``i`` is comm rank ``actual_rank(i, rem)`` and starts
    with blocks ``(0, n)``; each round sends half of its window to the
    partner and combines the other half, ending on block ``i``.
    """
    rounds = []
    lo, hi = 0, n
    mask = n >> 1
    while mask:
        mid = (lo + hi) // 2
        keep, give = ((lo, mid), (mid, hi)) if i & mask == 0 else ((mid, hi), (lo, mid))
        peer = actual_rank(i ^ mask, rem)
        rounds.append(Round(peer, peer, tag, give, keep, COMBINE))
        lo, hi = keep
        mask >>= 1
        tag += 1
    return rounds


def pairwise_rounds(p: int, rank: int) -> list:
    """Pairwise exchange over a ``p``-block list: step ``s`` sends
    block ``rank + s`` to its owner and combines block ``rank`` with
    the one arriving from ``rank - s``."""
    return [
        Round((rank + s) % p, (rank - s) % p, s % 32, (rank + s) % p, rank, COMBINE)
        for s in range(1, p)
    ]


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
    result = yield from run_rounds(
        comm, halving_rounds(p, comm.rank), payload, op, tag_base,
        bounds=split_bounds(payload.count, p), held=(0, p),
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
    blocks = yield from run_rounds(
        comm, pairwise_rounds(p, comm.rank), payload.split(p), op, tag_base
    )
    return blocks[comm.rank]
