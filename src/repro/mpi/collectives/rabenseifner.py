"""Rabenseifner's allreduce: reduce-scatter + allgather.

The bandwidth-optimal classic (Rabenseifner 2004, the paper's [25]):

1. fold to a power of two (full-vector exchange — a simplification of
   MPICH's halved fold; only the ``2 * rem`` edge ranks pay for it);
2. **reduce-scatter by recursive halving**: ``lg p`` rounds, each
   exchanging half of the current window with the partner and combining
   — total traffic ``n * (p-1)/p`` per rank;
3. **allgather by recursive doubling**: the same windows in reverse;
4. unfold to the idle ranks.

Chunk boundaries follow :func:`~repro.payload.payload.split_bounds`, so
any vector length works (including lengths smaller than ``p``).
"""

from __future__ import annotations

from typing import Generator

from repro.core.phases import AllreduceAlgorithm
from repro.mpi.collectives.base import (
    IDLE,
    actual_rank,
    charged_reduce,
    fold_to_pof2,
    pof2_below,
    unfold_from_pof2,
)
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, concat, split_bounds

__all__ = [
    "RABENSEIFNER",
    "allreduce_rabenseifner",
    "reduce_scatter_halving",
    "allgather_doubling",
]


def reduce_scatter_halving(
    comm, newrank: int, pof2: int, rem: int, vec: Payload, op: ReduceOp,
    tag_base: int,
) -> Generator:
    """Recursive-halving reduce-scatter among the ``pof2`` participants.

    Returns ``(chunk_payload, bounds)`` where ``bounds[i]`` is chunk
    ``i``'s element range and ``chunk_payload`` is the fully reduced
    chunk ``newrank``.
    """
    bounds = split_bounds(vec.count, pof2)
    lo, hi = 0, pof2  # current chunk window; vec covers its elements
    mask = pof2 >> 1
    round_no = 0
    while mask >= 1:
        partner = actual_rank(newrank ^ mask, rem)
        mid = (lo + hi) // 2
        win_start = bounds[lo][0]
        if newrank & mask == 0:
            keep_lo, keep_hi = lo, mid
            send_lo, send_hi = mid, hi
        else:
            keep_lo, keep_hi = mid, hi
            send_lo, send_hi = lo, mid
        send_part = vec.slice(
            bounds[send_lo][0] - win_start, bounds[send_hi - 1][1] - win_start
        )
        kept_part = vec.slice(
            bounds[keep_lo][0] - win_start, bounds[keep_hi - 1][1] - win_start
        )
        theirs = yield from comm.sendrecv(
            partner,
            send_part,
            source=partner,
            send_tag=tag_base + round_no,
            recv_tag=tag_base + round_no,
        )
        vec = yield from charged_reduce(comm, kept_part, theirs, op)
        lo, hi = keep_lo, keep_hi
        mask >>= 1
        round_no += 1
    assert hi - lo == 1 and lo == newrank
    return vec, bounds


def allgather_doubling(
    comm, newrank: int, pof2: int, rem: int, chunk: Payload, bounds,
    tag_base: int,
) -> Generator:
    """Recursive-doubling allgather: inverse traversal of the halving."""
    lo, hi = newrank, newrank + 1
    vec = chunk
    mask = 1
    round_no = 32  # disjoint from the halving tags
    while mask < pof2:
        partner = actual_rank(newrank ^ mask, rem)
        theirs = yield from comm.sendrecv(
            partner,
            vec,
            source=partner,
            send_tag=tag_base + round_no,
            recv_tag=tag_base + round_no,
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


def allreduce_rabenseifner(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """Allreduce via reduce-scatter + allgather; any process count."""
    p = comm.size
    if p == 1:
        return payload.copy()
    pof2 = pof2_below(p)
    rem = p - pof2

    newrank, vec = yield from fold_to_pof2(comm, payload, op, tag_base)
    if newrank != IDLE:
        chunk, bounds = yield from reduce_scatter_halving(
            comm, newrank, pof2, rem, vec, op, tag_base
        )
        vec = yield from allgather_doubling(
            comm, newrank, pof2, rem, chunk, bounds, tag_base
        )
    vec = yield from unfold_from_pof2(comm, newrank, vec, tag_base + 63)
    return vec


RABENSEIFNER = AllreduceAlgorithm(
    "rabenseifner", allreduce_rabenseifner,
    exempt="pow2-fold phase structure not covered by Eq. 1-7",
)
