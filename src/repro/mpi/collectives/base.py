"""Shared machinery for collective algorithms.

Non-power-of-two handling follows MPICH: with ``p = pof2 + rem`` ranks,
the first ``2 * rem`` ranks *fold* pairwise (each even rank sends its
vector to its odd neighbour, who combines), leaving ``pof2`` active
participants with contiguous "new ranks"; after the power-of-two phase
the result is *unfolded* back to the idle ranks.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import MPIError
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload

__all__ = [
    "pof2_below",
    "fold_to_pof2",
    "unfold_from_pof2",
    "actual_rank",
    "charged_reduce",
    "window",
]

IDLE = -1


def pof2_below(p: int) -> int:
    """Largest power of two that is <= ``p``."""
    if p < 1:
        raise MPIError(f"invalid process count {p}")
    return 1 << (p.bit_length() - 1)


def actual_rank(newrank: int, rem: int) -> int:
    """Inverse of the fold mapping: participant new-rank → comm rank."""
    return 2 * newrank + 1 if newrank < rem else newrank + rem


def charged_reduce(
    comm, mine: Payload, theirs: Payload, op: ReduceOp
) -> Generator:
    """One combine: charge the compute cost, return the reduced payload."""
    yield comm.machine.compute(comm.world_rank, theirs.nbytes)
    return mine.reduce(theirs, op)


def window(
    vec: Payload, bounds, vec_lo: int, blk_lo: int, blk_hi: int
) -> Payload:
    """Blocks ``[blk_lo, blk_hi)`` of ``vec``, a vector that starts at
    block ``vec_lo``; ``bounds[i]`` is block ``i``'s element range."""
    start = bounds[vec_lo][0]
    return vec.slice(bounds[blk_lo][0] - start, bounds[blk_hi - 1][1] - start)


def fold_to_pof2(
    comm, payload: Payload, op: ReduceOp, tag: int
) -> Generator:
    """Pre-phase for non-power-of-two counts.

    Returns ``(newrank, payload)``; ``newrank`` is :data:`IDLE` for
    ranks that handed their data off and now wait for the unfold.
    """
    p = comm.size
    pof2 = pof2_below(p)
    rem = p - pof2
    rank = comm.rank
    if rank < 2 * rem:
        if rank % 2 == 0:
            yield from comm.send(rank + 1, payload, tag)
            return IDLE, payload
        theirs = yield from comm.recv(rank - 1, tag)
        payload = yield from charged_reduce(comm, payload, theirs, op)
        return rank // 2, payload
    return rank - rem, payload


def unfold_from_pof2(
    comm, newrank: int, payload: Payload, tag: int
) -> Generator:
    """Post-phase: participants return the result to their idle partner."""
    p = comm.size
    rem = p - pof2_below(p)
    rank = comm.rank
    if rank < 2 * rem:
        if rank % 2 == 0:
            payload = yield from comm.recv(rank + 1, tag)
        else:
            yield from comm.send(rank - 1, payload, tag)
    return payload
