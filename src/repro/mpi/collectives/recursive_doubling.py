"""Recursive-doubling allreduce (the paper's Equation 1 baseline).

``ceil(lg p)`` rounds; in round ``k`` each participant exchanges its
*entire* current vector with the partner at distance ``2^k`` and
combines.  Latency-optimal in rounds but every round moves the full
``n`` bytes, so it loses to reduce-scatter-based schemes for large
messages.  The schedule is round data (fold + exchange + unfold, see
:mod:`~repro.mpi.collectives.base`).
"""

from __future__ import annotations

from typing import Generator

from repro.core.phases import AllreduceAlgorithm
from repro.mpi.collectives.base import (
    COMBINE, Round, actual_rank, folded, run_rounds,
)
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload

__all__ = [
    "RECURSIVE_DOUBLING",
    "allreduce_recursive_doubling",
    "exchange_rounds",
    "recursive_doubling_rounds",
]


def exchange_rounds(n: int, i: int, rem: int = 0) -> list:
    """Full-vector exchanges among ``n`` (a power of two) participants:
    round ``k`` (tag ``k + 1``) combines with participant ``i ^ 2^k``."""
    peers = [actual_rank(i ^ (1 << k), rem) for k in range(n.bit_length() - 1)]
    return [Round(q, q, k + 1, (0, 1), (0, 1), COMBINE) for k, q in enumerate(peers)]


def recursive_doubling_rounds(p: int, rank: int) -> list:
    """Rank ``rank``'s rounds: fold, exchange, unfold (one block)."""
    return folded(p, rank, 1, exchange_rounds)


def allreduce_recursive_doubling(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """Allreduce via recursive doubling; handles any process count."""
    if comm.size == 1:
        return payload.copy()
    result = yield from run_rounds(
        comm, recursive_doubling_rounds(comm.size, comm.rank), payload, op,
        tag_base,
    )
    return result


def _charge_recursive_doubling(model, *, p, h, n, **_kw):
    return (("exchange", model.t_recursive_doubling(p, n)),)


RECURSIVE_DOUBLING = AllreduceAlgorithm(
    "recursive_doubling", allreduce_recursive_doubling,
    phases=("exchange",), charge=_charge_recursive_doubling,
)
