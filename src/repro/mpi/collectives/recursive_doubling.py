"""Recursive-doubling allreduce (the paper's Equation 1 baseline).

``ceil(lg p)`` rounds; in round ``k`` each participant exchanges its
*entire* current vector with the partner at distance ``2^k`` and
combines.  Latency-optimal in rounds but every round moves the full
``n`` bytes, so it loses to reduce-scatter-based schemes for large
messages.  The record declares its schedule, one round list (fold +
exchange + unfold, see :mod:`~repro.mpi.collectives.base`) on one
block, which :func:`~repro.mpi.collectives.base.run_schedule` runs.
"""

from __future__ import annotations

from repro.core.phases import AllreduceAlgorithm
from repro.mpi.collectives.base import (
    COMBINE, Round, Schedule, actual_rank, folded,
)

__all__ = [
    "RECURSIVE_DOUBLING",
    "exchange_rounds",
    "recursive_doubling_schedule",
]


def exchange_rounds(n: int, i: int, rem: int = 0) -> list:
    """Full-vector exchanges among ``n`` (a power of two) participants:
    round ``k`` (tag ``k + 1``) combines with participant ``i ^ 2^k``."""
    peers = [actual_rank(i ^ (1 << k), rem) for k in range(n.bit_length() - 1)]
    return [Round(q, q, k + 1, (0, 1), (0, 1), COMBINE) for k, q in enumerate(peers)]


def recursive_doubling_schedule(p: int, rank: int) -> Schedule:
    """Rank ``rank``'s schedule: fold, exchange, unfold (one block)."""
    return Schedule(folded(p, rank, 1, exchange_rounds))


def _charge_recursive_doubling(model, *, p, h, n, **_kw):
    return (("exchange", model.t_recursive_doubling(p, n)),)


RECURSIVE_DOUBLING = AllreduceAlgorithm(
    "recursive_doubling", schedule=recursive_doubling_schedule,
    phases=("exchange",), charge=_charge_recursive_doubling,
)
