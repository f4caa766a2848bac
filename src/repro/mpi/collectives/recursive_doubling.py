"""Recursive-doubling allreduce (the paper's Equation 1 baseline).

``ceil(lg p)`` rounds; in round ``k`` each participant exchanges its
*entire* current vector with the partner at distance ``2^k`` and
combines.  Latency-optimal in rounds but every round moves the full
``n`` bytes, so it loses to reduce-scatter-based schemes for large
messages.
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
from repro.payload.payload import Payload

__all__ = ["RECURSIVE_DOUBLING", "allreduce_recursive_doubling"]


def allreduce_recursive_doubling(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """Allreduce via recursive doubling; handles any process count."""
    p = comm.size
    if p == 1:
        return payload.copy()
    pof2 = pof2_below(p)
    rem = p - pof2

    newrank, vec = yield from fold_to_pof2(comm, payload, op, tag_base)
    if newrank != IDLE:
        mask = 1
        round_no = 1
        while mask < pof2:
            partner = actual_rank(newrank ^ mask, rem)
            theirs = yield from comm.sendrecv(
                partner,
                vec,
                source=partner,
                send_tag=tag_base + round_no,
                recv_tag=tag_base + round_no,
            )
            vec = yield from charged_reduce(comm, vec, theirs, op)
            mask <<= 1
            round_no += 1
    vec = yield from unfold_from_pof2(comm, newrank, vec, tag_base + 63)
    return vec


def _charge_recursive_doubling(model, *, p, h, n, **_kw):
    return (("exchange", model.t_recursive_doubling(p, n)),)


RECURSIVE_DOUBLING = AllreduceAlgorithm(
    "recursive_doubling", allreduce_recursive_doubling,
    phases=("exchange",), charge=_charge_recursive_doubling,
)
