"""K-nomial tree reduce and broadcast.

Generalisation of the binomial tree to radix ``k``: each internal node
has up to ``k - 1`` children per digit level, giving
``ceil(log_k p)`` levels.  Higher radix trades more concurrent sends at
the parent for fewer levels — worthwhile on fabrics with high message
rates (MVAPICH2 ships k-nomial broadcast for exactly this reason).
``radix=2`` reproduces the binomial tree.  Both directions are one
round list, :func:`knomial_rounds`, run by
:func:`~repro.mpi.collectives.base.run_rounds`.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import ConfigError
from repro.mpi.collectives.base import COMBINE, REPLACE, Round, run_rounds
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload

__all__ = ["knomial_rounds", "reduce_knomial", "bcast_knomial"]


def knomial_rounds(
    p: int, rank: int, root: int, radix: int, tag: int, up: bool
) -> list:
    """Rank ``rank``'s rounds of the radix-``radix`` tree on one block.

    ``up`` reduces: combine the children, lowest levels first, then
    send to the parent.  Otherwise broadcast: receive from the parent,
    then send to the children at decreasing levels.
    """
    rel = (rank - root) % p
    # k-power of rel's lowest non-zero base-k digit; the root's sits
    # above every level.
    top = 1
    while top < p and rel % (top * radix) == 0:
        top *= radix
    children = []
    level = 1
    while level < top:
        children.append([
            (c + root) % p
            for c in range(rel + level, min(p, rel + top), level)[:radix - 1]
        ])
        level *= radix
    parent = (rel - (rel // top) % radix * top + root) % p
    whole = (0, 1)
    if up:
        rounds = [Round(None, c, tag, None, whole, COMBINE)
                  for kids in children for c in kids]
        if rel:
            rounds.append(Round(parent, None, tag, whole, None, None))
        return rounds
    rounds = [Round(None, parent, tag, None, whole, REPLACE)] if rel else []
    return rounds + [Round(c, None, tag, whole, None, None)
                     for kids in reversed(children) for c in kids]


def _check_radix(k: int) -> None:
    if k < 2:
        raise ConfigError(f"k-nomial radix must be >= 2, got {k}")


def reduce_knomial(
    comm,
    payload: Payload,
    op: ReduceOp,
    root: int = 0,
    tag_base: int = 0,
    radix: int = 4,
) -> Generator:
    """K-nomial reduce; result at ``root``, ``None`` elsewhere."""
    _check_radix(radix)
    if comm.size == 1:
        return payload.copy()
    rounds = knomial_rounds(comm.size, comm.rank, root, radix, 3, True)
    vec = yield from run_rounds(comm, rounds, payload, op, tag_base)
    return vec if comm.rank == root else None


def bcast_knomial(
    comm,
    payload: Payload | None,
    root: int = 0,
    tag_base: int = 0,
    radix: int = 4,
) -> Generator:
    """K-nomial broadcast of ``payload`` from ``root``."""
    _check_radix(radix)
    if comm.size == 1:
        return payload.copy()
    rounds = knomial_rounds(comm.size, comm.rank, root, radix, 4, False)
    result = yield from run_rounds(comm, rounds, payload, tag_base=tag_base)
    return result
