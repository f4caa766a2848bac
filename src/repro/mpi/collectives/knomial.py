"""K-nomial tree reduce and broadcast.

Generalisation of the binomial tree to radix ``k``: each internal node
has up to ``k - 1`` children per digit level, giving
``ceil(log_k p)`` levels.  Higher radix trades more concurrent sends at
the parent for fewer levels — worthwhile on fabrics with high message
rates (MVAPICH2 ships k-nomial broadcast for exactly this reason).
``radix=2`` reproduces the binomial tree.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import ConfigError
from repro.mpi.collectives.base import charged_reduce
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload

__all__ = ["reduce_knomial", "bcast_knomial"]


def _lowest_digit_level(rel: int, k: int, p: int) -> int:
    """``k``-power of the lowest non-zero base-``k`` digit of ``rel``.

    For ``rel == 0`` returns the smallest power of ``k`` that is >= p
    (the root sits above every level).
    """
    mask = 1
    if rel == 0:
        while mask < p:
            mask *= k
        return mask
    while rel % (mask * k) == 0:
        mask *= k
    return mask


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
    p = comm.size
    rank = comm.rank
    if p == 1:
        return payload.copy()
    rel = (rank - root) % p
    top = _lowest_digit_level(rel, radix, p)

    vec = payload
    # Collect from children, lowest levels first (mirror of the bcast).
    level = 1
    while level < top and level < p:
        for i in range(1, radix):
            child_rel = rel + i * level
            if child_rel >= p or child_rel >= rel + top:
                break
            child = (child_rel + root) % p
            theirs = yield from comm.recv(child, tag_base + 3)
            vec = yield from charged_reduce(comm, vec, theirs, op)
        level *= radix

    if rel != 0:
        digit = (rel // top) % radix
        parent_rel = rel - digit * top
        yield from comm.send((parent_rel + root) % p, vec, tag_base + 3)
        return None
    return vec


def bcast_knomial(
    comm,
    payload: Payload | None,
    root: int = 0,
    tag_base: int = 0,
    radix: int = 4,
) -> Generator:
    """K-nomial broadcast of ``payload`` from ``root``."""
    _check_radix(radix)
    p = comm.size
    rank = comm.rank
    if p == 1:
        return payload.copy()
    rel = (rank - root) % p
    top = _lowest_digit_level(rel, radix, p)

    if rel != 0:
        payload = yield from comm.recv(tag=tag_base + 4)

    # Forward to children at decreasing levels.  For the root, `top`
    # overshoots p; the range checks skip the levels with no children.
    level = top // radix
    while level >= 1:
        for i in range(1, radix):
            child_rel = rel + i * level
            if child_rel >= p or child_rel >= rel + top:
                break
            child = (child_rel + root) % p
            yield from comm.send(child, payload, tag_base + 4)
        level //= radix
    return payload
