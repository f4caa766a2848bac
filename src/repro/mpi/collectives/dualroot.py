"""Träff's doubly-pipelined dual-root tree allreduce (arXiv:2109.12626).

The classic reduce-then-broadcast tree wastes half of every rank's
bandwidth: leaves only send during the reduction and only receive
during the broadcast, and the root is a serial bottleneck.  Träff's
construction fixes both at once:

* the vector is split into **two halves**, each reduced over its own
  binary tree; the second tree is the *mirror image* of the first
  (rank ``r`` plays the role of ``p - 1 - r``), so its root is rank
  ``p - 1`` and a rank that is a leaf in one tree is an interior node
  in the other — send and receive bandwidth are both busy;
* each half is **pipelined** into ``k`` segments that flow up and back
  down the tree independently, so the broadcast of segment ``s``
  overlaps the reduction of segment ``s + 1`` ("doubly pipelined").

Here the two halves' segments are one segment pipeline
(:func:`~repro.mpi.collectives.base.run_segments`): each
``(tree, segment)`` instance runs the tree's round list
(:func:`tree_rounds`) as an independent background coroutine
(:meth:`~repro.mpi.comm.Comm.icoll`), and all of them are in flight
before the one wait — the simulator's event engine realises the
pipeline overlap without explicit software pipelining inside a rank.
"""

from __future__ import annotations

from typing import Generator

from repro.core.phases import AllreduceAlgorithm
from repro.errors import ConfigError
from repro.mpi.collectives.base import (
    COMBINE, REPLACE, Round, run_rounds, run_segments, segment_count,
)
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload

__all__ = [
    "DUALROOT_PIPELINED",
    "allreduce_dualroot_pipelined",
    "t_dualroot_pipelined",
    "dualroot_depth",
    "tree_rounds",
    "SEGMENT_BYTES",
    "MAX_SEGMENTS",
]

#: Target size of one pipeline segment (bytes per half).
SEGMENT_BYTES = 16384
#: Cap on segments per half: each (tree, segment) pair needs a tag
#: sub-block inside the collective's 64-tag span.
MAX_SEGMENTS = 8


def dualroot_depth(p: int) -> int:
    """Depth of the heap-indexed binary tree over ``p`` ranks."""
    depth = 0
    last = 0  # deepest index of level `depth`
    while last < p - 1:
        depth += 1
        last = 2 * last + 2
    return depth


def tree_rounds(p: int, rank: int, mirror: bool) -> list:
    """One segment through one tree: reduce to the root (tag 0),
    broadcast back (tag 1).

    The tree is heap-indexed over *virtual* ranks (children of ``v``
    are ``2v + 1`` and ``2v + 2``); ``mirror`` maps virtual rank ``v``
    to actual rank ``p - 1 - v``, which roots the tree at ``p - 1``.
    """
    def actual(v: int) -> int:
        return (p - 1 - v) if mirror else v

    virt = actual(rank)
    children = [actual(c) for c in (2 * virt + 1, 2 * virt + 2) if c < p]
    whole = (0, 1)
    rounds = [Round(None, c, 0, None, whole, COMBINE) for c in children]
    if virt > 0:
        parent = actual((virt - 1) // 2)
        rounds += [Round(parent, None, 0, whole, None, None),
                   Round(None, parent, 1, None, whole, REPLACE)]
    return rounds + [Round(c, None, 1, whole, None, None) for c in children]


def allreduce_dualroot_pipelined(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """Doubly-pipelined dual-root tree allreduce; any process count.

    Tree A (rooted at rank 0) reduces the first half of the vector,
    tree B (the mirror, rooted at ``p - 1``) the second half,
    concurrently; each half flows through the tree in up to
    :data:`MAX_SEGMENTS` pipeline segments.
    """
    p = comm.size
    if p == 1:
        return payload.copy()

    mid = (payload.count + 1) // 2
    halves = (payload.slice(0, mid), payload.slice(mid, payload.count))
    segments = []  # run_rounds arguments of each (tree, segment)
    for tree, half in enumerate(halves):
        k = segment_count(half.nbytes, SEGMENT_BYTES, MAX_SEGMENTS)
        rounds = tree_rounds(p, comm.rank, tree == 1)
        # Tree A segments tag from tag_base, tree B from tag_base + 32;
        # two tags (up/down) per segment, so k <= 16 would still fit.
        for s, seg in enumerate(half.split(k)):
            segments.append((rounds, seg, op, tag_base + 32 * tree + 2 * s))
    result = yield from run_segments(
        comm, segments, lambda args: comm.icoll(run_rounds, *args)
    )
    return result


def t_dualroot_pipelined(model, p: int, n: int, k: "int | None" = None) -> float:
    """Closed-form cost of the dual-root tree under ``model``.

    Each half of the vector (``n / 2`` bytes in ``k`` pipeline
    segments) flows up and back down a binary tree of depth
    ``~lg p``; the two trees are mirror images and run concurrently,
    so the critical path is one half's ``2 (depth + k - 1)`` pipeline
    steps of one segment each.  ``k`` defaults to the implementation's
    segment count for ``n``.
    """
    if p == 1:
        return 0.0
    if k is None:
        k = segment_count(-(-n // 2), SEGMENT_BYTES, MAX_SEGMENTS)
    if k < 1:
        raise ConfigError(f"pipeline depth must be >= 1, got {k}")
    seg = n / (2 * k)
    return 2 * (dualroot_depth(p) + k - 1) * (model.a + seg * (model.b + model.c))


def _charge_dualroot_pipelined(model, *, p, h, n, **_kw):
    return (("exchange", t_dualroot_pipelined(model, p, n)),)


DUALROOT_PIPELINED = AllreduceAlgorithm(
    "dualroot_pipelined", allreduce_dualroot_pipelined,
    phases=("exchange",), charge=_charge_dualroot_pipelined,
)
