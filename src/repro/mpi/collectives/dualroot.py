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

Here each ``(tree, segment)`` instance runs as an independent
background coroutine (:meth:`~repro.mpi.comm.Comm.icoll`), the same
non-blocking overlap idiom as
:func:`~repro.mpi.collectives.ring.allreduce_ring_segmented` — the
simulator's event engine realises the pipeline overlap without
explicit software pipelining inside a rank.
"""

from __future__ import annotations

from typing import Generator

from repro.core.phases import AllreduceAlgorithm
from repro.errors import ConfigError
from repro.mpi.collectives.base import charged_reduce
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, concat

__all__ = [
    "DUALROOT_PIPELINED",
    "allreduce_dualroot_pipelined",
    "t_dualroot_pipelined",
    "dualroot_depth",
    "dualroot_segments",
    "DEFAULT_SEGMENT_BYTES",
    "MAX_SEGMENTS",
]

#: Default target size of one pipeline segment (bytes per half).
DEFAULT_SEGMENT_BYTES = 16384
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


def dualroot_segments(
    half_nbytes: int, segment_bytes: int = DEFAULT_SEGMENT_BYTES
) -> int:
    """Pipeline segment count ``k`` for one ``half_nbytes``-byte half."""
    if half_nbytes <= 0:
        return 1
    return max(1, min(MAX_SEGMENTS, -(-half_nbytes // segment_bytes)))


def _tree_segment(
    comm, seg: Payload, op: ReduceOp, mirror: bool, up_tag: int, down_tag: int
) -> Generator:
    """One segment through one tree: reduce to the root, broadcast back.

    The tree is heap-indexed over *virtual* ranks (children of ``v``
    are ``2v + 1`` and ``2v + 2``); ``mirror`` maps virtual rank ``v``
    to actual rank ``p - 1 - v``, which roots the tree at ``p - 1``.
    """
    p = comm.size
    virt = (p - 1 - comm.rank) if mirror else comm.rank

    def actual(v: int) -> int:
        return (p - 1 - v) if mirror else v

    children = [c for c in (2 * virt + 1, 2 * virt + 2) if c < p]
    parent = (virt - 1) // 2 if virt > 0 else None

    vec = seg
    for child in children:  # fixed order: deterministic combine
        theirs = yield from comm.recv(actual(child), up_tag)
        vec = yield from charged_reduce(comm, vec, theirs, op)
    if parent is not None:
        yield from comm.send(actual(parent), vec, up_tag)
        vec = yield from comm.recv(actual(parent), down_tag)
    for child in children:
        yield from comm.send(actual(child), vec, down_tag)
    return vec


def allreduce_dualroot_pipelined(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0,
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
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

    requests = []
    for tree, half in enumerate(halves):
        k = dualroot_segments(half.nbytes, segment_bytes)
        # Tree A segments tag from tag_base, tree B from tag_base + 32;
        # two tags (up/down) per segment, so k <= 16 would still fit.
        block = tag_base + 32 * tree
        for s, seg in enumerate(half.split(k)):
            requests.append(
                comm.icoll(
                    _tree_segment,
                    seg,
                    op,
                    tree == 1,
                    block + 2 * s,
                    block + 2 * s + 1,
                )
            )
    results = yield from comm.waitall(requests)
    return concat(results)


def t_dualroot_pipelined(
    model, p: int, n: int, k: "int | None" = None,
    segment_bytes: "int | None" = None,
) -> float:
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
        k = dualroot_segments(-(-n // 2), segment_bytes or DEFAULT_SEGMENT_BYTES)
    if k < 1:
        raise ConfigError(f"pipeline depth must be >= 1, got {k}")
    seg = n / (2 * k)
    return 2 * (dualroot_depth(p) + k - 1) * (model.a + seg * (model.b + model.c))


def _charge_dualroot_pipelined(model, *, p, h, n, segment_bytes=None, **_kw):
    return (
        ("exchange", t_dualroot_pipelined(model, p, n, segment_bytes=segment_bytes)),
    )


DUALROOT_PIPELINED = AllreduceAlgorithm(
    "dualroot_pipelined", allreduce_dualroot_pipelined,
    phases=("exchange",), charge=_charge_dualroot_pipelined,
)
