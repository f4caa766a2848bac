"""Shared machinery for collective algorithms: schedules as round data.

A point-to-point schedule is a function that returns one rank's steps
as a list of :class:`Round` records; :func:`run_rounds` is the one
coroutine that runs such a list.  A round names its peers, its tag
offset, the block window it sends and the window the received data
lands on, so what a schedule sends is readable without simulating it.
A round that names several peers is *posted first*: every receive is
posted, then every send, and the arrivals are taken in peer order.

An allreduce that is one round list is declared by its schedule: a
function ``(p, rank, **knobs)`` that returns a :class:`Schedule`, the
rank's rounds and how the vector is cut.  :func:`run_schedule` is the
one runner of every such record.

A segment pipeline is one form too: :func:`segment_count` picks the
number of segments ``k`` and :func:`run_segments` starts all ``k``
non-blocking, waits on them and concatenates the results.

Non-power-of-two handling follows MPICH (:func:`folded`): with
``p = pof2 + rem`` ranks, the first ``2 * rem`` ranks *fold* pairwise
(each even rank sends its vector to its odd neighbour, who combines),
leaving ``pof2`` participants with contiguous "new ranks"; after the
power-of-two phase the result is *unfolded* back to the even ranks.
"""

from __future__ import annotations

from typing import Callable, Generator, NamedTuple, Optional

from repro.errors import MPIError
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, concat, split_bounds

__all__ = [
    "Round",
    "Schedule",
    "COMBINE",
    "JOIN",
    "PLACE",
    "REPLACE",
    "KEEP",
    "pof2_below",
    "actual_rank",
    "folded",
    "run_rounds",
    "run_schedule",
    "segment_count",
    "run_segments",
    "charged_reduce",
    "window",
]

#: What a round does with the data it receives: reduce it into its
#: window, join it to the held window in block order, store it as one
#: block of a block list, or take it as the whole held vector.  A
#: send-only round may ``KEEP`` its ``land`` window of the held vector.
COMBINE, JOIN, PLACE, REPLACE, KEEP = "combine", "join", "place", "replace", "keep"


class Round(NamedTuple):
    """One step of one rank.

    ``dst``/``src`` are comm ranks (``None``: no send/receive); ``tag``
    is an offset in the call's tag block.  ``send`` and ``land`` are
    ``(lo, hi)`` ranges of ``split_bounds`` blocks, or block indices
    when the rank holds a block list (the ring).  A posted-first round
    names several peers: ``dst``/``send`` and ``src``/``land`` are then
    equal-length tuples, one entry per peer.
    """

    dst: Optional[int]
    src: Optional[int]
    tag: int
    send: object
    land: object
    act: Optional[str]


class Schedule(NamedTuple):
    """One rank's rounds of an allreduce over ``nblocks`` ``split_bounds``
    blocks, held as one vector or, when ``split``, as a block list."""

    rounds: list
    nblocks: int = 1
    split: bool = False


def pof2_below(p: int) -> int:
    """Largest power of two that is <= ``p``."""
    if p < 1:
        raise MPIError(f"invalid process count {p}")
    return 1 << (p.bit_length() - 1)


def actual_rank(newrank: int, rem: int) -> int:
    """Inverse of the fold mapping: participant new-rank → comm rank."""
    return 2 * newrank + 1 if newrank < rem else newrank + rem


def folded(p: int, rank: int, nblocks: int, phases) -> list:
    """Rank ``rank``'s rounds: fold to ``pof2`` participants, run
    ``phases(pof2, newrank, rem)`` on them, unfold (tags 0 and 63)."""
    pof2 = pof2_below(p)
    rem = p - pof2
    whole = (0, nblocks)
    if rank >= 2 * rem:
        return phases(pof2, rank - rem, rem)
    if rank % 2 == 0:
        return [Round(rank + 1, None, 0, whole, None, None),
                Round(None, rank + 1, 63, None, whole, REPLACE)]
    return [Round(None, rank - 1, 0, None, whole, COMBINE),
            *phases(pof2, rank // 2, rem),
            Round(rank - 1, None, 63, whole, None, None)]


def run_rounds(
    comm, rounds, data, op: Optional[ReduceOp] = None, tag_base: int = 0,
    bounds=None, held: tuple = (0, 1),
) -> Generator:
    """Run ``rounds`` on ``data`` and return the data they leave.

    ``data`` is a vector holding blocks ``held`` of ``bounds``, or a
    block list (which is updated in place).  A window other than the
    held one is a :func:`window` view of it.
    """
    def part(w):
        if type(w) is int:
            return data[w]
        return data if w == (lo, hi) else window(data, bounds, lo, *w)

    lo, hi = held
    for dst, src, tag, send, land, act in rounds:
        tag += tag_base
        if type(dst) is tuple:
            # Posted first: every receive, then every send.
            recvs = [comm.irecv(peer, tag) for peer in src]
            sends = [comm.isend(peer, part(w), tag) for peer, w in zip(dst, send)]
            mine = part(land[0]) if act == COMBINE else None
            got = {}
            for w, req in zip(land, recvs):
                got[w] = theirs = yield from comm.wait(req)
                if act == COMBINE:
                    mine = yield from charged_reduce(comm, mine, theirs, op)
            yield from comm.waitall(sends)
            theirs, land = mine, land[0]
        else:
            # Both views are cut before the exchange, the kept one too.
            out = None if dst is None else part(send)
            mine = part(land) if act in (COMBINE, KEEP) else None
            if src is None:
                yield from comm.send(dst, out, tag)
                if act is None:
                    continue
                theirs = mine
            elif dst is None:
                theirs = yield from comm.recv(src, tag)
            else:
                theirs = yield from comm.sendrecv(
                    dst, out, source=src, send_tag=tag, recv_tag=tag
                )
            if act == COMBINE:
                theirs = yield from charged_reduce(comm, mine, theirs, op)
            got = {land: theirs}
        if type(land) is int:
            data[land] = theirs
        elif act == JOIN:
            # The held vector and every arrival, in block order.
            got[(lo, hi)] = data
            order = sorted(got)
            data = concat([got[w] for w in order])
            lo, hi = order[0][0], order[-1][1]
        else:
            data, (lo, hi) = theirs, land
    return data


def run_schedule(schedule, comm, payload, op, tag_base=0, **knobs) -> Generator:
    """Run the allreduce ``schedule(p, rank, **knobs)`` declares: a
    copy at ``p = 1``, else its rounds on the vector or its block list."""
    if comm.size == 1:
        return payload.copy()
    rounds, nblocks, split = schedule(comm.size, comm.rank, **knobs)
    if split:
        blocks = yield from run_rounds(comm, rounds, payload.split(nblocks), op, tag_base)
        return concat(blocks)
    result = yield from run_rounds(
        comm, rounds, payload, op, tag_base,
        bounds=split_bounds(payload.count, nblocks), held=(0, nblocks),
    )
    return result


def segment_count(nbytes: int, unit: int, cap: int) -> int:
    """Segments of a pipeline: one per ``unit`` bytes, from 1 to ``cap``."""
    return max(1, min(cap, -(-nbytes // unit)))


def run_segments(comm, segments, start: Callable) -> Generator:
    """A segment pipeline: ``start(segment)`` issues one segment as a
    non-blocking request; all are in flight before the one wait, and
    their results are concatenated in order."""
    results = yield from comm.waitall([start(seg) for seg in segments])
    return concat(results)


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
