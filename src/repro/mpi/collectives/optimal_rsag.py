"""Optimal non-pipelined reduce-scatter/allgather allreduce
(arXiv:2410.14234).

Rabenseifner's classic reaches the bandwidth-optimal ``2n(p-1)/p``
bytes per rank only for power-of-two ``p``; otherwise the MPICH fold
makes the ``2·rem`` edge ranks ship a *full* extra vector before the
halving even starts.  The optimal construction recurses directly on
arbitrary group sizes instead:

* **reduce-scatter** — the group ``[lo, hi)`` splits into a left part
  of ``ceil(q/2)`` ranks and a right part of ``floor(q/2)`` ranks;
  left rank ``lo + i`` exchanges window halves with right rank
  ``mid + i``.  When ``q`` is odd the last left rank has no partner:
  it ships its right-half window to the last right rank (which
  therefore combines two incoming contributions) and keeps its left
  half un-augmented.  Every discarded window part is received and
  reduced exactly once, so after ``ceil(lg q)`` rounds rank ``r``
  holds block ``r`` of the fully reduced vector;
* **allgather** — the recorded rounds replayed in reverse: partners
  swap their gathered windows, and the odd-group extra edge runs
  backwards (the last right rank sends its window twice).

Per-rank traffic is ``~2n(p-1)/p`` for *any* ``p`` in
``2·ceil(lg p)`` rounds — the non-pipelined optimum.
"""

from __future__ import annotations

from typing import Generator

from repro.core.model import _lg_ceil
from repro.core.phases import AllreduceAlgorithm
from repro.mpi.collectives.base import charged_reduce, window
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, concat, split_bounds

__all__ = ["OPTIMAL_RSAG", "allreduce_optimal_rsag", "t_optimal_rsag"]


def _halving_rounds(p: int) -> list:
    """The shared split schedule: ``(lo, mid, hi)`` per round per rank.

    Returned per-rank: ``rounds[r]`` is the chronological list of
    groups rank ``r`` descends through.  Computed identically on every
    rank (pure function of ``p``), so partners always agree on the
    round structure and its depth-indexed tags.
    """
    rounds: list = [[] for _ in range(p)]
    groups = [(0, p)]
    while groups:
        nxt = []
        for lo, hi in groups:
            q = hi - lo
            if q == 1:
                continue
            mid = lo + (q + 1) // 2  # left gets ceil(q/2) ranks
            for r in range(lo, hi):
                rounds[r].append((lo, mid, hi))
            nxt.append((lo, mid))
            nxt.append((mid, hi))
        groups = nxt
    return rounds


def allreduce_optimal_rsag(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0
) -> Generator:
    """Allreduce via direct non-power-of-two halving; any process count."""
    p = comm.size
    rank = comm.rank
    if p == 1:
        return payload.copy()

    bounds = split_bounds(payload.count, p)
    schedule = _halving_rounds(p)[rank]

    # -- reduce-scatter: descend the split schedule --------------------------
    vec = payload
    for depth, (lo, mid, hi) in enumerate(schedule):
        q = hi - lo
        tag = tag_base + depth
        if rank < mid:
            i = rank - lo
            keep = window(vec, bounds, lo, lo, mid)
            give = window(vec, bounds, lo, mid, hi)
            partner = mid + i
            if partner < hi:
                theirs = yield from comm.sendrecv(
                    partner, give, source=partner, send_tag=tag, recv_tag=tag
                )
                vec = yield from charged_reduce(comm, keep, theirs, op)
            else:
                # Odd group: no right partner.  The right window still
                # has to reach the right part exactly once — hand it to
                # the last right rank; nothing comes back.
                yield from comm.send(hi - 1, give, tag)
                vec = keep
        else:
            keep = window(vec, bounds, lo, mid, hi)
            give = window(vec, bounds, lo, lo, mid)
            partner = lo + (rank - mid)
            theirs = yield from comm.sendrecv(
                partner, give, source=partner, send_tag=tag, recv_tag=tag
            )
            vec = yield from charged_reduce(comm, keep, theirs, op)
            if q % 2 == 1 and rank == hi - 1:
                extra = yield from comm.recv(mid - 1, tag)
                vec = yield from charged_reduce(comm, vec, extra, op)

    # -- allgather: replay the schedule in reverse ---------------------------
    for depth in range(len(schedule) - 1, -1, -1):
        lo, mid, hi = schedule[depth]
        q = hi - lo
        tag = tag_base + 32 + depth
        if rank < mid:
            partner = mid + (rank - lo)
            if partner < hi:
                theirs = yield from comm.sendrecv(
                    partner, vec, source=partner, send_tag=tag, recv_tag=tag
                )
            else:
                theirs = yield from comm.recv(hi - 1, tag)
            vec = concat([vec, theirs])
        else:
            partner = lo + (rank - mid)
            theirs = yield from comm.sendrecv(
                partner, vec, source=partner, send_tag=tag, recv_tag=tag
            )
            if q % 2 == 1 and rank == hi - 1:
                yield from comm.send(mid - 1, vec, tag)
            vec = concat([theirs, vec])

    return vec


def t_optimal_rsag(model, p: int, n: int) -> float:
    """Closed-form cost under ``model``: ``2 ceil(lg p)`` rounds moving
    the bandwidth-optimal ``2 n (p-1)/p`` bytes for *any* ``p``."""
    if p == 1:
        return 0.0
    traffic = n * (p - 1) / p
    return 2 * _lg_ceil(p) * model.a + traffic * (2 * model.b + model.c)


def _charge_optimal_rsag(model, *, p, h, n, **_kw):
    return (("exchange", t_optimal_rsag(model, p, n)),)


OPTIMAL_RSAG = AllreduceAlgorithm(
    "optimal_rsag", allreduce_optimal_rsag,
    phases=("exchange",), charge=_charge_optimal_rsag,
)
