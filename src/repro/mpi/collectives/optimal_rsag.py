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

The record's schedule, :func:`optimal_rsag_schedule`, declares one
rank's rounds on ``p`` blocks: the rank walks only its own descent
through the groups, ``ceil(lg p)`` splits, and
:func:`~repro.mpi.collectives.base.run_schedule` runs the list.
"""

from __future__ import annotations

from repro.core.model import _lg_ceil
from repro.core.phases import AllreduceAlgorithm
from repro.mpi.collectives.base import COMBINE, JOIN, KEEP, Round, Schedule

__all__ = [
    "OPTIMAL_RSAG",
    "optimal_rsag_schedule",
    "t_optimal_rsag",
]


def optimal_rsag_schedule(p: int, rank: int) -> Schedule:
    """Rank ``rank``'s schedule over ``p`` blocks: the reduce-scatter
    descent (tag = depth), then the allgather replaying it backwards
    (tag = 32 + depth)."""
    scatter, gather = [], []
    lo, hi = 0, p
    depth = 0
    while hi - lo > 1:
        mid = lo + (hi - lo + 1) // 2  # left gets ceil(q/2) ranks
        left, right = (lo, mid), (mid, hi)
        if rank < mid:
            partner = mid + rank - lo
            if partner < hi:
                scatter.append(Round(partner, partner, depth, right, left, COMBINE))
                back = [Round(partner, partner, 32 + depth, left, right, JOIN)]
            else:
                # Odd group: no right partner.  The right window still
                # has to reach the right part exactly once — hand it to
                # the last right rank; nothing comes back.
                scatter.append(Round(hi - 1, None, depth, right, left, KEEP))
                back = [Round(None, hi - 1, 32 + depth, None, right, JOIN)]
            hi = mid
        else:
            partner = lo + rank - mid
            scatter.append(Round(partner, partner, depth, left, right, COMBINE))
            back = [Round(partner, partner, 32 + depth, right, left, JOIN)]
            if (hi - lo) % 2 and rank == hi - 1:
                # The last right rank also takes the partnerless left
                # rank's window, and sends its own back to it.
                scatter.append(Round(None, mid - 1, depth, None, right, COMBINE))
                back.append(Round(mid - 1, None, 32 + depth, right, None, None))
            lo = mid
        gather.append(back)
        depth += 1
    return Schedule(scatter + [x for back in reversed(gather) for x in back], p)


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
    "optimal_rsag", schedule=optimal_rsag_schedule,
    phases=("exchange",), charge=_charge_optimal_rsag,
)
