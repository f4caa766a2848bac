"""Kolmakov & Zhang's generalized allreduce (arXiv:2004.09362).

A single recursive construction that contains the classic algorithms
as special cases: factor ``p = r_1 · r_2 · ... · r_k`` and run one
data-partitioning exchange stage per factor.  At a stage with group
size ``q`` and radix ``r``, the group splits into ``r`` contiguous
subgroups of ``q / r`` ranks; each rank partitions its current window
into ``r`` parts, keeps the part belonging to its own subgroup, and
exchanges the other ``r - 1`` parts with its *peers* — the ranks at
the same offset inside the other subgroups.  The recursion then
continues inside the subgroup on a window ``r`` times smaller; the
matching allgather stages replay the exchanges in reverse.

Choosing all factors equal to 2 recovers recursive halving/doubling
(Rabenseifner); ``r = p`` in one stage is the direct all-to-all
reduce-scatter.  The default factorisation is the prime decomposition
of ``p`` in ascending order — ``ceil(log p)``-ish rounds with no
power-of-two fold for any ``p``; pass ``radices=(...)`` to pick the
stage structure explicitly.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.core.phases import AllreduceAlgorithm
from repro.errors import MPIError
from repro.mpi.collectives.base import charged_reduce, window
from repro.payload.ops import ReduceOp
from repro.payload.payload import Payload, concat, split_bounds

__all__ = [
    "GENERALIZED",
    "allreduce_generalized",
    "prime_factors",
    "t_generalized",
]


def prime_factors(p: int) -> tuple:
    """Prime factorisation of ``p`` in ascending order (empty for 1)."""
    if p < 1:
        raise MPIError(f"invalid process count {p}")
    factors = []
    d = 2
    while d * d <= p:
        while p % d == 0:
            factors.append(d)
            p //= d
        d += 1
    if p > 1:
        factors.append(p)
    return tuple(factors)


def _resolve_radices(p: int, radices: Optional[Sequence[int]]) -> tuple:
    if radices is None:
        return prime_factors(p)
    radices = tuple(int(r) for r in radices)
    if any(r < 2 for r in radices):
        raise MPIError(f"radices must all be >= 2, got {radices}")
    prod = 1
    for r in radices:
        prod *= r
    if prod != p:
        raise MPIError(
            f"radices {radices} multiply to {prod}, not the group size {p}"
        )
    return radices


def _exchange(comm, parts, mine: int, peers, tag: int, op: Optional[ReduceOp]) -> Generator:
    """One stage's peer exchange among the ``r`` same-offset ranks.

    All receives are posted before any send (deadlock-safe for any
    radix).  In the reduce-scatter direction (``op`` given) part ``j``
    goes to the subgroup-``j`` peer and the incoming contributions
    combine into ``parts[mine]`` in ascending subgroup order, so every
    rank reduces deterministically.  With ``op`` None the stage runs
    backwards as an allgather step: ``parts[mine]`` goes to every peer
    and peer ``j``'s window lands in slot ``j``.
    """
    recvs = [(j, comm.irecv(peer, tag)) for j, peer in peers if j != mine]
    sends = [
        comm.isend(peer, parts[mine] if op is None else parts[j], tag)
        for j, peer in peers
        if j != mine
    ]
    gathered = list(parts)
    for j, req in recvs:
        theirs = yield from comm.wait(req)
        if op is None:
            gathered[j] = theirs
        else:
            gathered[mine] = yield from charged_reduce(
                comm, gathered[mine], theirs, op
            )
    yield from comm.waitall(sends)
    return gathered


def allreduce_generalized(
    comm, payload: Payload, op: ReduceOp, tag_base: int = 0,
    radices: Optional[Sequence[int]] = None,
) -> Generator:
    """Mixed-radix reduce-scatter + allgather allreduce; any ``p``."""
    p = comm.size
    rank = comm.rank
    if p == 1:
        return payload.copy()
    stages = _resolve_radices(p, radices)

    bounds = split_bounds(payload.count, p)
    # -- reduce-scatter stages ----------------------------------------------
    vec = payload
    lo, q = 0, p
    plan = []  # (lo, q, radix, mine, peers) per stage, for the reverse
    for depth, radix in enumerate(stages):
        sub = q // radix
        mine = (rank - lo) // sub  # my subgroup index
        offset = (rank - lo) % sub
        peers = tuple(
            (j, lo + j * sub + offset) for j in range(radix)
        )
        parts = [
            window(vec, bounds, lo, lo + j * sub, lo + (j + 1) * sub)
            for j in range(radix)
        ]
        gathered = yield from _exchange(
            comm, parts, mine, peers, tag_base + depth, op
        )
        vec = gathered[mine]
        plan.append((lo, q, radix, mine, peers))
        lo, q = lo + mine * sub, sub

    # -- allgather stages (reverse) -----------------------------------------
    for depth in range(len(plan) - 1, -1, -1):
        lo, q, radix, mine, peers = plan[depth]
        parts = [vec if j == mine else None for j in range(radix)]
        gathered = yield from _exchange(
            comm, parts, mine, peers, tag_base + 32 + depth, None
        )
        vec = concat(gathered)

    return vec


def t_generalized(
    model, p: int, n: int, radices: Optional[Sequence[int]] = None
) -> float:
    """Closed-form cost under ``model``.

    One reduce-scatter plus one allgather exchange stage per factor of
    ``p``; stage ``i`` at radix ``r`` trades ``r - 1`` messages of
    ``window / r`` bytes each way.  ``radices`` defaults to the
    implementation's prime factorisation of ``p``.
    """
    if p == 1:
        return 0.0
    total = 0.0
    window = float(n)
    for r in _resolve_radices(p, radices):
        moved = window * (r - 1) / r
        total += 2 * (r - 1) * model.a + moved * (2 * model.b + model.c)
        window /= r
    return total


def _charge_generalized(model, *, p, h, n, radices=None, **_kw):
    return (("exchange", t_generalized(model, p, n, radices)),)


GENERALIZED = AllreduceAlgorithm(
    "generalized", allreduce_generalized,
    phases=("exchange",), charge=_charge_generalized,
)
