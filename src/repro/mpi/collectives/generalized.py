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

Each stage is one posted-first :class:`~repro.mpi.collectives.base.Round`
naming its ``r - 1`` peers (every receive is posted before any send,
which is deadlock-free at any radix, and the contributions combine in
ascending subgroup order), so the whole allreduce is the record's
schedule, :func:`generalized_schedule`, one round list on ``p`` blocks
run by :func:`~repro.mpi.collectives.base.run_schedule`.

Choosing all factors equal to 2 recovers recursive halving/doubling
(Rabenseifner); ``r = p`` in one stage is the direct all-to-all
reduce-scatter.  The default factorisation is the prime decomposition
of ``p`` in ascending order — ``ceil(log p)``-ish rounds with no
power-of-two fold for any ``p``; pass ``radices=(...)`` to pick the
stage structure explicitly (:func:`check_radices` validates it).
"""

from __future__ import annotations

import operator
from typing import Optional, Sequence

from repro.core.phases import AllreduceAlgorithm
from repro.errors import ConfigError, MPIError
from repro.mpi.collectives.base import COMBINE, JOIN, Round, Schedule

__all__ = [
    "GENERALIZED",
    "check_radices",
    "generalized_schedule",
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


def check_radices(p: int, radices: Optional[Sequence[int]]) -> tuple:
    """The stage radices for ``p`` ranks: the prime factors of ``p``
    when ``radices`` is None, else ``radices`` as a tuple of ints.
    Raises :class:`~repro.errors.ConfigError` unless ``radices`` is a
    sequence of integers, each >= 2, whose product is ``p``."""
    if radices is None:
        return prime_factors(p)
    try:
        if isinstance(radices, str):
            raise TypeError
        stages = tuple(operator.index(r) for r in radices)
    except TypeError:
        raise ConfigError(
            f"radices must be a sequence of integers, got {radices!r}"
        ) from None
    if any(r < 2 for r in stages):
        raise ConfigError(f"radices must all be >= 2, got {stages}")
    prod = 1
    for r in stages:
        prod *= r
    if prod != p:
        raise ConfigError(
            f"radices {stages} multiply to {prod}, not the group size {p}"
        )
    return stages


def generalized_schedule(
    p: int, rank: int, radices: Optional[Sequence[int]] = None
) -> Schedule:
    """Rank ``rank``'s schedule over ``p`` blocks: one posted-first
    reduce-scatter round per radix (tags from 0), then the allgather
    rounds in reverse (tags from 32)."""
    scatter, gather = [], []
    lo, q = 0, p
    for depth, radix in enumerate(check_radices(p, radices)):
        sub = q // radix
        mine = (rank - lo) // sub  # my subgroup index
        offset = (rank - lo) % sub
        others = [j for j in range(radix) if j != mine]
        peers = tuple(lo + j * sub + offset for j in others)
        parts = tuple((lo + j * sub, lo + (j + 1) * sub) for j in others)
        own = ((lo + mine * sub, lo + (mine + 1) * sub),) * len(others)
        scatter.append(Round(peers, peers, depth, parts, own, COMBINE))
        gather.append(Round(peers, peers, 32 + depth, own, parts, JOIN))
        lo, q = lo + mine * sub, sub
    return Schedule(scatter + gather[::-1], p)


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
    for r in check_radices(p, radices):
        moved = window * (r - 1) / r
        total += 2 * (r - 1) * model.a + moved * (2 * model.b + model.c)
        window /= r
    return total


def _charge_generalized(model, *, p, h, n, radices=None, **_kw):
    return (("exchange", t_generalized(model, p, n, radices)),)


GENERALIZED = AllreduceAlgorithm(
    "generalized", schedule=generalized_schedule,
    phases=("exchange",), charge=_charge_generalized,
)
