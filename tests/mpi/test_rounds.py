"""The point-to-point schedules as round data, checked without a simulation.

Every schedule returns one rank's rounds (``repro.mpi.collectives.base.
Round``).  Over p = 2..64 (the trees at radix 2-4, roots 0 and p - 1)
these tests check that every send meets exactly one receive, on the
same block window, in the receiver's list, that every window stays
inside the vector (and, in the allreduces, inside what the rank
holds), and the textbook volumes when the count is a multiple of p.
The last test runs the schedules on cluster B and checks that the
bytes the rounds declare are the bytes the exact run hands to the
transport.
"""

from collections import Counter

import pytest

from repro.machine.clusters import cluster_b
from repro.mpi import run_job
from repro.mpi.collectives.allgather import doubling_rounds, ring_rounds
from repro.mpi.collectives.base import (
    APPEND, COMBINE, PLACE, PREPEND, REPLACE, pof2_below,
)
from repro.mpi.collectives.dualroot import tree_rounds
from repro.mpi.collectives.knomial import knomial_rounds
from repro.mpi.collectives.rabenseifner import rabenseifner_rounds
from repro.mpi.collectives.recursive_doubling import recursive_doubling_rounds
from repro.mpi.collectives.reduce_scatter import halving_rounds, pairwise_rounds
from repro.mpi.transport import Transport
from repro.payload import SUM, SymbolicPayload
from repro.payload.payload import split_bounds

P_RANGE = range(2, 65)
ITEMSIZE = 8


def window_bytes(w, bounds):
    """Bytes of block window ``w`` (a ``(lo, hi)`` range or an index)."""
    lo, hi = (w, w + 1) if isinstance(w, int) else w
    return (bounds[hi - 1][1] - bounds[lo][0]) * ITEMSIZE


def ring_allreduce_rounds(p, rank):
    return (ring_rounds(p, rank, rank, 0, COMBINE)
            + ring_rounds(p, rank, rank + 1, 32, PLACE))


def schedules(p):
    """``(name, nblocks, rounds_of(rank))`` for every schedule at ``p``."""
    pof2 = pof2_below(p)
    yield "recursive_doubling", 1, lambda r: recursive_doubling_rounds(p, r)
    yield "rabenseifner", pof2, lambda r: rabenseifner_rounds(p, r)
    yield "ring", p, lambda r: ring_allreduce_rounds(p, r)
    yield "ring_allgather", p, lambda r: ring_rounds(p, r, r, 0, PLACE)
    yield "pairwise", p, lambda r: pairwise_rounds(p, r)
    if p == pof2:
        yield "halving", p, lambda r: halving_rounds(p, r)
        yield "doubling", p, lambda r: doubling_rounds(p, r)
    for radix in (2, 3, 4):
        for root in (0, p - 1):
            for up in (True, False):
                yield (f"knomial{radix}/{root}/{'up' if up else 'down'}", 1,
                       lambda r, k=radix, t=root, u=up:
                       knomial_rounds(p, r, t, k, 3, u))
    for mirror in (False, True):
        yield f"tree/{mirror}", 1, lambda r, m=mirror: tree_rounds(p, r, m)


def rounds_by_rank(p, rounds_of):
    return [(rank, rd) for rank in range(p) for rd in rounds_of(rank)]


def test_every_send_meets_one_receive_inside_the_vector():
    """Each send from s to r with tag t meets one receive at r from s
    with tag t, landing on the same block window it was sent from."""
    for p in P_RANGE:
        for name, nblocks, rounds_of in schedules(p):
            flat = rounds_by_rank(p, rounds_of)
            sends = [(r, x.dst, x.tag, x.send) for r, x in flat if x.dst is not None]
            recvs = [(x.src, r, x.tag, x.land) for r, x in flat if x.src is not None]
            assert sorted(sends) == sorted(recvs), (name, p)
            assert all(s != d for s, d in {m[:2] for m in sends}), (name, p)
            for w in {m[3] for m in sends}:
                lo, hi = (w, w + 1) if isinstance(w, int) else w
                assert 0 <= lo < hi <= nblocks, (name, p, w)


def test_allreduce_rounds_send_only_what_they_hold():
    """Replaying each rank's held window: every window it sends or
    combines into lies inside it, and it ends holding the vector."""
    for p in P_RANGE:
        pof2 = pof2_below(p)
        for rounds_of, nblocks in ((recursive_doubling_rounds, 1),
                                   (rabenseifner_rounds, pof2)):
            for rank in range(p):
                lo, hi = 0, nblocks
                for x in rounds_of(p, rank):
                    for w in (x.send, x.land if x.act == COMBINE else None):
                        assert w is None or lo <= w[0] < w[1] <= hi, (p, rank, x)
                    if x.act in (COMBINE, REPLACE):
                        lo, hi = x.land
                    elif x.act in (APPEND, PREPEND):
                        lo, hi = min(lo, x.land[0]), max(hi, x.land[1])
                assert (lo, hi) == (0, nblocks), (p, rank)


@pytest.mark.parametrize("p", [2, 4, 8, 16, 32, 64])
def test_power_of_two_volumes(p):
    n = 8 * p  # elements, a multiple of p
    full = n * ITEMSIZE
    for rank in range(p):
        rd = recursive_doubling_rounds(p, rank)
        assert len(rd) == p.bit_length() - 1
        assert all(window_bytes(x.send, [(0, n)]) == full for x in rd)
        bounds = split_bounds(n, p)
        sent = sum(window_bytes(x.send, bounds) for x in rabenseifner_rounds(p, rank))
        assert sent == 2 * full * (p - 1) // p


def test_ring_steps_and_tree_messages():
    n = 5
    for p in P_RANGE:
        for rank in range(p):
            assert len(ring_allreduce_rounds(p, rank)) == 2 * (p - 1)
        whole = [(0, n * p)]
        for radix in (2, 3, 4):
            for root in (0, p - 1):
                for up in (True, False):
                    flat = rounds_by_rank(
                        p, lambda r: knomial_rounds(p, r, root, radix, 3, up)
                    )
                    sent = [window_bytes(x.send, whole)
                            for _, x in flat if x.dst is not None]
                    assert sent == [n * p * ITEMSIZE] * (p - 1)


def reduce_bcast_rounds(p, rank):
    return (knomial_rounds(p, rank, 0, 2, 3, True)
            + knomial_rounds(p, rank, 0, 2, 8, False))


def exact_cases(p, count):
    """``(label, rank fn, elements, nblocks, rounds_of)`` for each
    schedule the exact run is checked against."""
    for name, rounds_of, nblocks in (
        ("rabenseifner", rabenseifner_rounds, pof2_below(p)),
        ("recursive_doubling", recursive_doubling_rounds, 1),
        ("ring", ring_allreduce_rounds, p),
        ("reduce_bcast", reduce_bcast_rounds, 1),
    ):
        def fn(comm, name=name):
            yield from comm.allreduce(SymbolicPayload(count), SUM, algorithm=name)
        yield name, fn, count, nblocks, lambda r, f=rounds_of: f(p, r)
    for radix in (2, 3, 4):
        for root in (0, p - 1):
            def reduce(comm, k=radix, t=root):
                yield from comm.reduce(
                    SymbolicPayload(count), SUM, root=t, algorithm="knomial", radix=k
                )

            def bcast(comm, k=radix, t=root):
                yield from comm.bcast(
                    SymbolicPayload(count) if comm.rank == t else None,
                    root=t, algorithm="knomial", radix=k,
                )
            for fn, up in ((reduce, True), (bcast, False)):
                yield (f"knomial{radix}/{root}/{up}", fn, count, 1,
                       lambda r, k=radix, t=root, u=up:
                       knomial_rounds(p, r, t, k, 3 + (not u), u))

    def allgather(comm):
        yield from comm.allgather(SymbolicPayload(count), algorithm="ring")
    yield ("ring_allgather", allgather, count * p, p,
           lambda r: ring_rounds(p, r, r, 0, PLACE))


def test_declared_bytes_are_the_exact_run_bytes(monkeypatch):
    """p = 2..33 at ppn = 4 (peers on and off the node), a count that
    no p divides: the (sender, receiver, bytes) multiset of the rounds
    equals the one passed to ``Transport.isend``."""
    seen = []
    isend = Transport.isend

    def spy(self, src, dst, payload, tag, context):
        seen.append((src, dst, payload.nbytes))
        return isend(self, src, dst, payload, tag, context)

    monkeypatch.setattr(Transport, "isend", spy)
    count = 37
    for p in range(2, 34):
        for name, fn, total, nblocks, rounds_of in exact_cases(p, count):
            bounds = split_bounds(total, nblocks)
            declared = Counter(
                (r, x.dst, window_bytes(x.send, bounds))
                for r, x in rounds_by_rank(p, rounds_of) if x.dst is not None
            )
            seen.clear()
            run_job(cluster_b(-(-p // 4)), p, fn, ppn=4)
            assert Counter(seen) == declared, (name, p)
