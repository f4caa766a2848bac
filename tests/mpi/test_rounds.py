"""The point-to-point schedules as round data, checked without a simulation.

Every schedule returns one rank's rounds (``repro.mpi.collectives.base.
Round``; a posted-first round names several peers).  The allreduces
that are one round list are read from the registry: every record that
declares a ``schedule``.  Over p = 2..64 (the trees at radix 2-4, roots
0 and p - 1; the generalized allreduce at its prime factors and at
explicit radices) these tests check that every send meets exactly one
receive, on the same block window, in the receiver's list, that every
window stays inside the vector (and, in the allreduces held as one
vector, inside what the rank holds), and the textbook volumes when the
count is a multiple of p.  One test runs the schedules on cluster B
and checks that the bytes the rounds declare are the bytes the exact
run hands to the transport.  The last two scan the source: point-to-
point calls stay in ``base.run_rounds`` and a few named modules, and
shared-memory node primitives stay in ``core.dpml``'s runner and the
SHArP designs.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import repro.core
import repro.mpi.collectives
from repro.machine.clusters import cluster_b
from repro.mpi import run_job
from repro.mpi.collectives.allgather import doubling_rounds, ring_rounds
from repro.mpi.collectives.base import (
    COMBINE, JOIN, KEEP, PLACE, REPLACE, pof2_below, segment_count,
)
from repro.mpi.collectives.dualroot import MAX_SEGMENTS, SEGMENT_BYTES, tree_rounds
from repro.mpi.collectives.generalized import prime_factors
from repro.mpi.collectives.knomial import knomial_rounds
from repro.mpi.collectives.reduce_scatter import halving_rounds, pairwise_rounds
from repro.mpi.collectives import registry
from repro.mpi.collectives.registry import allreduce_keywords, available_algorithms
from repro.mpi.transport import Transport
from repro.payload import SUM, SymbolicPayload
from repro.payload.payload import split_bounds

P_RANGE = range(2, 65)
ITEMSIZE = 8

#: name -> schedule of every registered allreduce that declares one.
SCHEDULES = {
    name: registry._ALLREDUCE[name].schedule
    for name in available_algorithms()
    if registry._ALLREDUCE[name].schedule is not None
}


def window_bytes(w, bounds):
    """Bytes of block window ``w`` (a ``(lo, hi)`` range or an index)."""
    lo, hi = (w, w + 1) if isinstance(w, int) else w
    return (bounds[hi - 1][1] - bounds[lo][0]) * ITEMSIZE


def sends_of(x):
    """``(dst, window)`` of every message round ``x`` sends."""
    if isinstance(x.dst, tuple):
        return list(zip(x.dst, x.send))
    return [] if x.dst is None else [(x.dst, x.send)]


def recvs_of(x):
    """``(src, window)`` of every message round ``x`` receives."""
    if isinstance(x.src, tuple):
        return list(zip(x.src, x.land))
    return [] if x.src is None else [(x.src, x.land)]


def radix_choices(p):
    """The generalized allreduce's radices at ``p``: the prime factors
    (None), one direct stage, and a two- or three-led split."""
    yield None
    yield (p,)
    if p % 2 == 0 and p > 2:
        yield (2, p // 2)
    if p % 3 == 0 and p > 3:
        yield (3, *prime_factors(p // 3))


def knob_choices(name, p):
    """The keywords an allreduce schedule is checked with at ``p``:
    every radix choice for one that takes ``radices``, else none."""
    if "radices" in allreduce_keywords(name):
        return [{"radices": radices} for radices in radix_choices(p)]
    return [{}]


def allreduce_schedules(p):
    """``(label, nblocks, split, rounds_of(rank))`` of every registered
    allreduce schedule at ``p``, at each of its knob choices."""
    for name, schedule in SCHEDULES.items():
        for knobs in knob_choices(name, p):
            _, nblocks, split = schedule(p, 0, **knobs)
            yield (f"{name}/{knobs}", nblocks, split,
                   lambda r, f=schedule, kw=knobs: f(p, r, **kw).rounds)


def test_the_round_list_allreduces_declare_schedules():
    """A record that drops its schedule would drop out of every check
    below unnoticed."""
    assert {
        "recursive_doubling", "rabenseifner", "ring", "generalized",
        "optimal_rsag", "reduce_bcast",
    } <= set(SCHEDULES)


def schedules(p):
    """``(name, nblocks, rounds_of(rank))`` for every schedule at ``p``."""
    pof2 = pof2_below(p)
    for name, nblocks, _, rounds_of in allreduce_schedules(p):
        yield name, nblocks, rounds_of
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
            sends = [(r, d, x.tag, w) for r, x in flat for d, w in sends_of(x)]
            recvs = [(s, r, x.tag, w) for r, x in flat for s, w in recvs_of(x)]
            assert sorted(sends) == sorted(recvs), (name, p)
            assert all(s != d for s, d in {m[:2] for m in sends}), (name, p)
            for w in {m[3] for m in sends}:
                lo, hi = (w, w + 1) if isinstance(w, int) else w
                assert 0 <= lo < hi <= nblocks, (name, p, w)


def test_allreduce_rounds_send_only_what_they_hold():
    """Replaying each rank's held window (the schedules held as one
    vector): every window it sends or combines into lies inside it, and
    it ends holding the vector."""
    for p in P_RANGE:
        for name, nblocks, split, rounds_of in allreduce_schedules(p):
            if split:
                continue
            for rank in range(p):
                lo, hi = 0, nblocks
                for x in rounds_of(rank):
                    lands = [w for _, w in recvs_of(x)]
                    kept = lands[:1] if x.act == COMBINE else []
                    for w in [w for _, w in sends_of(x)] + kept:
                        assert lo <= w[0] < w[1] <= hi, (name, p, rank, x)
                    if x.act in (COMBINE, REPLACE):
                        lo, hi = lands[0]
                    elif x.act == KEEP:
                        lo, hi = x.land
                    elif x.act == JOIN:
                        ws = sorted([(lo, hi)] + lands)
                        assert all(a[1] == b[0] for a, b in zip(ws, ws[1:])), x
                        lo, hi = ws[0][0], ws[-1][1]
                assert (lo, hi) == (0, nblocks), (name, p, rank)


@pytest.mark.parametrize("p", [2, 4, 8, 16, 32, 64])
def test_power_of_two_volumes(p):
    n = 8 * p  # elements, a multiple of p
    full = n * ITEMSIZE
    for rank in range(p):
        rd = SCHEDULES["recursive_doubling"](p, rank).rounds
        assert len(rd) == p.bit_length() - 1
        assert all(window_bytes(x.send, [(0, n)]) == full for x in rd)
        bounds = split_bounds(n, p)
        sent = sum(window_bytes(x.send, bounds)
                   for x in SCHEDULES["rabenseifner"](p, rank).rounds)
        assert sent == 2 * full * (p - 1) // p


def test_any_p_exchange_volumes():
    """At every p dividing the count, optimal_rsag sends 2n(p - 1)/p per
    rank on average (a partnerless rank of an odd group sends less, the
    rank that takes its window more) and the generalized allreduce sends
    exactly that from every rank, at any radices."""
    for p in P_RANGE:
        n = 8 * p
        full = n * ITEMSIZE
        bounds = split_bounds(n, p)
        want = 2 * full * (p - 1) // p

        def sent(rounds):
            return sum(window_bytes(w, bounds) for x in rounds for _, w in sends_of(x))

        total = sum(sent(SCHEDULES["optimal_rsag"](p, rank).rounds)
                    for rank in range(p))
        assert total == p * want, p
        for radices in radix_choices(p):
            for rank in range(p):
                rounds = SCHEDULES["generalized"](p, rank, radices=radices).rounds
                assert sent(rounds) == want, (p, radices)


def test_ring_steps_and_tree_messages():
    n = 5
    for p in P_RANGE:
        for rank in range(p):
            assert len(SCHEDULES["ring"](p, rank).rounds) == 2 * (p - 1)
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


def declared(p, rounds_of, bounds):
    """The (sender, receiver, bytes) multiset of every rank's rounds."""
    return Counter(
        (r, d, window_bytes(w, bounds))
        for r, x in rounds_by_rank(p, rounds_of) for d, w in sends_of(x)
    )


def dualroot_declared(p, count):
    """The dual-root pipeline: each half in ``k`` segments, each segment
    one run of its tree's rounds."""
    mid = (count + 1) // 2
    out = Counter()
    for tree, half in enumerate((mid, count - mid)):
        k = segment_count(half * ITEMSIZE, SEGMENT_BYTES, MAX_SEGMENTS)
        for lo, hi in split_bounds(half, k):
            out += declared(p, lambda r: tree_rounds(p, r, tree == 1), [(lo, hi)])
    return out


def exact_cases(p, count):
    """``(label, rank fn, declared messages)`` for each schedule the
    exact run is checked against (the allreduce schedules at their
    default keywords)."""
    for name, schedule in SCHEDULES.items():
        def fn(comm, name=name):
            yield from comm.allreduce(SymbolicPayload(count), SUM, algorithm=name)
        yield name, fn, declared(
            p, lambda r, f=schedule: f(p, r).rounds,
            split_bounds(count, schedule(p, 0).nblocks),
        )
    # 2,049 + 2,048 elements: two segments in tree A, one in tree B.
    big = 2 * SEGMENT_BYTES // ITEMSIZE + 1

    def dualroot(comm):
        yield from comm.allreduce(
            SymbolicPayload(big), SUM, algorithm="dualroot_pipelined"
        )
    yield "dualroot_pipelined", dualroot, dualroot_declared(p, big)
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
                yield (f"knomial{radix}/{root}/{up}", fn, declared(
                    p, lambda r, k=radix, t=root, u=up:
                    knomial_rounds(p, r, t, k, 3 + (not u), u),
                    [(0, count)],
                ))

    def allgather(comm):
        yield from comm.allgather(SymbolicPayload(count), algorithm="ring")
    yield ("ring_allgather", allgather, declared(
        p, lambda r: ring_rounds(p, r, r, 0, PLACE), split_bounds(count * p, p)
    ))


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
        for name, fn, messages in exact_cases(p, count):
            seen.clear()
            run_job(cluster_b(-(-p // 4)), p, fn, ppn=4)
            assert Counter(seen) == messages, (name, p)


def stray_calls(directory, own, is_primitive):
    """``module:line function: call`` of every attribute call that
    ``is_primitive(call.func)`` accepts in the functions of the modules
    in ``directory``, but for the code ``own`` names: ``(module,
    function)``, ``"*"`` for every function of the module."""
    stray = []
    for path in sorted(directory.glob("*.py")):
        if (path.name, "*") in own:
            continue
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (path.name, fn.name) in own:
                continue
            stray += [
                f"{path.name}:{node.lineno} {fn.name}: {ast.unparse(node.func)}"
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and is_primitive(node.func)
            ]
    return stray


#: The code outside ``base.run_rounds`` that may still make
#: point-to-point calls: ``(module, function)``, ``"*"`` for every
#: function of the module.
OWN_P2P_CODE = {
    ("base.py", "*"),
    ("gather_scatter.py", "*"),
    ("alltoall.py", "*"),
    ("allgather.py", "allgather_bruck"),
}
P2P_CALLS = {"send", "recv", "sendrecv", "isend", "irecv"}


def test_point_to_point_calls_have_one_home():
    """Every schedule with round data runs through ``base.run_rounds``:
    outside ``base.py`` only gather/scatter, alltoall and Bruck's
    allgather call ``comm.send/recv/sendrecv/isend/irecv``."""
    stray = stray_calls(
        Path(repro.mpi.collectives.__file__).parent, OWN_P2P_CODE,
        lambda func: func.attr in P2P_CALLS,
    )
    assert not stray, stray


#: The one core module that runs shared-memory node steps: the DPML
#: runner, which runs the SHArP designs' node work too.
OWN_NODE_CODE = {("dpml.py", "*")}
NODE_CALLS = {"shm_copy", "gather_sync", "flag_sync"}
REGION_CALLS = {"put", "take", "read"}


def test_node_primitives_have_one_home():
    """Every host-leader design's node work, SHArP's included, is data
    run by ``core.dpml.run_dpml``: outside ``dpml.py`` no
    ``repro.core`` module calls ``shm_copy``, ``gather_sync``,
    ``flag_sync`` or a region's ``put/take/read``."""
    stray = stray_calls(
        Path(repro.core.__file__).parent, OWN_NODE_CODE,
        lambda func: func.attr in NODE_CALLS or (
            func.attr in REGION_CALLS and "region" in ast.unparse(func.value)
        ),
    )
    assert not stray, stray
