"""Barrier correctness under adversarial arrival patterns.

The exact barrier is node-aware: each node's first member is its
leader, the other members fan in to it, the leaders run dissemination
rounds among themselves, and each leader releases its node.  The
property tests cover every layout that changes who leads or how many
leaders there are.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.clusters import cluster_b
from repro.machine.machine import Machine
from repro.mpi import run_job
from repro.mpi.runtime import Runtime
from repro.traffic.fabric import SharedFabric

DELAYS = st.lists(st.floats(0, 1e-3), min_size=16, max_size=16)


def _arrive_and_leave(delays, split=None):
    """Rank function: wait ``delays[world rank]``, then barrier.

    With ``split``, the barrier runs on ``comm.split(*split(comm))``.
    Returns ``(color, arrived, left)``.
    """

    def fn(comm):
        color = 0
        if split is not None:
            color, key = split(comm)
            comm = yield from comm.split(color, key=key)
        yield comm.sim.timeout(delays[comm.world_rank])
        arrived = comm.now
        yield from comm.barrier()
        return (color, arrived, comm.now)

    return fn


def assert_no_early_exit(values):
    """No member of a communicator leaves before its last arrival."""
    by_color = {}
    for color, arrived, left in values:
        by_color.setdefault(color, []).append((arrived, left))
    for pairs in by_color.values():
        last_arrival = max(arrived for arrived, _ in pairs)
        assert all(left >= last_arrival for _, left in pairs)


@given(
    nranks=st.integers(2, 14),
    delays=st.lists(st.floats(0, 1e-3), min_size=14, max_size=14),
)
@settings(max_examples=30, deadline=None)
def test_property_no_rank_exits_before_last_arrival(nranks, delays):
    """The defining barrier property, for any arrival pattern."""
    delays = delays[:nranks]

    def fn(comm):
        yield comm.sim.timeout(delays[comm.rank])
        arrived = comm.now
        yield from comm.barrier()
        return (arrived, comm.now)

    ppn = min(4, nranks)
    nodes = -(-nranks // ppn)
    job = run_job(cluster_b(nodes), nranks, fn, ppn=ppn)
    last_arrival = max(arrived for arrived, _ in job.values)
    for arrived, left in job.values:
        assert left >= last_arrival


@given(
    ppn=st.integers(2, 5),
    full_nodes=st.integers(1, 2),
    extra=st.integers(1, 4),
    delays=DELAYS,
)
@settings(max_examples=20, deadline=None)
def test_property_partial_last_node(ppn, full_nodes, extra, delays):
    """The last node holds fewer members than the others."""
    extra = 1 + (extra - 1) % (ppn - 1)
    nranks = full_nodes * ppn + extra
    job = run_job(
        cluster_b(full_nodes + 1), nranks, _arrive_and_leave(delays), ppn=ppn
    )
    assert_no_early_exit(job.values)


@given(nranks=st.integers(2, 16), delays=DELAYS)
@settings(max_examples=20, deadline=None)
def test_property_one_rank_per_node(nranks, delays):
    """``ppn = 1``: every rank leads its node, only leader rounds run."""
    job = run_job(cluster_b(nranks), nranks, _arrive_and_leave(delays), ppn=1)
    assert_no_early_exit(job.values)


@given(nranks=st.integers(2, 16), delays=DELAYS)
@settings(max_examples=20, deadline=None)
def test_property_one_node(nranks, delays):
    """One node: one leader, no leader rounds."""
    job = run_job(cluster_b(1), nranks, _arrive_and_leave(delays), ppn=nranks)
    assert_no_early_exit(job.values)


@given(
    nodes=st.integers(2, 3),
    ppn=st.integers(4, 5),
    delays=DELAYS,
)
@settings(max_examples=20, deadline=None)
def test_property_split_interleaving_nodes(nodes, ppn, delays):
    """A ``split`` sub-communicator whose comm ranks alternate between
    nodes."""

    def interleave(comm):
        node, local = divmod(comm.rank, ppn)
        return comm.rank % 2, local * nodes + node

    def check_layout(comm):
        sub = yield from comm.split(*interleave(comm))
        return sub.layout.node

    nranks = nodes * ppn
    layouts = run_job(cluster_b(nodes), nranks, check_layout, ppn=ppn).values
    assert all(list(node) != sorted(node) for node in layouts)
    job = run_job(
        cluster_b(nodes), nranks, _arrive_and_leave(delays, interleave), ppn=ppn
    )
    assert_no_early_exit(job.values)


@given(
    nranks=st.integers(2, 14),
    ppn=st.integers(1, 4),
    delays=DELAYS,
)
@settings(max_examples=20, deadline=None)
def test_property_tenant_on_shared_fabric(nranks, ppn, delays):
    """A tenant ``Machine`` whose nodes are non-contiguous fabric nodes
    in descending order, so leader order differs from placement order."""
    hosts = -(-nranks // ppn)
    fabric = SharedFabric(cluster_b(2 * hosts))
    node_map = tuple(range(2 * hosts - 2, -1, -2))
    machine = Machine(fabric.config, nranks, ppn, fabric=fabric, nodes=node_map)
    job = Runtime(machine).launch(_arrive_and_leave(delays))
    assert_no_early_exit(job.values)


def test_back_to_back_barriers_do_not_interfere():
    def fn(comm):
        times = []
        for _ in range(5):
            yield from comm.barrier()
            times.append(comm.now)
        return times

    job = run_job(cluster_b(2), 8, fn, ppn=4)
    for times in job.values:
        assert all(a < b for a, b in zip(times, times[1:]))
    # Barrier k releases nobody before every rank has left barrier k - 1.
    for k in range(1, 5):
        assert min(t[k] for t in job.values) >= max(t[k - 1] for t in job.values)


def test_one_barrier_message_counts():
    """16 x 28 on cluster B: 16 leaders x 4 rounds cross the network;
    27 members per node fan in and are released, two copies each."""

    def fn(comm):
        yield from comm.barrier()

    job = run_job(cluster_b(16), 16 * 28, fn, ppn=28, trace=True)
    assert job.tracer.count("net-send") == 16 * 4
    assert job.tracer.count("copy") == 1728


def test_barrier_cost_scales_logarithmically():
    def timed(nranks, nodes, ppn):
        def fn(comm):
            yield from comm.barrier()  # absorb startup skew
            t0 = comm.now
            yield from comm.barrier()
            return comm.now - t0

        return max(run_job(cluster_b(nodes), nranks, fn, ppn=ppn).values)

    t8 = timed(8, 8, 1)
    t64 = timed(64, 64, 1)
    # At ppn = 1 every rank leads its node, so only the leaders'
    # dissemination rounds run: lg(64)/lg(8) = 2x rounds, not 8x.
    assert t64 < 4 * t8
