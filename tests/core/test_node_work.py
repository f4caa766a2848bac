"""Node work as data, checked against Figures 2 and 8 and the exact run.

Each rank's node work is the :class:`~repro.core.dpml.NodeWork` its
design builds from the leader plan; :func:`~repro.core.dpml.run_dpml`
runs it.  These tests read the work from plans built on the layout
alone (no simulation) and check that

* plain DPML's work is Figure 2's: every rank copies each of the ``l``
  partitions in and out (2·p·l copies), across the socket link exactly
  when leader ``j`` of its node sits on another socket, and leader
  ``j`` combines its node's ``ppn`` deposits of partition ``j``;
* the SHArP designs' work is Figure 8's: every non-leader copies its
  vector in and out once, across the socket link exactly when its node
  design's leader (the node's first rank) sits on another socket and
  never in the socket design; a leader copies nothing and combines its
  group's ``g - 1`` deposits into its own vector;
* every design's work is the exact run's: the ``(rank, bytes, cross)``
  multiset of ``Machine.shm_copy`` calls and the ``(rank, bytes,
  combines)`` multiset of the combines ``core.dpml`` charges through
  ``Machine.compute`` equal the declared ones, for p = 2..33 at ppn 4
  (ragged layouts included), a count no p divides, and count 2 at
  ``l = 4`` (empty partitions); the SHArP designs also at ppn 1 and 2.

Phase 3 is inter-node on these layouts (one leader per node in each
leader communicator, or the switch), so every ``shm_copy`` is a node
copy; its combines are the inter-node collective's own and are left
out.
"""

import sys
from collections import Counter

import pytest

from repro.core.dpml import dpml_work
from repro.core.dpml_bcast import bcast_work
from repro.core.dpml_reduce import reduce_work
from repro.core.leaders import leader_plan
from repro.core.multilevel import multilevel_work
from repro.core.sharp_designs import sharp_work
from repro.core.tuning import TUNING_TABLES
from repro.machine.clusters import cluster_a, cluster_b
from repro.machine.machine import Machine
from repro.mpi import run_job
from repro.mpi.layout import build_layout
from repro.payload import SUM, SymbolicPayload
from repro.payload.payload import split_bounds

PPN = 4
ITEMSIZE = 8
P_RANGE = range(2, 34)
#: A count no p in P_RANGE divides.
COUNT = 37


#: The SHArP designs and whether each groups its ranks by socket.
SHARP_DESIGNS = (("sharp_node_leader", False), ("sharp_socket_leader", True))
#: The SHArP designs' ``(p, ppn)`` layouts: P_RANGE at PPN, then one
#: and two ranks per node.
SHARP_LAYOUTS = (
    [(p, PPN) for p in P_RANGE] + [(p, 1) for p in range(2, 6)]
    + [(p, 2) for p in range(2, 10)]
)


def layout_of(p, ppn=PPN, cluster=cluster_b):
    """The world layout of ``p`` ranks at ``ppn`` on ``cluster``."""
    return build_layout(range(p), Machine(cluster(-(-p // ppn)), p, ppn))


def declared(layout, count, leaders, build, *args, per_socket=False):
    """The copies and combines every rank's declared node work makes."""
    copies, combines = Counter(), Counter()
    for rank in range(len(layout.node)):
        plan = leader_plan(layout, rank, leaders, per_socket)
        nbytes = [(hi - lo) * ITEMSIZE for lo, hi in split_bounds(count, plan.leaders)]
        for steps in build(plan, *args):
            for step in steps:
                if len(step.sources) > 1:
                    combines[(rank, nbytes[step.part], len(step.sources) - 1)] += 1
                if step.key is not None and step.cross is not None:
                    copies[(rank, nbytes[step.part], step.cross)] += 1
    return copies, combines


def figure2(layout, count, leaders):
    """Figure 2's node work on ``layout``, from the layout alone."""
    l = min(leaders, layout.min_ppn)
    nbytes = [(hi - lo) * ITEMSIZE for lo, hi in split_bounds(count, l)]
    copies, combines = Counter(), Counter()
    for ranks in layout.node_ranks.values():
        for j, leader in enumerate(ranks[:l]):
            for rank in ranks:
                cross = layout.socket[rank] != layout.socket[leader]
                copies[(rank, nbytes[j], cross)] += 2  # in and out
            if len(ranks) > 1:
                combines[(leader, nbytes[j], len(ranks) - 1)] += 1
    return copies, combines


def figure8(layout, count, per_socket):
    """The SHArP designs' node work on ``layout``, from the layout alone."""
    nbytes = count * ITEMSIZE
    groups = layout.socket_ranks if per_socket else layout.node_ranks
    copies, combines = Counter(), Counter()
    for leader, *rest in groups.values():
        for rank in rest:
            cross = layout.socket[rank] != layout.socket[leader]
            copies[(rank, nbytes, cross)] += 2  # in and out
        if rest:
            combines[(leader, nbytes, len(rest))] += 1
    return copies, combines


def tuned_row(count):
    """The row ``dpml_tuned`` picks on cluster B for ``count`` elements."""
    nbytes = count * ITEMSIZE
    return next(r for r in TUNING_TABLES["cluster-b"] if nbytes <= r.max_bytes)


def cases(p, count):
    """``(label, rank fn, leaders, build, build args)`` of every case."""
    def allreduce(name, **kw):
        def fn(comm):
            yield from comm.allreduce(
                SymbolicPayload(count), SUM, algorithm=name, **kw
            )
        return fn

    for leaders in (1, 2, 4):
        fn = allreduce("dpml", leaders=leaders)
        yield f"dpml/l={leaders}", fn, leaders, dpml_work, ()
    yield "hierarchical", allreduce("hierarchical"), 1, dpml_work, ()
    yield "dpml_pipelined", allreduce("dpml_pipelined"), 4, dpml_work, ()
    yield "dpml_multilevel", allreduce("dpml_multilevel"), 4, multilevel_work, ()
    row = tuned_row(count)
    assert row.algorithm == "dpml", row
    yield ("dpml_tuned", allreduce("dpml_tuned"),
           dict(row.kwargs)["leaders"], dpml_work, ())
    for root in (0, p - 1):
        def reduce(comm, t=root):
            yield from comm.reduce(
                SymbolicPayload(count), SUM, root=t, algorithm="dpml"
            )

        def bcast(comm, t=root):
            yield from comm.bcast(
                SymbolicPayload(count) if comm.rank == t else None,
                root=t, algorithm="dpml",
            )
        yield f"reduce/{root}", reduce, 4, reduce_work, (root,)
        yield f"bcast/{root}", bcast, 4, bcast_work, (root,)


@pytest.mark.parametrize("count", [COUNT, 2])
def test_dpml_declares_figure_2(count):
    """Plain DPML at l = 1, 2, 4: 2·p·l copies, and the copies and
    combines of Figure 2 on every layout."""
    for p in P_RANGE:
        layout = layout_of(p)
        for leaders in (1, 2, 4):
            copies, combines = declared(layout, count, leaders, dpml_work)
            l = min(leaders, layout.min_ppn)
            assert sum(copies.values()) == 2 * p * l, (p, leaders)
            assert (copies, combines) == figure2(layout, count, leaders), (p, leaders)


@pytest.fixture
def spied(monkeypatch):
    """The copies and the ``core.dpml`` combines of the runs that follow."""
    seen = {"copies": Counter(), "combines": Counter()}
    shm_copy, compute = Machine.shm_copy, Machine.compute

    def copy_spy(self, rank, nbytes, cross_socket=False):
        seen["copies"][(rank, nbytes, cross_socket)] += 1
        return shm_copy(self, rank, nbytes, cross_socket)

    def compute_spy(self, rank, nbytes, combines=1):
        if sys._getframe(1).f_globals.get("__name__") == "repro.core.dpml":
            seen["combines"][(rank, nbytes, combines)] += 1
        return compute(self, rank, nbytes, combines)

    monkeypatch.setattr(Machine, "shm_copy", copy_spy)
    monkeypatch.setattr(Machine, "compute", compute_spy)
    return seen


@pytest.mark.parametrize("count", [COUNT, 2])
def test_declared_node_work_is_the_exact_run_work(spied, count):
    """Every DPML design, the rooted reduce and bcast included: the
    exact run makes exactly the declared copies and combines."""
    for p in P_RANGE:
        layout = layout_of(p)
        for label, fn, leaders, build, args in cases(p, count):
            if count == 2 and leaders != 4:
                continue  # count 2 checks the empty partitions at l = 4
            spied["copies"].clear()
            spied["combines"].clear()
            run_job(cluster_b(-(-p // PPN)), p, fn, ppn=PPN)
            want_copies, want_combines = declared(layout, count, leaders, build, *args)
            assert spied["copies"] == want_copies, (label, p)
            assert spied["combines"] == want_combines, (label, p)


def test_sharp_declares_figure_8():
    """Both SHArP designs: one copy in and one out per non-leader, across
    the socket link exactly when the rank is not on its node's first
    rank's socket (never in the socket design); leaders copy nothing
    and combine their group's g - 1 deposits."""
    for p, ppn in SHARP_LAYOUTS:
        layout = layout_of(p, ppn, cluster_a)
        for name, per_socket in SHARP_DESIGNS:
            copies, combines = declared(
                layout, COUNT, 1, sharp_work, per_socket=per_socket
            )
            want = figure8(layout, COUNT, per_socket)
            assert (copies, combines) == want, (name, p, ppn)
            if per_socket:
                assert not any(cross for _, _, cross in copies), (p, ppn)


def test_sharp_node_work_is_the_exact_run_work(spied):
    """Both SHArP designs on cluster A: the exact run makes exactly the
    declared copies and combines."""
    for p, ppn in SHARP_LAYOUTS:
        layout = layout_of(p, ppn, cluster_a)
        for name, per_socket in SHARP_DESIGNS:
            spied["copies"].clear()
            spied["combines"].clear()

            def fn(comm, name=name):
                yield from comm.allreduce(SymbolicPayload(COUNT), SUM, algorithm=name)

            run_job(cluster_a(-(-p // ppn)), p, fn, ppn=ppn)
            want = declared(layout, COUNT, 1, sharp_work, per_socket=per_socket)
            assert (spied["copies"], spied["combines"]) == want, (name, p, ppn)
