"""Unit tests for the SHArP design plan construction and behaviour.

The plans are read from a built layout with
:func:`~repro.core.leaders.leader_plan`, as the SHArP designs read
them: one leader per node, or per socket, and no simulation.
"""

import pytest

from repro.bench.harness import allreduce_latency
from repro.core.leaders import leader_plan
from repro.machine.clusters import cluster_a
from repro.machine.machine import Machine
from repro.mpi.layout import build_layout
from repro.mpi.runtime import Runtime
from repro.payload import SUM, SymbolicPayload


def plans(nranks, ppn, nodes, per_socket):
    layout = build_layout(range(nranks), Machine(cluster_a(nodes), nranks, ppn))
    out = []
    for rank in range(nranks):
        plan = leader_plan(layout, rank, 1, per_socket)
        out.append({
            "leader": plan.node_ranks[0],
            "is_leader": plan.is_leader,
            "n_leaders": plan.n_nodes,
            "group": plan.node_ranks,
        })
    return out


class TestPlanConstruction:
    def test_node_level_one_leader_per_node(self):
        res = plans(8, 4, 2, per_socket=False)
        leaders = {p["leader"] for p in res}
        assert leaders == {0, 4}
        assert all(p["n_leaders"] == 2 for p in res)
        assert sum(p["is_leader"] for p in res) == 2

    def test_socket_level_one_leader_per_socket(self):
        res = plans(8, 4, 2, per_socket=True)
        # scatter placement: local ranks alternate sockets, so each
        # node contributes two leaders.
        assert all(p["n_leaders"] == 4 for p in res)
        assert sum(p["is_leader"] for p in res) == 4

    def test_socket_groups_do_not_cross_sockets(self):
        res = plans(8, 4, 2, per_socket=True)
        machine = Machine(cluster_a(2), 8, 4)
        for rank, p in enumerate(res):
            sockets = {machine.loc(r).socket for r in p["group"]}
            assert len(sockets) == 1

    def test_single_ppn_designs_coincide(self):
        node = plans(4, 1, 4, per_socket=False)
        sock = plans(4, 1, 4, per_socket=True)
        assert node == sock


class TestSharpContention:
    def test_many_outstanding_sharp_ops_serialize(self):
        """The max_outstanding context limit throttles concurrency."""
        config = cluster_a(4)

        def run(concurrent):
            def fn(comm):
                payload = SymbolicPayload(16, 4)
                reqs = [
                    comm.iallreduce(payload, SUM, algorithm="sharp_node_leader")
                    for _ in range(concurrent)
                ]
                yield from comm.waitall(reqs)
                return comm.now

            machine = Machine(config, 8, 2)
            return max(Runtime(machine).launch(fn).values)

        t1 = run(1)
        t2 = run(2)
        t6 = run(6)
        # Two ops fit the two contexts almost for free...
        assert t2 < 1.3 * t1
        # ...but six serialize into three switch batches.
        assert t6 > t1 + 2.5e-6  # ~2 extra tree traversals
        assert t6 > 1.6 * t1

    def test_sharp_latency_insensitive_to_message_within_segment(self):
        config = cluster_a(8)
        t8 = allreduce_latency(config, "sharp_node_leader", 8, ppn=2)
        t200 = allreduce_latency(config, "sharp_node_leader", 200, ppn=2)
        # Both fit one 256-byte segment: near-identical latency.
        assert t200 == pytest.approx(t8, rel=0.1)
