"""The per-communicator layout: one build per group, equal to a scan."""

from collections import Counter

import numpy as np
import pytest

import repro.mpi.comm as comm_mod
from repro.errors import ConfigError
from repro.machine.clusters import cluster_a, cluster_b
from repro.machine.config import MachineConfig, NodeConfig
from repro.machine.machine import Machine
from repro.machine.topology import Placement
from repro.mpi.runtime import Runtime, run_job
from repro.payload import SUM, SymbolicPayload, make_payload
from repro.resilience import RecoveryPolicy, isolation_plan
from repro.traffic.fabric import SharedFabric, TenantMachine


def scanned(comm):
    """The layout's fields by a brute-force scan of the membership."""
    machine = comm.machine
    locs = [machine.loc(comm.translate(r)) for r in range(comm.size)]
    node_ranks, socket_ranks = {}, {}
    for r, loc in enumerate(locs):
        node_ranks.setdefault(loc.node, []).append(r)
        socket_ranks.setdefault((loc.node, loc.socket), []).append(r)
    return {
        "node": tuple(loc.node for loc in locs),
        "node_ranks": {n: tuple(v) for n, v in node_ranks.items()},
        "socket_ranks": {k: tuple(v) for k, v in socket_ranks.items()},
        "nodes": tuple(sorted(node_ranks)),
        "min_ppn": min(len(v) for v in node_ranks.values()),
        "multinode": len(node_ranks) > 1,
    }


def fields(layout):
    return {
        "node": layout.node,
        "node_ranks": dict(layout.node_ranks),
        "socket_ranks": dict(layout.socket_ranks),
        "nodes": layout.nodes,
        "min_ppn": layout.min_ppn,
        "multinode": layout.multinode,
    }


def matches_scan(comm):
    return fields(comm.layout) == scanned(comm)


class TestLayoutMatchesScan:
    def test_world(self):
        def fn(comm):
            yield comm.sim.timeout(0)
            return matches_scan(comm)

        assert all(run_job(cluster_b(4), 16, fn, ppn=4).values)

    def test_split_and_dup(self):
        def fn(comm):
            # Odd/even split keeps every node but halves each node's ranks.
            half = yield from comm.split(comm.rank % 2, key=-comm.rank)
            node = yield from comm.split(comm.machine.node_of(comm.world_rank))
            dup = yield from comm.dup()
            return (
                matches_scan(half), matches_scan(node), matches_scan(dup),
                node.layout.multinode, dup.layout is not comm.layout,
            )

        res = run_job(cluster_b(4), 16, fn, ppn=4)
        assert all(v == (True, True, True, False, True) for v in res.values)

    def test_ragged(self):
        # 10 ranks at ppn 4: the last node holds only two.
        def fn(comm):
            yield comm.sim.timeout(0)
            return (matches_scan(comm), comm.layout.min_ppn)

        res = run_job(cluster_b(3), 10, fn, ppn=4)
        assert all(v == (True, 2) for v in res.values)

    def test_bunch_placement(self):
        config = MachineConfig(
            nodes=2,
            node=NodeConfig(sockets=2, cores_per_socket=4),
            placement="bunch",
        )

        def fn(comm):
            yield comm.sim.timeout(0)
            return (matches_scan(comm), comm.layout.socket_ranks[(0, 0)])

        res = run_job(config, 16, fn, ppn=8)
        assert all(v == (True, (0, 1, 2, 3)) for v in res.values)

    def test_shrunk_after_failover(self):
        def fn(comm):
            data = make_payload(8, data=np.arange(8.0) + comm.rank)
            yield from comm.allreduce(data, SUM, algorithm="dpml")
            shrunk = yield from comm.shrink()
            return (
                matches_scan(comm), matches_scan(shrunk),
                shrunk.layout.nodes,
            )

        res = run_job(
            cluster_b(3), 6, fn, ppn=2,
            faults=isolation_plan(2, 0.0), recovery=RecoveryPolicy(),
        )
        assert res.counters["resilience"]["failovers"]
        assert all(v == (True, True, (0, 1)) for v in res.values if v)

    def test_tenant_reports_global_nodes(self):
        fabric = SharedFabric(cluster_b(6))
        machine = TenantMachine(fabric, (5, 2), 8, 4)

        def fn(comm):
            yield comm.sim.timeout(0)
            return (matches_scan(comm), comm.layout.nodes, comm.layout.node)

        res = Runtime(machine).launch(fn)
        expected = (True, (2, 5), (5,) * 4 + (2,) * 4)
        assert all(v == expected for v in res.values)


class TestBuiltOncePerGroup:
    def test_each_group_builds_once(self, monkeypatch):
        built = []
        real = comm_mod.build_layout

        def counting(ranks, machine):
            built.append(ranks)  # held, so ids are never reused
            return real(ranks, machine)

        monkeypatch.setattr(comm_mod, "build_layout", counting)

        def fn(comm):
            payload = SymbolicPayload(1 << 12, 4)
            for algorithm in (
                "dpml", "sharp_node_leader", "sharp_socket_leader",
                "mvapich2", "dpml_multilevel", "dpml",
            ):
                yield from comm.allreduce(payload, SUM, algorithm=algorithm)
            yield from comm.reduce(payload, SUM, algorithm="dpml")
            yield from comm.bcast(
                payload if comm.rank == 0 else None, algorithm="dpml"
            )
            node = yield from comm.split(comm.machine.node_of(comm.world_rank))
            yield from node.allreduce(payload, SUM, algorithm="mvapich2")
            yield from node.allreduce(payload, SUM, algorithm="dpml")
            return id(comm.layout), id(node.layout)

        res = run_job(cluster_a(2), 16, fn, ppn=8)
        counts = Counter(id(ranks) for ranks in built)
        assert set(counts.values()) == {1}
        # World plus two node communicators, each shared by every view.
        assert len({v[0] for v in res.values}) == 1
        assert len({v[1] for v in res.values}) == 2
        assert len(counts) >= 3

    def test_world_reset_builds_a_new_layout(self):
        machine = Machine(cluster_b(2), 8, 4)
        runtime = Runtime(machine)

        def fn(comm):
            yield comm.sim.timeout(0)
            return comm.layout

        first = runtime.launch(fn).values[0]
        machine.reset()
        runtime.reset()
        second = runtime.launch(fn).values[0]
        assert first is not second
        assert first == second


class TestLocMemo:
    def _placement(self):
        config = MachineConfig(
            nodes=2, node=NodeConfig(sockets=2, cores_per_socket=2)
        )
        return Placement(config, nranks=6, ppn=4)

    def test_repeat_calls_share_one_loc(self):
        p = self._placement()
        assert p.loc(5) is p.loc(5)
        assert p.loc(5).node == 1 and p.loc(5).socket == 1

    @pytest.mark.parametrize("rank", [-1, 6, 100, 2**64])
    def test_bad_rank_raises_every_call(self, rank):
        p = self._placement()
        for _ in range(3):
            with pytest.raises(ConfigError, match="out of range"):
                p.loc(rank)

    def test_core_overflow_raises_every_call(self):
        # The constructor refuses ppn above the core count, so force the
        # fields past it to reach the per-rank overflow check.
        p = self._placement()
        p.nranks, p.ppn = 16, 8
        assert p.loc(3).core == 1
        for _ in range(3):
            with pytest.raises(ConfigError, match="overflow"):
                p.loc(4)

    def test_tenant_loc_memoised_with_global_node(self):
        machine = TenantMachine(SharedFabric(cluster_b(4)), (3, 0), 8, 4)
        assert machine.loc(1) is machine.loc(1)
        assert machine.loc(1).node == 3
        assert machine.loc(6).node == 0
