"""Tests for rank placement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.machine.config import MachineConfig, NodeConfig
from repro.machine.topology import Placement


def _config(nodes=4, sockets=2, cps=4, placement="scatter"):
    return MachineConfig(
        nodes=nodes,
        node=NodeConfig(sockets=sockets, cores_per_socket=cps),
        placement=placement,
    )


class TestPlacement:
    def test_block_across_nodes(self):
        p = Placement(_config(), nranks=16, ppn=8)
        assert [p.node_of(r) for r in range(16)] == [0] * 8 + [1] * 8

    def test_scatter_alternates_sockets(self):
        p = Placement(_config(placement="scatter"), nranks=8, ppn=8)
        sockets = [p.loc(r).socket for r in range(8)]
        assert sockets == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_bunch_fills_socket_zero_first(self):
        p = Placement(_config(placement="bunch"), nranks=8, ppn=8)
        sockets = [p.loc(r).socket for r in range(8)]
        assert sockets == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_default_ppn_is_full_subscription(self):
        p = Placement(_config(), nranks=16)
        assert p.ppn == 8

    def test_oversubscription_rejected(self):
        with pytest.raises(ConfigError):
            Placement(_config(), nranks=16, ppn=9)

    def test_too_many_nodes_needed_rejected(self):
        with pytest.raises(ConfigError):
            Placement(_config(nodes=2), nranks=32, ppn=8)

    def test_partial_last_node(self):
        p = Placement(_config(), nranks=10, ppn=8)
        assert p.nodes_used == 2
        assert [p.node_of(r) for r in range(8, 10)] == [1, 1]
        assert p.node_of(7) == 0

    def test_same_node(self):
        p = Placement(_config(), nranks=16, ppn=8)
        assert p.same_node(0, 7)
        assert not p.same_node(7, 8)

    def test_rank_out_of_range(self):
        p = Placement(_config(), nranks=8, ppn=8)
        with pytest.raises(ConfigError):
            p.loc(8)

    @given(
        nranks=st.integers(1, 64),
        ppn=st.integers(1, 8),
        placement=st.sampled_from(["scatter", "bunch"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_locs_are_unique_and_valid(self, nranks, ppn, placement):
        nodes = -(-nranks // ppn)
        cfg = _config(nodes=max(nodes, 1), placement=placement)
        if ppn > cfg.node.cores:
            return
        p = Placement(cfg, nranks=nranks, ppn=ppn)
        seen = set()
        for r in range(nranks):
            loc = p.loc(r)
            key = (loc.node, loc.socket, loc.core)
            assert key not in seen, "two ranks on one core"
            seen.add(key)
            assert 0 <= loc.socket < cfg.node.sockets
            assert 0 <= loc.core < cfg.node.cores_per_socket
            assert loc.local_rank == r % ppn
