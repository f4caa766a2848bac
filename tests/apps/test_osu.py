"""Tests for the OSU microbenchmark equivalents."""

import pytest

from repro.apps.osu import multi_pair_bandwidth, relative_throughput
from repro.errors import ReproError
from repro.machine.clusters import cluster_a, cluster_b, cluster_c


class TestMultiPairBandwidth:
    def test_positive_bandwidth(self):
        bw = multi_pair_bandwidth(cluster_b(2), pairs=1, nbytes=4096)
        assert bw > 0

    def test_aggregate_grows_with_pairs_on_ib(self):
        one = multi_pair_bandwidth(cluster_b(2), pairs=1, nbytes=65536)
        four = multi_pair_bandwidth(cluster_b(2), pairs=4, nbytes=65536)
        assert four > 3.0 * one

    def test_intra_node_placement(self):
        bw = multi_pair_bandwidth(cluster_b(1), pairs=4, nbytes=4096,
                                  intra_node=True)
        assert bw > 0

    def test_bandwidth_bounded_by_nic(self):
        config = cluster_c(2)
        bw = multi_pair_bandwidth(config, pairs=8, nbytes=1 << 20)
        assert bw <= config.fabric.nic_bandwidth() * 1.05

    def test_too_many_pairs_rejected(self):
        with pytest.raises(ReproError):
            multi_pair_bandwidth(cluster_b(2), pairs=64, nbytes=64)

    def test_zero_pairs_rejected(self):
        with pytest.raises(ReproError):
            multi_pair_bandwidth(cluster_b(2), pairs=0, nbytes=64)

    def test_window_size_does_not_change_steady_state_much(self):
        small = multi_pair_bandwidth(cluster_b(2), pairs=2, nbytes=65536,
                                     window=8)
        large = multi_pair_bandwidth(cluster_b(2), pairs=2, nbytes=65536,
                                     window=32)
        assert large == pytest.approx(small, rel=0.35)


class TestRelativeThroughput:
    def test_one_pair_is_baseline(self):
        data = relative_throughput(cluster_b(2), [1, 2], [4096])
        assert data[4096][1] == pytest.approx(1.0)
        assert data[4096][2] > 1.0

    def test_omnipath_zone_c_flat(self):
        data = relative_throughput(cluster_c(2), [2, 8], [1 << 20])
        assert data[1 << 20][8] < 2.0

    def test_shm_scales(self):
        data = relative_throughput(cluster_a(2), [2, 8], [16384],
                                   intra_node=True)
        assert data[16384][8] > 5.0


class TestPingPong:
    def test_latency_positive_and_grows_with_size(self):
        from repro.apps.osu import pingpong_latency
        small = pingpong_latency(cluster_b(2), 8)
        large = pingpong_latency(cluster_b(2), 1 << 20)
        assert 0 < small < large

    def test_intra_node_faster_than_inter(self):
        from repro.apps.osu import pingpong_latency
        inter = pingpong_latency(cluster_b(2), 64)
        intra = pingpong_latency(cluster_b(1), 64, inter_node=False)
        assert intra < inter


class TestStreamingBandwidth:
    def test_bw_approaches_nic_for_large_messages(self):
        from repro.apps.osu import unidirectional_bandwidth
        config = cluster_c(2)  # one OPA process can saturate the NIC
        bw = unidirectional_bandwidth(config, 1 << 20)
        assert bw > 0.7 * config.fabric.nic_bandwidth()

    def test_bidirectional_roughly_doubles(self):
        from repro.apps.osu import unidirectional_bandwidth
        config = cluster_c(2)
        uni = unidirectional_bandwidth(config, 1 << 20)
        bi = unidirectional_bandwidth(config, 1 << 20, bidirectional=True)
        assert bi > 1.5 * uni

    def test_small_messages_rate_bound(self):
        from repro.apps.osu import unidirectional_bandwidth
        config = cluster_c(2)
        bw = unidirectional_bandwidth(config, 64)
        # 64B at ~1.6M msg/s per proc is far from line rate.
        assert bw < 0.05 * config.fabric.nic_bandwidth()


class TestCollectiveLatency:
    def test_allreduce_matches_harness(self):
        from repro.apps.osu import osu_collective_latency
        from repro.bench.harness import allreduce_latency
        via_osu = osu_collective_latency(
            cluster_b(4), "allreduce", 4096, nranks=16, ppn=4,
            algorithm="recursive_doubling",
        )
        via_harness = allreduce_latency(
            cluster_b(4), "recursive_doubling", 4096, ppn=4
        )
        assert via_osu == via_harness

    def test_reduce_cheaper_than_allreduce(self):
        from repro.apps.osu import osu_collective_latency
        red = osu_collective_latency(
            cluster_b(4), "reduce", 65536, nranks=16, ppn=4,
            algorithm="binomial",
        )
        allred = osu_collective_latency(
            cluster_b(4), "allreduce", 65536, nranks=16, ppn=4,
            algorithm="reduce_bcast",
        )
        assert red < allred

    def test_unknown_kind_rejected(self):
        from repro.apps.osu import osu_collective_latency
        with pytest.raises(ReproError):
            osu_collective_latency(
                cluster_b(2), "alltoall", 64, nranks=4, ppn=2
            )

    def test_dpml_bcast_beats_binomial_for_large(self):
        from repro.apps.osu import osu_collective_latency
        binom = osu_collective_latency(
            cluster_b(8), "bcast", 1 << 20, nranks=64, ppn=8,
            algorithm="binomial",
        )
        dpml = osu_collective_latency(
            cluster_b(8), "bcast", 1 << 20, nranks=64, ppn=8,
            algorithm="dpml",
        )
        assert dpml < binom
