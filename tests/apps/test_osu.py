"""Tests for the OSU microbenchmark equivalents."""

import pytest

from repro.apps.osu import (
    multi_pair_bandwidth,
    osu_collective_latency,
    pingpong_latency,
    relative_throughput,
    unidirectional_bandwidth,
)
from repro.errors import ConfigError, ReproError
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

    @pytest.mark.parametrize("sizes", [[0], [4096, 0]], ids=["zero", "mixed"])
    def test_zero_byte_size_rejected(self, sizes):
        # A zero-byte window moves nothing: the one-pair bandwidth the
        # ratio divides by would be zero.
        with pytest.raises(ConfigError, match="sizes >= 1 byte"):
            relative_throughput(cluster_b(2), [2], sizes)

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


class TestZeroByteKernels:
    """A zero-byte size simulates zero-byte messages, not one byte."""

    def test_pingpong_zero_bytes_is_cheaper_than_one_byte(self):
        zero = pingpong_latency(cluster_b(2), 0)
        one = pingpong_latency(cluster_b(2), 1)
        assert 0 < zero < one

    @pytest.mark.parametrize(
        "kernel, kwargs",
        [
            (unidirectional_bandwidth, {}),
            (unidirectional_bandwidth, {"bidirectional": True}),
            (multi_pair_bandwidth, {"pairs": 2}),
        ],
        ids=["bw", "bibw", "mbw_mr"],
    )
    def test_bandwidth_of_zero_bytes_is_zero(self, kernel, kwargs):
        assert kernel(cluster_b(2), nbytes=0, **kwargs) == 0.0
        assert kernel(cluster_b(2), nbytes=1, **kwargs) > 0.0


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

    @pytest.mark.parametrize("kind", ["reduce", "bcast"])
    @pytest.mark.parametrize("algorithm", [None, "binomial", "dpml"])
    def test_iterations_do_not_move_a_noise_free_point(self, kind, algorithm):
        """reduce and bcast run the allreduce harness's fenced loop: a
        noise-free point times one fenced call whatever the loop
        counts."""
        values = {
            osu_collective_latency(
                cluster_b(2), kind, 65536, nranks=8, ppn=4,
                algorithm=algorithm, iterations=iterations,
            )
            for iterations in (1, 2, 3, 5)
        }
        assert len(values) == 1 and values.pop() > 0

    @pytest.mark.parametrize("kind", ["reduce", "bcast"])
    @pytest.mark.parametrize("algorithm", ["binomial", "knomial", "dpml"])
    def test_non_zero_root(self, kind, algorithm):
        def latency(root, iterations=3):
            return osu_collective_latency(
                cluster_b(2), kind, 65536, nranks=8, ppn=4,
                algorithm=algorithm, root=root, iterations=iterations,
            )

        at_three = latency(3)
        assert at_three > 0
        assert latency(3, iterations=1) == at_three
        # The root is honoured: rank 3 is a different tree than rank 0.
        assert at_three != latency(0)

    @pytest.mark.parametrize("kind", ["reduce", "bcast"])
    @pytest.mark.parametrize("root", [-1, 8])
    def test_root_out_of_range_rejected(self, kind, root):
        with pytest.raises(ConfigError, match="root must be in"):
            osu_collective_latency(
                cluster_b(2), kind, 4096, nranks=8, ppn=4, root=root,
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


@pytest.mark.parametrize(
    "kernel, kwargs",
    [
        (multi_pair_bandwidth, {"pairs": 2}),
        (pingpong_latency, {}),
        (unidirectional_bandwidth, {}),
        (osu_collective_latency, {"kind": "reduce", "nranks": 4, "ppn": 2}),
        (osu_collective_latency, {"kind": "bcast", "nranks": 4, "ppn": 2}),
        (osu_collective_latency, {"kind": "allreduce", "nranks": 4, "ppn": 2}),
    ],
    ids=["mbw_mr", "latency", "bw", "reduce", "bcast", "allreduce"],
)
@pytest.mark.parametrize(
    "loop, match",
    [
        ({"nbytes": 4096, "iterations": 0}, "iterations must be >= 1"),
        ({"nbytes": 4096, "warmup": -1}, "warmup must be >= 0"),
        ({"nbytes": -5}, "message size must be >= 0"),
    ],
    ids=["no-iterations", "negative-warmup", "negative-size"],
)
def test_kernels_reject_bad_loops_and_sizes(kernel, kwargs, loop, match):
    """Every OSU kernel raises ConfigError for a loop it cannot time or
    a negative size, instead of dividing by zero or running one byte."""
    with pytest.raises(ConfigError, match=match):
        kernel(cluster_b(2), **loop, **kwargs)
