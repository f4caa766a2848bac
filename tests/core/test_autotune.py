"""Tests for the empirical autotuner."""

import pytest

from repro.core.autotune import autotune_cluster, candidate_specs
from repro.core.tuning import TuningSpec
from repro.machine.clusters import cluster_a, cluster_b


class TestCandidates:
    def test_leader_counts_clamped_to_ppn(self):
        specs = candidate_specs(cluster_b(2), leader_counts=(1, 4, 16), ppn=8)
        assert all(s.leaders <= 8 for s in specs)

    def test_sharp_candidates_only_with_switch_support(self):
        with_sharp = candidate_specs(cluster_a(2), ppn=8)
        without = candidate_specs(cluster_b(2), ppn=8)
        assert any(s.algorithm.startswith("sharp") for s in with_sharp)
        assert not any(s.algorithm.startswith("sharp") for s in without)

    def test_pipelined_included_for_larger_leader_counts(self):
        specs = candidate_specs(cluster_b(2), leader_counts=(1, 4), ppn=8)
        assert TuningSpec("dpml_pipelined", 4) in specs
        assert TuningSpec("dpml_pipelined", 1) not in specs


class TestAutotune:
    def test_table_shape_and_trend(self):
        table = autotune_cluster(
            cluster_b(4),
            ppn=8,
            sizes=(64, 8192, 262144),
            leader_counts=(1, 4, 8),
            iterations=1,
        )
        assert len(table) == 3
        assert table[-1][0] == float("inf")
        bounds = [b for b, _ in table[:-1]]
        assert bounds == sorted(bounds)
        # Small sizes prefer few leaders; large prefer many.
        small_spec = table[0][1]
        large_spec = table[-1][1]
        assert small_spec.leaders <= large_spec.leaders

    def test_every_row_has_a_spec(self):
        table = autotune_cluster(
            cluster_b(2), ppn=4, sizes=(64, 65536),
            leader_counts=(1, 4), iterations=1,
        )
        assert all(isinstance(spec, TuningSpec) for _, spec in table)

    def test_second_call_reads_every_point_from_the_store(
        self, tmp_path, monkeypatch
    ):
        from repro.bench import executor

        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path))
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        executed = []
        run_point = executor.run_point

        def counting_run_point(point, session=None):
            executed.append(point)
            return run_point(point, session=session)

        monkeypatch.setattr(executor, "run_point", counting_run_point)
        kwargs = dict(
            ppn=4, sizes=(64, 65536), leader_counts=(1, 4), iterations=1
        )
        cold = autotune_cluster(cluster_a(2), **kwargs)
        # dpml l=1,4 + dpml_pipelined l=4 + two SHArP designs, two sizes
        assert len(executed) == 10
        executed.clear()
        warm = autotune_cluster(cluster_a(2), **kwargs)
        assert executed == []
        assert warm == cold
