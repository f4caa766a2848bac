"""Tests for the tuning tables and the hybrid selector."""

import numpy as np

from repro.core.tuning import TUNING_TABLES, TuningSpec, lookup_spec
from repro.machine.clusters import cluster_a
from repro.mpi import run_job
from repro.payload import SUM, make_payload


class TestLookup:
    def test_tables_exist_for_all_clusters(self):
        for name in ("cluster-a", "cluster-b", "cluster-c", "cluster-d"):
            assert name in TUNING_TABLES
            assert TUNING_TABLES[name][-1][0] == float("inf")

    def test_thresholds_are_sorted(self):
        for rows in TUNING_TABLES.values():
            bounds = [b for b, _ in rows]
            assert bounds == sorted(bounds)

    def test_small_messages_use_few_leaders(self):
        spec = lookup_spec("cluster-b", 16)
        assert spec.leaders <= 2

    def test_large_messages_use_many_leaders(self):
        spec = lookup_spec("cluster-b", 1 << 20)
        assert spec.leaders == 16

    def test_sharp_selected_only_when_available(self):
        with_sharp = lookup_spec("cluster-a", 64, sharp_available=True)
        assert with_sharp.algorithm.startswith("sharp")
        without = lookup_spec("cluster-a", 64, sharp_available=False)
        assert not without.algorithm.startswith("sharp")

    def test_unknown_cluster_uses_fallback(self):
        spec = lookup_spec("cluster-x", 1 << 20)
        assert spec.algorithm == "dpml"

    def test_leader_counts_monotone_in_size(self):
        for name, rows in TUNING_TABLES.items():
            dpml_rows = [s for _, s in rows if s.algorithm.startswith("dpml")]
            counts = [s.leaders for s in dpml_rows]
            assert counts == sorted(counts), name

    def test_spec_kwargs(self):
        assert TuningSpec("dpml", 8).kwargs() == {"leaders": 8}
        assert TuningSpec("sharp_node_leader").kwargs() == {}


class TestTunedSelectorEndToEnd:
    def test_tuned_on_sharp_cluster_small_message(self):
        def fn(comm):
            data = make_payload(4, data=np.full(4, 1.0))
            result = yield from comm.allreduce(data, SUM, algorithm="dpml_tuned")
            return result.array[0]

        res = run_job(cluster_a(2), 8, fn, ppn=4)
        assert all(v == 8.0 for v in res.values)
