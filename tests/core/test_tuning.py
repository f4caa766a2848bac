"""Tests for the selection tables, ``pick`` and the hybrid selector."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.tuning import INF, TUNING_TABLES, Rule, pick
from repro.errors import TuningError
from repro.machine.clusters import cluster_a
from repro.mpi import run_job
from repro.payload import SUM, make_payload


def fake_comm(cluster="cluster-b", *, size=8, sharp=False, multinode=True):
    """The attributes ``pick`` reads; ``layout`` is None when the comm
    is not expected to be asked for it."""
    machine = SimpleNamespace(
        config=SimpleNamespace(name=cluster), sharp=object() if sharp else None
    )
    layout = None if multinode is None else SimpleNamespace(multinode=multinode)
    return SimpleNamespace(machine=machine, size=size, layout=layout)


def leaders(rule):
    return dict(rule.kwargs).get("leaders")


class TestLookup:
    def test_tables_exist_for_all_clusters(self):
        for name in ("cluster-a", "cluster-b", "cluster-c", "cluster-d", None):
            assert name in TUNING_TABLES
            assert TUNING_TABLES[name][-1].max_bytes == INF

    def test_thresholds_are_sorted(self):
        for rows in TUNING_TABLES.values():
            bounds = [rule.max_bytes for rule in rows]
            assert bounds == sorted(bounds)

    def test_small_messages_use_few_leaders(self):
        rule = pick(TUNING_TABLES, fake_comm(), 16)
        assert leaders(rule) <= 2

    def test_large_messages_use_many_leaders(self):
        rule = pick(TUNING_TABLES, fake_comm(), 1 << 20)
        assert leaders(rule) == 16

    def test_sharp_selected_only_when_available(self):
        with_sharp = pick(TUNING_TABLES, fake_comm("cluster-a", sharp=True), 64)
        assert with_sharp.algorithm.startswith("sharp")
        without = pick(TUNING_TABLES, fake_comm("cluster-a"), 64)
        assert not without.algorithm.startswith("sharp")

    def test_unknown_cluster_uses_fallback(self):
        rule = pick(TUNING_TABLES, fake_comm("cluster-x"), 1 << 20)
        assert rule == TUNING_TABLES[None][-1]
        assert rule.algorithm == "dpml"

    def test_leader_counts_monotone_in_size(self):
        for name, rows in TUNING_TABLES.items():
            dpml_rows = [r for r in rows if r.algorithm.startswith("dpml")]
            counts = [leaders(r) for r in dpml_rows]
            assert counts == sorted(counts), name

    def test_spec_kwargs(self):
        rule = Rule(INF, "dpml", {"leaders": 8})
        assert rule.kwargs == (("leaders", 8),)
        assert rule == Rule(INF, "dpml", (("leaders", 8),))
        assert rule.label == "dpml(leaders=8)"
        assert Rule(INF, "sharp_node_leader").kwargs == ()
        assert Rule(INF, "sharp_node_leader").label == "sharp_node_leader()"


class TestPick:
    ROWS = {None: [
        Rule(64, "sharp_node_leader"),
        Rule(1024, "binomial", max_ranks=8),
        Rule(1024, "knomial"),
        Rule(INF, "scatter_ring", single_node=True),
        Rule(INF, "dpml", {"leaders": 2}),
    ]}

    def test_first_covering_row_wins(self):
        comm = fake_comm(sharp=True, multinode=None)
        assert pick(self.ROWS, comm, 64).algorithm == "sharp_node_leader"
        assert pick(self.ROWS, comm, 65).algorithm == "binomial"
        assert pick(self.ROWS, fake_comm(size=9, multinode=None), 65).algorithm \
            == "knomial"

    def test_sharp_row_skipped_without_sharp(self):
        assert pick(self.ROWS, fake_comm(multinode=None), 0).algorithm == "binomial"

    def test_single_node_row_skipped_on_multinode_comm(self):
        assert pick(self.ROWS, fake_comm(multinode=False), 4096).algorithm \
            == "scatter_ring"
        assert pick(self.ROWS, fake_comm(multinode=True), 4096) \
            == Rule(INF, "dpml", {"leaders": 2})

    def test_layout_read_only_for_a_single_node_row(self):
        # multinode=None leaves comm.layout None: reading it would raise.
        assert pick(self.ROWS, fake_comm(multinode=None), 1024).algorithm \
            == "binomial"

    def test_cluster_entry_shadows_the_fallback(self):
        tables = {**self.ROWS, "cluster-b": [Rule(INF, "ring")]}
        assert pick(tables, fake_comm(), 0).algorithm == "ring"
        assert pick(tables, fake_comm("cluster-c", multinode=None), 0) \
            .algorithm == "binomial"

    def test_uncovered_message_is_an_error(self):
        with pytest.raises(TuningError, match="no selection row covers"):
            pick({None: [Rule(64, "ring")]}, fake_comm(), 65)


class TestTunedSelectorEndToEnd:
    def test_tuned_on_sharp_cluster_small_message(self):
        def fn(comm):
            data = make_payload(4, data=np.full(4, 1.0))
            result = yield from comm.allreduce(data, SUM, algorithm="dpml_tuned")
            return result.array[0]

        res = run_job(cluster_a(2), 8, fn, ppn=4)
        assert all(v == 8.0 for v in res.values)
