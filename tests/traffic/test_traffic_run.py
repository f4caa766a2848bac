"""End-to-end traffic runs: determinism, isolation, scheduling, metering."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError, TrafficError
from repro.machine.clusters import get_cluster
from repro.machine.fattree import FatTreeConfig
from repro.machine.machine import Machine
from repro.mpi.runtime import Runtime, run_job
from repro.payload import SUM, make_payload
from repro.traffic import (
    JobSpec,
    SharedFabric,
    TrafficTrace,
    poisson_trace,
    run_traffic,
)


def treed_config(nodes=8, nodes_per_leaf=4, **kw):
    return dataclasses.replace(
        get_cluster("a", nodes=nodes),
        topology=FatTreeConfig(nodes_per_leaf=nodes_per_leaf, **kw),
    )


def two_job_trace() -> TrafficTrace:
    return TrafficTrace(
        jobs=(
            JobSpec(app="osu", arrival=0.0, nodes=2, ppn=4, nbytes=32768,
                    iterations=2),
            JobSpec(app="hpcg", arrival=0.0, nodes=2, ppn=4, nbytes=16384,
                    iterations=2),
        )
    )


class TestDeterminism:
    def test_fresh_vs_fresh(self):
        trace = poisson_trace(jobs=4, rate=2e4, seed=7)
        a = run_traffic(trace, cluster="b", seed=1, sanitize=True)
        b = run_traffic(trace, cluster="b", seed=1, sanitize=True)
        assert a.to_canonical_json() == b.to_canonical_json()

    def test_fresh_vs_reused_fabric(self):
        trace = poisson_trace(jobs=4, rate=3e4, seed=3)
        config = treed_config()
        fabric = SharedFabric(config, sanitize=True)
        first = run_traffic(trace, fabric=fabric, placement="spread", seed=2)
        reused = run_traffic(trace, fabric=fabric, placement="spread", seed=2)
        fresh = run_traffic(
            trace, config=config, placement="spread", seed=2, sanitize=True
        )
        assert first.to_canonical_json() == reused.to_canonical_json()
        assert first.to_canonical_json() == fresh.to_canonical_json()

    def test_idle_samples_match_on_reused_fabric(self):
        # Samples taken before a job touches a NIC must read the same on
        # a fresh fabric, where no NIC queue is built yet, as on a
        # reused one, where the last run built some.
        late = TrafficTrace(
            jobs=(
                JobSpec(app="osu", arrival=3e-4, nodes=2, ppn=4,
                        nbytes=4096, iterations=1),
            )
        )
        config = treed_config()
        fabric = SharedFabric(config)
        run_traffic(two_job_trace(), fabric=fabric)
        reused = run_traffic(late, fabric=fabric)
        fresh = run_traffic(late, config=config)
        assert reused.to_canonical_json() == fresh.to_canonical_json()

    def test_placement_changes_result(self):
        trace = poisson_trace(jobs=4, rate=3e4, seed=3)
        config = treed_config()
        packed = run_traffic(trace, config=config, placement="packed")
        spread = run_traffic(trace, config=config, placement="spread")
        assert packed.to_canonical_json() != spread.to_canonical_json()


class TestCounterIsolation:
    """Satellite: concurrent disjoint tenants == the same jobs run solo."""

    @pytest.mark.parametrize("placement", ["packed", "spread"])
    def test_concurrent_equals_solo(self, placement):
        config = treed_config()
        trace = two_job_trace()
        together = run_traffic(
            trace, config=config, placement=placement, sanitize=True
        )
        assert together.n_jobs == 2
        for i, job in enumerate(trace.jobs):
            solo = run_traffic(
                TrafficTrace(jobs=(job,)),
                config=config,
                placement=placement,
                sanitize=True,
            )
            concurrent_record = together.job(i)
            solo_record = solo.job(0)
            # Work submitted is congestion-invariant: every counter the
            # record reports (engine + per-node NIC/mem deltas) matches
            # the idle-fabric reference exactly, floats included.
            assert concurrent_record.counters == solo_record.counters
            # And with disjoint node sets there is no cross-tenant queue
            # at all, so even the latencies replay exactly.
            assert (
                concurrent_record.latency_summary()
                == solo_record.latency_summary()
            )

    def test_contended_tenants_still_count_identically(self):
        # A deliberately thin spine: spread tenants do slow each other
        # down, but what each *submits* is still exactly its solo work.
        config = treed_config(spines=1, link_byte_time=3.2e-10)
        job = JobSpec(
            app="osu", arrival=0.0, nodes=2, ppn=2, nbytes=1 << 20,
            iterations=1,
        )
        trace = TrafficTrace(jobs=(job, job, job, job))
        together = run_traffic(trace, config=config, placement="spread")
        solo = run_traffic(
            TrafficTrace(jobs=(job,)), config=config, placement="spread"
        )
        for i in range(4):
            assert together.job(i).counters == solo.job(0).counters
        # ... while the contention itself is real and visible.
        assert together.elapsed > solo.elapsed * 1.5


class TestScheduling:
    def test_backlog_is_fifo(self):
        # 4-node fabric; job0 fills it, jobs 1-2 queue and launch in order.
        trace = TrafficTrace(
            jobs=(
                JobSpec(app="osu", arrival=0.0, nodes=4, ppn=2),
                JobSpec(app="osu", arrival=1e-5, nodes=1, ppn=2),
                JobSpec(app="osu", arrival=2e-5, nodes=4, ppn=2),
            )
        )
        result = run_traffic(trace, cluster="a", nodes=4)
        j0, j1, j2 = result.jobs
        assert j0.queue_wait == 0.0
        # Strict FIFO: the small job 1 waited for job 0 even though no
        # nodes were free anyway, and job 2 never jumped it.
        assert j1.started >= j0.finished
        assert j2.started >= j1.started
        assert result.elapsed == max(j.finished for j in result.jobs)

    def test_job_wider_than_fabric_rejected(self):
        trace = TrafficTrace(
            jobs=(JobSpec(app="osu", arrival=0.0, nodes=8, ppn=1),)
        )
        with pytest.raises(TrafficError, match="fabric"):
            run_traffic(trace, cluster="a", nodes=4)

    def test_empty_trace(self):
        result = run_traffic(TrafficTrace(jobs=()), cluster="a", nodes=2)
        assert result.n_jobs == 0
        assert result.elapsed == 0.0
        assert len(result.series) == 1  # the final done-sample

    def test_unknown_placement(self):
        trace = poisson_trace(jobs=2, rate=1e4, seed=0)
        with pytest.raises(TrafficError, match="placement"):
            run_traffic(trace, cluster="a", placement="greedy")


class TestMetering:
    def test_series_shape(self):
        trace = poisson_trace(jobs=4, rate=3e4, seed=1)
        result = run_traffic(
            trace, config=treed_config(), interval=5e-5, sanitize=True
        )
        assert result.series, "scraper produced no samples"
        times = [s["t"] for s in result.series]
        assert times == sorted(times)
        for sample in result.series:
            assert set(sample) == {
                "t", "jobs", "free_nodes", "links", "nic", "matcher",
                "sharp", "tenants",
            }
            # 2 leaves x 8 spines (default) x up+down directions.
            assert sample["links"]["n_links"] == 32
        # The mid-run samples see running tenants.
        assert any(s["jobs"]["running"] > 0 for s in result.series)
        # The last sample is the drain instant: everything finished.
        assert result.series[-1]["jobs"]["finished"] == 4

    def test_flat_fabric_has_no_link_series(self):
        trace = poisson_trace(jobs=2, rate=3e4, seed=1)
        result = run_traffic(trace, cluster="b")
        assert all(s["links"] is None for s in result.series)

    def test_canonical_json_round_trips(self):
        import json

        trace = poisson_trace(jobs=2, rate=3e4, seed=5)
        result = run_traffic(trace, cluster="a")
        blob = json.loads(result.to_canonical_json())
        assert blob["schema"] == 1
        assert blob["suite"] == "repro.traffic"
        assert blob["trace_hash"] == trace.trace_hash()
        assert len(blob["jobs"]) == 2
        assert blob["jobs"][0]["counters"]["engine"]["jobs"] > 0


class TestFaultComposition:
    def test_degraded_fabric_under_load(self):
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.from_dict(
            {
                "faults": [
                    {
                        "kind": "node-slowdown", "node": 1, "factor": 4.0,
                        "start": 0.0, "duration": 5e-4,
                    }
                ]
            }
        )
        trace = poisson_trace(jobs=3, rate=3e4, seed=5)
        clean = run_traffic(trace, cluster="a", nodes=8, sanitize=True)
        hurt = run_traffic(
            trace, cluster="a", nodes=8, sanitize=True, faults=plan
        )
        assert hurt.elapsed > clean.elapsed
        assert hurt.job(0).counters["faults"]["plan"] == plan.plan_hash()
        again = run_traffic(
            trace, cluster="a", nodes=8, sanitize=True, faults=plan
        )
        assert hurt.to_canonical_json() == again.to_canonical_json()


def tenant(fabric, nodes, nranks, ppn):
    """A job machine placed on ``nodes`` of a shared fabric."""
    return Machine(fabric.config, nranks, ppn, fabric=fabric, nodes=nodes)


class TestTenantMachine:
    def test_validation(self):
        fabric = SharedFabric(get_cluster("a", nodes=4))
        with pytest.raises(ConfigError, match="duplicates"):
            tenant(fabric, (0, 0), 4, 2)
        with pytest.raises(ConfigError, match="outside"):
            tenant(fabric, (3, 9), 4, 2)
        with pytest.raises(ConfigError, match="needs"):
            tenant(fabric, (0, 1, 2), 4, 2)
        with pytest.raises(ConfigError, match="not both"):
            Machine(fabric.config, 4, 2, sim=fabric.sim, fabric=fabric)

    def test_global_node_translation(self):
        fabric = SharedFabric(get_cluster("a", nodes=8))
        machine = tenant(fabric, (5, 2), 4, 2)
        assert [machine.node_of(r) for r in range(4)] == [5, 5, 2, 2]
        assert machine.loc(3).node == 2

    def test_reset_refused(self):
        fabric = SharedFabric(get_cluster("a", nodes=4))
        machine = tenant(fabric, (0, 1), 4, 2)
        with pytest.raises(ConfigError, match="single-job"):
            machine.reset()

    @pytest.mark.parametrize("algorithm", ["dpml", "sharp_socket_leader"])
    def test_job_on_shared_fabric_matches_classic(self, algorithm):
        # A fabric exactly as wide as the job, nodes in order: the same
        # queues, trees and names as the machine a classic run builds.
        config = treed_config(nodes=4, nodes_per_leaf=2)
        rng = np.random.default_rng(11)
        inputs = [rng.standard_normal(300) for _ in range(16)]

        def fn(comm):
            data = make_payload(300, data=inputs[comm.rank])
            out = yield from comm.allreduce(data, SUM, algorithm=algorithm)
            return out.array

        classic = run_job(config, 16, fn, ppn=4)
        fabric = SharedFabric(config)
        machine = tenant(fabric, range(4), 16, 4)
        shared = Runtime(machine).launch(fn)
        assert shared.elapsed == classic.elapsed
        for a, b in zip(shared.values, classic.values):
            assert a.tobytes() == b.tobytes()
