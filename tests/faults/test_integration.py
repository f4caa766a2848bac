"""Faults through the whole stack: runtime, transport, sessions, specs.

The golden test here is the subsystem's acceptance criterion: a
``(FaultPlan, seed)`` pair must replay bit-identically across fresh
machines and reused sessions, and reproduce the seed's committed
fingerprint, while faulted allreduces stay element-wise correct under
a strict sanitizer.
"""

import numpy as np
import pytest

from repro.check.sanitizer import Sanitizer
from repro.errors import MPIError
from repro.faults import (
    ArrivalSkew,
    FaultInjector,
    FaultPlan,
    LinkDegrade,
    LinkOutage,
    NodeSlowdown,
    Straggler,
)
from repro.machine.clusters import cluster_b
from repro.mpi.runtime import SimSession, run_job
from repro.payload import SUM, make_payload

#: A plan exercising every fault kind that lets the job complete.
MIXED_PLAN = FaultPlan(
    faults=(
        Straggler(rank=1, factor=5.0),
        NodeSlowdown(node=1, factor=2.0, duration=2e-4),
        ArrivalSkew(magnitude=2e-4, pattern="exponential"),
        LinkDegrade(src=0, dst=1, latency_factor=2.0, bandwidth_factor=0.5),
        LinkOutage(src=1, dst=0, start=1e-5, duration=3e-5),
    )
)


def allreduce_fn(comm, count=8, algorithm=None):
    data = make_payload(count, data=np.full(count, float(comm.rank)))
    result = yield from comm.allreduce(data, SUM, algorithm=algorithm)
    return list(result.array)


def fingerprint(job):
    return (job.values, job.elapsed, job.counters.get("faults"))


#: ``fingerprint`` of the mixed-plan job (seed 3) as the seed's kernel
#: produced it.
MIXED_FINGERPRINT = (
    [[28.0] * 8] * 8,
    0.0004440809791562762,
    {
        "arrival_delays": [
            2.2002962535607967e-05,
            7.793137471474077e-05,
            0.0002799081916238477,
            0.00044002961915627615,
            6.869876383366448e-05,
            5.156710461437624e-05,
            8.690930281320269e-05,
            2.0518654007482006e-05,
        ],
        "exhausted": [0] * 8,
        "plan": "1bdc0d2397ac",
        "retries": [0] * 8,
        "seed": 3,
    },
)


class TestGoldenDeterminism:
    def test_fresh_runs_replay_bit_identically(self):
        runs = [
            run_job(
                cluster_b(2), 8, allreduce_fn, ppn=4,
                faults=MIXED_PLAN, fault_seed=3, sanitize=True,
            )
            for _ in range(2)
        ]
        assert fingerprint(runs[0]) == fingerprint(runs[1])

    def test_fingerprint_matches_seed(self):
        job = run_job(
            cluster_b(2), 8, allreduce_fn, ppn=4,
            faults=MIXED_PLAN, fault_seed=3,
        )
        assert fingerprint(job) == MIXED_FINGERPRINT

    def test_session_reuse_matches_fresh_build(self):
        fresh = run_job(
            cluster_b(2), 8, allreduce_fn, ppn=4,
            faults=MIXED_PLAN, fault_seed=3,
        )
        session = SimSession(cluster_b(2), 8, 4)
        injector = FaultInjector.for_machine(
            MIXED_PLAN, session.machine, seed=3
        )
        first = session.run(allreduce_fn, faults=injector)
        second = session.run(allreduce_fn, faults=injector)
        assert fingerprint(first) == fingerprint(fresh)
        assert fingerprint(first) == fingerprint(second)

    def test_faulted_results_correct_under_strict_sanitizer(self):
        job = run_job(
            cluster_b(2), 8, allreduce_fn, ppn=4,
            faults=MIXED_PLAN, fault_seed=1, sanitize=True,  # strict
        )
        expected = [float(sum(range(8)))] * 8
        for value in job.values:
            assert value == expected
        assert job.reports == []

    def test_different_fault_seeds_change_the_run(self):
        a = run_job(
            cluster_b(2), 8, allreduce_fn, ppn=4,
            faults=MIXED_PLAN, fault_seed=1,
        )
        b = run_job(
            cluster_b(2), 8, allreduce_fn, ppn=4,
            faults=MIXED_PLAN, fault_seed=2,
        )
        assert a.elapsed != b.elapsed  # exponential skew resampled
        assert a.values == b.values  # ... but results stay correct


class TestFaultEffects:
    def test_straggler_slows_the_job(self):
        clean = run_job(cluster_b(2), 8, allreduce_fn, ppn=4,
                        kwargs={"count": 4096})
        slow = run_job(
            cluster_b(2), 8, allreduce_fn, ppn=4, kwargs={"count": 4096},
            faults=FaultPlan(faults=(Straggler(rank=0, factor=50.0),)),
        )
        assert slow.elapsed > clean.elapsed
        assert slow.values == clean.values

    def test_node_slowdown_slows_the_job(self):
        clean = run_job(cluster_b(2), 8, allreduce_fn, ppn=4,
                        kwargs={"count": 4096})
        slow = run_job(
            cluster_b(2), 8, allreduce_fn, ppn=4, kwargs={"count": 4096},
            faults=FaultPlan(faults=(NodeSlowdown(node=0, factor=20.0),)),
        )
        assert slow.elapsed > clean.elapsed

    def test_link_degrade_slows_inter_node_traffic(self):
        clean = run_job(cluster_b(2), 8, allreduce_fn, ppn=4,
                        kwargs={"count": 65536})
        degraded = run_job(
            cluster_b(2), 8, allreduce_fn, ppn=4, kwargs={"count": 65536},
            faults=FaultPlan(
                faults=(LinkDegrade(latency_factor=10.0,
                                    bandwidth_factor=0.1),)
            ),
        )
        # Intra-node shm traffic dominates at this size, so the wire
        # penalty shows up diluted — but it must show up.
        assert degraded.elapsed > clean.elapsed * 1.1
        assert degraded.values == clean.values

    def test_arrival_skew_delays_completion(self):
        clean = run_job(cluster_b(2), 8, allreduce_fn, ppn=4)
        skewed = run_job(
            cluster_b(2), 8, allreduce_fn, ppn=4,
            faults=FaultPlan(
                faults=(ArrivalSkew(magnitude=1e-3, pattern="single"),)
            ),
        )
        assert skewed.elapsed >= clean.elapsed + 1e-3 * 0.9
        assert skewed.values == clean.values

    def test_fault_free_plan_changes_nothing(self):
        # An empty plan must be byte-for-byte invisible, kernel
        # counters included (the golden counter tests depend on this).
        clean = run_job(cluster_b(2), 8, allreduce_fn, ppn=4)
        empty = run_job(
            cluster_b(2), 8, allreduce_fn, ppn=4, faults=FaultPlan()
        )
        assert empty.values == clean.values
        assert empty.elapsed == clean.elapsed
        faultless = dict(empty.counters)
        assert faultless.pop("faults")["retries"] == [0] * 8
        assert faultless == clean.counters


class TestOutageRetry:
    def test_transient_outage_survived_with_retries_counted(self):
        job = run_job(
            cluster_b(2), 8, allreduce_fn, ppn=4, sanitize=True,
            faults=FaultPlan(
                faults=(LinkOutage(src=0, dst=1, start=0.0, duration=4e-5),)
            ),
        )
        counters = job.counters["faults"]
        assert sum(counters["retries"]) > 0
        assert sum(counters["exhausted"]) == 0
        assert job.values == [[float(sum(range(8)))] * 8] * 8

    def test_permanent_outage_exhausts_into_mpierror(self):
        sanitizer = Sanitizer(strict=False)
        session = SimSession(cluster_b(2), 8, 4, sanitize=sanitizer)
        injector = FaultInjector.for_machine(
            FaultPlan(faults=(LinkOutage(src=0, dst=1),)), session.machine
        )
        with pytest.raises(MPIError, match="retry"):
            session.run(allreduce_fn, faults=injector)
        assert sum(injector.counters()["exhausted"]) > 0
        report = sanitizer.by_kind("fault-retries-exhausted")[0]
        assert report.details["src_node"] == 0
        assert report.details["dst_node"] == 1
        assert report.details["attempts"] == injector.retry_limit

    def test_retry_limit_zero_fails_immediately(self):
        plan = FaultPlan(
            faults=(LinkOutage(src=0, dst=1, duration=1e-5),), retry_limit=0
        )
        with pytest.raises(MPIError, match="0 retry"):
            run_job(cluster_b(2), 8, allreduce_fn, ppn=4, faults=plan)


class TestSpecIntegration:
    def test_sample_point_runs_with_faults(self):
        from repro.bench.spec import SamplePoint

        plan = FaultPlan(
            faults=(ArrivalSkew(magnitude=1e-4, pattern="sorted"),)
        )
        base = dict(cluster="b", nodes=2, ppn=4, algorithm="dpml",
                    nbytes=4096, iterations=1)
        clean = SamplePoint(**base).run()
        faulted = SamplePoint(**base, faults=plan).run()
        # The OSU-style barrier absorbs the skew from the timed loop,
        # so the per-call latency stays finite and comparable.
        assert faulted > 0 and clean > 0

    def test_executor_runs_faulted_sweep_deterministically(self):
        from repro.bench.executor import SerialExecutor
        from repro.bench.spec import SweepSpec

        spec = SweepSpec(
            name="faulted-tiny", cluster="b", nodes=2, ppn=2,
            sizes=(1024,), algorithms=("dpml", "rabenseifner"),
            iterations=1,
            faults=FaultPlan(faults=(Straggler(rank=0, factor=3.0),)),
        )
        a = SerialExecutor().run(spec)
        b = SerialExecutor().run(spec)
        assert a.ok and b.ok
        assert a.canonical_dict() == b.canonical_dict()

    def test_faults_cli_flag_loads_plan_into_spec_hash(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "plan.json"
        path.write_text(
            FaultPlan(
                faults=(ArrivalSkew(magnitude=1e-5, pattern="sorted"),)
            ).to_json()
        )
        out = tmp_path / "result.json"
        rc = main([
            "bench", "run", "fig5", "--sizes", "1024", "--faults", str(path),
            "--seed", "7", "--output", str(out), "--canonical",
        ])
        assert rc == 0
        import json

        record = json.loads(out.read_text())
        assert record["spec"]["faults"]["faults"][0]["kind"] == "arrival-skew"
        assert record["spec"]["base_seed"] == 7
        # A fault-free run of the same sweep hashes differently.
        rc = main([
            "bench", "run", "fig5", "--sizes", "1024", "--output", str(out),
            "--canonical",
        ])
        assert rc == 0
        clean = json.loads(out.read_text())
        assert clean["spec_hash"] != record["spec_hash"]
        assert "faults" not in clean["spec"]

    def test_bench_cli_rejects_bad_plan_file(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"faults": [{"kind": "meteor-strike"}]}')
        assert main(["bench", "run", "fig5", "--faults", str(bad)]) == 2
        assert main(
            ["bench", "run", "fig5", "--faults", str(tmp_path / "nope.json")]
        ) == 2
