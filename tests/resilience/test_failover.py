"""Leader failover end to end: the subsystem's acceptance criteria.

The golden scenario: a dpml allreduce on ``cluster_b(3)`` with a
permanent outage isolating node 2 (one of the leaders).  With recovery
enabled the job completes via failover with result buffers
bit-identical to a fault-free run on the surviving layout; with it
disabled the same scenario raises the typed transport error — the same
decision at the same simulated time in both fidelities.
"""

import numpy as np
import pytest

from repro.check import reports as R
from repro.check.sanitizer import Sanitizer
from repro.errors import RecoveryError, TransportError
from repro.machine.clusters import cluster_b
from repro.mpi.runtime import run_job
from repro.payload import SUM, make_payload
from repro.resilience import RecoveryManager, RecoveryPolicy, isolation_plan

POLICY = RecoveryPolicy()

#: Node 2 cut off in both directions from t=0, fast retry exhaustion.
ISOLATE_NODE2 = isolation_plan(2, 0.0)


def allreduce_fn(comm, count=8, algorithm="dpml"):
    data = make_payload(
        count, data=np.arange(count, dtype=np.float32) + float(comm.rank)
    )
    result = yield from comm.allreduce(data, SUM, algorithm=algorithm)
    return list(map(float, result.array))


def run_recovered(**kwargs):
    return run_job(
        cluster_b(3), 6, allreduce_fn, ppn=2,
        faults=ISOLATE_NODE2, recovery=POLICY, **kwargs,
    )


class TestAcceptance:
    def test_failover_completes_bit_identical_to_survivor_reference(self):
        job = run_recovered(sanitize=True)
        reference = run_job(
            cluster_b(3), 6, allreduce_fn, ppn=2, sanitize=True,
            recovery=RecoveryManager(POLICY, pin_failed_nodes=[2]),
        )
        assert job.values == reference.values
        assert job.values[4] is None and job.values[5] is None
        resilience = job.counters["resilience"]
        assert [f["node"] for f in resilience["failovers"]] == [2]
        assert resilience["dead_nodes"] == [2]
        assert resilience["dead_ranks"] == [4, 5]
        assert resilience["failovers"][0]["boundary"] == 0

    def test_recovered_run_is_deterministic(self):
        first, second = run_recovered(), run_recovered()
        assert first.values == second.values
        assert first.elapsed == second.elapsed
        assert first.counters["resilience"] == second.counters["resilience"]

    def test_decision_is_seed_independent_for_same_plan_and_policy(self):
        # The recover-or-abort decision is a function of the
        # (plan, policy) pair; the injector seed only perturbs
        # realised noise, which this plan has none of.
        runs = [run_recovered(fault_seed=seed) for seed in (0, 1, 7)]
        assert all(r.values == runs[0].values for r in runs)
        assert all(
            r.counters["resilience"]["failovers"]
            == runs[0].counters["resilience"]["failovers"]
            for r in runs
        )

    def test_without_recovery_raises_typed_transport_error(self):
        with pytest.raises(TransportError) as info:
            run_job(
                cluster_b(3), 6, allreduce_fn, ppn=2, faults=ISOLATE_NODE2,
            )
        err = info.value
        assert 2 in err.edge
        assert err.attempts == ISOLATE_NODE2.retry_limit
        assert err.sim_time > 0.0
        assert 0 <= err.rank < 6

    def test_disabled_policy_behaves_like_no_recovery(self):
        with pytest.raises(TransportError):
            run_job(
                cluster_b(3), 6, allreduce_fn, ppn=2, faults=ISOLATE_NODE2,
                recovery=RecoveryPolicy(enabled=False),
            )


class TestMatrix:
    """Same decision at the same sim time in both fidelities."""

    @pytest.mark.parametrize("fidelity", ["exact", "hybrid"])
    def test_recover_decision_matches(self, fidelity):
        baseline = run_recovered()
        job = run_recovered(fidelity=fidelity)
        assert job.values == baseline.values
        assert job.elapsed == baseline.elapsed
        assert (
            job.counters["resilience"]["failovers"]
            == baseline.counters["resilience"]["failovers"]
        )

    @pytest.mark.parametrize("fidelity", ["exact", "hybrid"])
    def test_abort_decision_matches(self, fidelity):
        with pytest.raises(TransportError) as base_info:
            run_job(cluster_b(3), 6, allreduce_fn, ppn=2, faults=ISOLATE_NODE2)
        with pytest.raises(TransportError) as info:
            run_job(
                cluster_b(3), 6, allreduce_fn, ppn=2, faults=ISOLATE_NODE2,
                fidelity=fidelity,
            )
        assert info.value.sim_time == base_info.value.sim_time
        assert info.value.edge == base_info.value.edge
        assert info.value.attempts == base_info.value.attempts

    def test_hybrid_with_recovery_never_macro_charges(self):
        # A recovery layer forces the exact per-message path wholesale:
        # the detector needs real transport traffic to observe.
        job = run_job(
            cluster_b(3), 6, allreduce_fn, ppn=2,
            fidelity="hybrid", recovery=POLICY,
        )
        assert job.counters["macro_events"] == 0
        control = run_job(
            cluster_b(3), 6, allreduce_fn, ppn=2, fidelity="hybrid",
        )
        assert control.counters["macro_events"] > 0


class TestUnrecoverable:
    def test_zero_budget_raises_double_failover(self):
        with pytest.raises(RecoveryError) as info:
            run_job(
                cluster_b(3), 6, allreduce_fn, ppn=2, faults=ISOLATE_NODE2,
                recovery=RecoveryPolicy(max_failovers=0),
            )
        assert info.value.kind == "double-failover"

    def test_zero_budget_records_sanitizer_report(self):
        sanitizer = Sanitizer(strict=False)
        with pytest.raises(RecoveryError):
            run_job(
                cluster_b(3), 6, allreduce_fn, ppn=2, faults=ISOLATE_NODE2,
                recovery=RecoveryPolicy(max_failovers=0), sanitize=sanitizer,
            )
        kinds = [r.kind for r in sanitizer.reports]
        assert R.RESILIENCE_DOUBLE_FAILOVER in kinds

    def test_lost_partition_when_every_node_is_dead(self):
        from repro.machine.machine import Machine

        machine = Machine(cluster_b(2), 4, 2)
        manager = RecoveryManager(POLICY, pin_failed_nodes=[0])
        manager.begin_job(machine)
        manager.detector.observe_exhaustion(0, 0, 1, 1e-5, 3)
        with pytest.raises(RecoveryError) as info:
            manager.plan_failover(machine, 1e-5)
        assert info.value.kind == "lost-partition"


class TestBoundaryReplay:
    """Completed collectives are replayed, not re-run, after a failover."""

    @staticmethod
    def two_collectives(comm, start):
        data = make_payload(
            8, data=np.arange(8, dtype=np.float32) + float(comm.rank)
        )
        first = yield from comm.allreduce(data, SUM, algorithm="dpml")
        if comm.now < start:
            # Idle past the outage start so the second collective (and
            # only it) runs into the failure.
            yield comm.sim.timeout(start - comm.now)
        second = yield from comm.allreduce(data, SUM, algorithm="dpml")
        return (list(map(float, first.array)), list(map(float, second.array)))

    def test_first_collective_replays_second_reruns(self):
        probe = run_job(
            cluster_b(3), 6, self.two_collectives, ppn=2, args=(0.0,),
        )
        start = float(probe.elapsed) * 2.0
        job = run_job(
            cluster_b(3), 6, self.two_collectives, ppn=2,
            args=(start,),
            faults=isolation_plan(2, start), recovery=POLICY,
        )
        resilience = job.counters["resilience"]
        assert [f["node"] for f in resilience["failovers"]] == [2]
        assert resilience["failovers"][0]["boundary"] == 1
        reference = run_job(
            cluster_b(3), 6, self.two_collectives, ppn=2,
            args=(start,),
            recovery=RecoveryManager(POLICY, pin_failed_nodes=[2]),
        )
        for rank in range(4):
            first, second = job.values[rank]
            # The pre-failure collective keeps its full-world result...
            assert first == probe.values[rank][0]
            # ...while the re-run one matches the survivor-only layout.
            assert second == reference.values[rank][1]
        assert job.values[4] is None and job.values[5] is None


class TestPostShrink:
    def test_recovered_run_passes_strict_sanitizer(self):
        run_recovered(sanitize=True)  # strict: raises on any report

    def test_leak_toward_dead_rank_is_reported(self):
        # Doctor a dead rank's matcher: unmatched state parked there
        # after the shrink must be flagged.
        from repro.mpi.runtime import Runtime
        from repro.machine.machine import Machine

        machine = Machine(cluster_b(3), 6, 2)
        runtime = Runtime(machine, recovery=RecoveryManager(
            POLICY, pin_failed_nodes=[2]
        ))
        runtime.recovery.begin_job(machine)
        runtime.transport.matchers[4].post(0, 7, 0, lambda env: None)
        sanitizer = Sanitizer(strict=False)
        runtime.recovery.post_shrink_check(runtime, sanitizer)
        kinds = [r.kind for r in sanitizer.reports]
        assert R.RESILIENCE_POST_SHRINK_LEAK in kinds
