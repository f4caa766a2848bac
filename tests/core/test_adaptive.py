"""Tests for the online adaptive allreduce selector."""

import numpy as np
import pytest

from repro.core.adaptive import DEFAULT_CANDIDATES, AdaptiveState
from repro.machine.clusters import cluster_b
from repro.machine.machine import Machine
from repro.mpi.collectives.registry import resolve_allreduce
from repro.mpi.runtime import Runtime, run_job
from repro.payload import SUM, SymbolicPayload, make_payload


class TestAdaptiveState:
    def test_explores_then_locks(self):
        state = AdaptiveState(candidates=(("a", {}), ("b", {}), ("c", {})))
        assert state.exploring
        assert state.next_candidate() == 0
        state.record(3.0)
        assert state.next_candidate() == 1
        state.record(1.0)
        state.record(2.0)
        assert not state.exploring
        assert state.locked == 1  # argmin
        assert state.next_candidate() == 1

    def test_single_candidate_locks_immediately(self):
        state = AdaptiveState(candidates=(("only", {}),))
        state.record(5.0)
        assert state.locked == 0


class TestAdaptiveAllreduce:
    def test_correct_during_and_after_exploration(self):
        count = 16
        calls = len(DEFAULT_CANDIDATES) + 3

        def fn(comm):
            outs = []
            for i in range(calls):
                data = make_payload(count, data=np.full(count, float(comm.rank + i)))
                result = yield from comm.allreduce(data, SUM, algorithm="adaptive")
                outs.append(result.array[0])
            return outs

        job = run_job(cluster_b(4), 16, fn, ppn=4)
        for v in job.values:
            assert v == [sum(range(16)) + 16.0 * i for i in range(calls)]

    def test_all_ranks_lock_same_winner(self):
        def fn(comm):
            payload = SymbolicPayload(65536, 4)
            for _ in range(len(DEFAULT_CANDIDATES)):
                yield from comm.allreduce(payload, SUM, algorithm="adaptive")
            key = next(k for k in comm.cache if k[0] == "adaptive")
            return comm.cache[key].locked

        job = run_job(cluster_b(4), 16, fn, ppn=4)
        assert len(set(job.values)) == 1
        assert job.values[0] is not None

    def test_winner_is_multi_leader_for_large_messages(self):
        def fn(comm):
            payload = SymbolicPayload(1 << 17, 4)  # 512KB
            for _ in range(len(DEFAULT_CANDIDATES)):
                yield from comm.allreduce(payload, SUM, algorithm="adaptive")
            key = next(k for k in comm.cache if k[0] == "adaptive")
            state = comm.cache[key]
            return state.candidates[state.locked]

        job = run_job(cluster_b(8), 8 * 16, fn, ppn=16)
        name, kwargs = job.values[0]
        assert (name, kwargs.get("leaders", 0)) in (
            ("dpml", 16), ("dpml", 4), ("rabenseifner", 0),
        )
        assert name == "dpml"  # multi-leader wins at 512KB

    def test_locked_phase_matches_direct_call_latency(self):
        """After locking, adaptive adds no agreement overhead."""
        explore_calls = len(DEFAULT_CANDIDATES)

        def timed(algorithm, **kw):
            def fn(comm):
                payload = SymbolicPayload(1 << 15, 4)
                for _ in range(explore_calls):
                    yield from comm.allreduce(payload, SUM, algorithm="adaptive")
                yield from comm.barrier()
                t0 = comm.now
                yield from comm.allreduce(payload, SUM, algorithm=algorithm, **kw)
                return comm.now - t0

            machine = Machine(cluster_b(4), 16, 4)
            return max(Runtime(machine).launch(fn).values), None

        adaptive_t, _ = timed("adaptive")
        # The locked configuration is one of the candidates; its direct
        # latency must match within a tight tolerance.
        candidates_t = []
        for name, kw in DEFAULT_CANDIDATES:
            def fn(comm, name=name, kw=kw):
                # Called the way the explorer calls it: straight into the
                # registry, so leaders=16 runs clamped to ppn=4 as it
                # does inside adaptive (a rank function passing it to
                # comm.allreduce is rejected at dispatch).
                candidate = resolve_allreduce(name, comm)
                payload = SymbolicPayload(1 << 15, 4)
                yield from comm.barrier()
                t0 = comm.now
                yield from candidate(comm, payload, SUM, **kw)
                return comm.now - t0

            machine = Machine(cluster_b(4), 16, 4)
            candidates_t.append(max(Runtime(machine).launch(fn).values))
        assert adaptive_t <= max(candidates_t) * 1.05


class TestAdaptiveUnderFaults:
    """Adaptive's cost agreement must survive fault-skewed timings.

    The selector's candidate costs are MAX-allreduced, so even when
    ranks observe wildly different local timings (arrival skew pushes
    late ranks' measurements around), every rank must record the same
    agreed cost and lock the same winner.
    """

    def _skewed_job(self, pattern, magnitude=2e-4, seed=0):
        from repro.faults import ArrivalSkew, FaultPlan

        def fn(comm):
            payload = SymbolicPayload(16384, 4)
            for _ in range(len(DEFAULT_CANDIDATES)):
                yield from comm.allreduce(payload, SUM, algorithm="adaptive")
            key = next(k for k in comm.cache if k[0] == "adaptive")
            state = comm.cache[key]
            return (state.locked, tuple(state.agreed_costs))

        plan = FaultPlan(
            faults=(ArrivalSkew(magnitude=magnitude, pattern=pattern),)
        )
        return run_job(
            cluster_b(4), 16, fn, ppn=4, faults=plan, fault_seed=seed,
        )

    @pytest.mark.parametrize(
        "pattern", ["sorted", "reverse", "random", "exponential", "single"]
    )
    def test_same_winner_locked_on_all_ranks(self, pattern):
        job = self._skewed_job(pattern)
        locked = {v[0] for v in job.values}
        assert len(locked) == 1
        assert None not in locked

    def test_agreed_costs_identical_across_ranks(self):
        job = self._skewed_job("random", seed=3)
        costs = {v[1] for v in job.values}
        assert len(costs) == 1  # MAX-allreduce agreement held

    def test_roster_includes_literature_families(self):
        """The explorer actually tries the competing designs."""
        names = {name for name, _ in DEFAULT_CANDIDATES}
        assert {"dualroot_pipelined", "optimal_rsag", "generalized"} <= names

    @pytest.mark.parametrize(
        "pattern", ["sorted", "reverse", "random", "exponential", "single"]
    )
    def test_literature_candidates_agree_under_skew(self, pattern):
        """Restricted to the three literature families, every rank
        explores all of them under arrival skew, records identical
        agreed costs, and locks the same winner."""
        from repro.faults import ArrivalSkew, FaultPlan

        families = (
            ("dualroot_pipelined", {}),
            ("optimal_rsag", {}),
            ("generalized", {}),
        )

        def fn(comm):
            payload = SymbolicPayload(16384, 4)
            for _ in range(len(families) + 1):
                yield from comm.allreduce(
                    payload, SUM, algorithm="adaptive", candidates=families
                )
            key = next(k for k in comm.cache if k[0] == "adaptive")
            state = comm.cache[key]
            return (state.locked, tuple(state.agreed_costs))

        plan = FaultPlan(
            faults=(ArrivalSkew(magnitude=2e-4, pattern=pattern),)
        )
        job = run_job(cluster_b(4), 16, fn, ppn=4, faults=plan, fault_seed=2)
        locked = {v[0] for v in job.values}
        costs = {v[1] for v in job.values}
        assert len(locked) == 1 and None not in locked
        assert len(costs) == 1  # MAX-allreduce agreement held
        assert len(next(iter(costs))) == len(families)  # all explored

    def test_full_roster_explores_every_candidate_under_skew(self):
        """With the default 8-candidate roster the exploration phase
        still converges to one agreed winner under skew."""
        job = self._skewed_job("random", seed=5)
        locked = {v[0] for v in job.values}
        costs = next(iter({v[1] for v in job.values}))
        assert len(locked) == 1
        assert len(costs) == len(DEFAULT_CANDIDATES)
        assert all(c > 0.0 for c in costs)

    def test_results_stay_correct_under_skew(self):
        from repro.faults import ArrivalSkew, FaultPlan

        calls = len(DEFAULT_CANDIDATES) + 2

        def fn(comm):
            outs = []
            for i in range(calls):
                data = make_payload(8, data=np.full(8, float(comm.rank + i)))
                result = yield from comm.allreduce(
                    data, SUM, algorithm="adaptive"
                )
                outs.append(result.array[0])
            return outs

        plan = FaultPlan(
            faults=(ArrivalSkew(magnitude=5e-4, pattern="exponential"),)
        )
        job = run_job(cluster_b(4), 16, fn, ppn=4, faults=plan, fault_seed=1)
        for v in job.values:
            assert v == [sum(range(16)) + 16.0 * i for i in range(calls)]
