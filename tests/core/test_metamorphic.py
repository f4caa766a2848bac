"""Metamorphic timing properties of the simulated collective stack.

These tests pin relations that must hold regardless of calibration:
determinism, monotonicity in message size and system size, equivalence
of symbolic and data payloads, and straggler semantics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import allreduce_latency
from repro.machine.clusters import cluster_b, cluster_c
from repro.machine.machine import Machine
from repro.mpi.runtime import Runtime, run_job
from repro.payload import SUM, DataPayload, SymbolicPayload


class TestDeterminism:
    @given(
        size=st.sampled_from([64, 4096, 262144]),
        algorithm=st.sampled_from(["dpml", "rabenseifner", "mvapich2"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_repeat_runs_identical(self, size, algorithm):
        kw = dict(ppn=4, iterations=1, warmup=0)
        a = allreduce_latency(cluster_b(2), algorithm, size, **kw)
        b = allreduce_latency(cluster_b(2), algorithm, size, **kw)
        assert a == b


class TestSymbolicDataEquivalence:
    @pytest.mark.parametrize(
        "algorithm,kw",
        [("recursive_doubling", {}), ("dpml", {"leaders": 2}),
         ("rabenseifner", {}), ("ring", {})],
    )
    def test_timing_independent_of_payload_kind(self, algorithm, kw):
        """Simulated time must not depend on whether real data flows."""
        count = 4096

        def run(symbolic):
            def fn(comm):
                if symbolic:
                    payload = SymbolicPayload(count, 8)
                else:
                    payload = DataPayload(np.ones(count))
                yield from comm.barrier()
                t0 = comm.now
                yield from comm.allreduce(payload, SUM, algorithm=algorithm, **kw)
                return comm.now - t0

            machine = Machine(cluster_b(2), 8, 4)
            return max(Runtime(machine).launch(fn).values)

        assert run(True) == run(False)


class TestMonotonicity:
    @pytest.mark.parametrize("algorithm", ["dpml", "mvapich2", "intel_mpi"])
    def test_latency_monotone_in_message_size(self, algorithm):
        sizes = [256, 4096, 65536, 1048576]
        lat = [
            allreduce_latency(cluster_b(4), algorithm, s, ppn=8)
            for s in sizes
        ]
        assert lat == sorted(lat)

    def test_latency_grows_with_node_count(self):
        lat = [
            allreduce_latency(cluster_b(n), "dpml", 65536, ppn=8, leaders=4)
            for n in (2, 8, 32)
        ]
        assert lat == sorted(lat)

    def test_opa_medium_faster_than_ib_medium_single_pair_regime(self):
        """OPA's DMA lets one process hit line rate; IB's per-process
        injection limit makes the same flat transfer slower."""
        ib = allreduce_latency(cluster_b(4), "recursive_doubling", 1 << 20, ppn=1)
        opa = allreduce_latency(cluster_c(4), "recursive_doubling", 1 << 20, ppn=1)
        assert opa < ib


class TestStragglers:
    def test_collective_waits_for_slowest_rank(self):
        delay = 5e-4

        def fn(comm):
            if comm.rank == comm.size - 1:
                yield comm.sim.timeout(delay)  # injected straggler
            t0 = comm.now
            yield from comm.allreduce(
                SymbolicPayload(64, 4), SUM, algorithm="recursive_doubling"
            )
            return comm.now

        job = run_job(cluster_b(2), 8, fn, ppn=4)
        # Nobody can finish the allreduce before the straggler arrives.
        assert min(job.values) >= delay

    def test_straggler_leader_delays_dpml(self):
        delay = 5e-4

        def fn(comm, slow_rank):
            if comm.rank == slow_rank:
                yield comm.sim.timeout(delay)
            yield from comm.allreduce(
                SymbolicPayload(4096, 4), SUM, algorithm="dpml", leaders=2
            )
            return comm.now

        # Delaying a leader (local rank 0) vs a follower (local rank 3):
        # both stall the collective, since every rank contributes data.
        lead = run_job(cluster_b(2), 8, fn, ppn=4, args=(0,))
        follow = run_job(cluster_b(2), 8, fn, ppn=4, args=(3,))
        assert max(lead.values) >= delay
        assert max(follow.values) >= delay


class TestEquivalences:
    def test_dpml_with_one_node_uses_shm_only(self):
        """Single-node DPML must not touch the NIC."""
        machine = Machine(cluster_b(1), 8, 8, trace=True)

        def fn(comm):
            yield from comm.allreduce(
                SymbolicPayload(4096, 4), SUM, algorithm="dpml", leaders=4
            )

        Runtime(machine).launch(fn)
        assert machine.nic_tx[0].job_count == 0
        assert machine.tracer.time("net-send") == 0.0

    def test_one_rank_per_node_dpml_uses_no_shm_copies(self):
        machine = Machine(cluster_b(4), 4, 1, trace=True)

        def fn(comm):
            # The default four leaders run clamped to one per node.
            yield from comm.allreduce(
                SymbolicPayload(4096, 4), SUM, algorithm="dpml"
            )

        Runtime(machine).launch(fn)
        assert machine.tracer.time("copy") == 0.0
        assert machine.nic_tx[0].job_count > 0
