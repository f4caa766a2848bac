"""SimSession reuse: bit-identical to fresh builds, cheaper per run."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import executor
from repro.bench.harness import allreduce_latency
from repro.bench.spec import SweepSpec
from repro.errors import ReproError
from repro.machine.clusters import cluster_a, cluster_b
from repro.machine.machine import Machine
from repro.machine.noise import NoiseModel
from repro.mpi.runtime import Runtime, SimSession


class TestSessionBasics:
    def test_reuse_produces_identical_results(self):
        session = SimSession(cluster_b(2), nranks=4, ppn=2)

        def fn(comm):
            yield comm.sim.timeout((comm.rank + 1) * 1e-6)
            return comm.now

        first = session.run(fn)
        second = session.run(fn)
        assert first.values == second.values
        assert first.elapsed == second.elapsed
        assert session.runs == 2

    def test_matches_checks_layout(self):
        config = cluster_b(2)
        session = SimSession(config, nranks=4, ppn=2)
        assert session.matches(config, 4, 2)
        assert session.matches(config, 4, None)
        assert not session.matches(config, 8, 2)
        assert not session.matches(cluster_a(2), 4, 2)

    def test_mismatched_session_rejected_by_harness(self):
        session = SimSession(cluster_b(2), nranks=4, ppn=2)
        with pytest.raises(ReproError, match="does not match"):
            allreduce_latency(
                cluster_b(4), "rabenseifner", 1024, ppn=2, session=session
            )

    def test_sim_clock_rewinds_between_runs(self):
        session = SimSession(cluster_b(2), nranks=2, ppn=1)

        def fn(comm):
            yield comm.sim.timeout(5e-6)
            return comm.now

        assert session.run(fn).values == session.run(fn).values
        assert session.machine.sim.now == pytest.approx(5e-6)


class TestSessionDeterminism:
    """A reused session must be bit-identical to a fresh machine."""

    # Non-power-of-two node counts and ppn exercise the shifted-rank /
    # remainder paths of rabenseifner and the uneven partitioning of
    # dpml on top of the reset machinery.
    LAYOUTS = [(2, 2), (3, 5), (4, 3), (5, 4)]

    @pytest.mark.parametrize("algorithm", ["rabenseifner", "dpml"])
    @pytest.mark.parametrize("nodes,ppn", LAYOUTS)
    def test_session_matches_fresh(self, algorithm, nodes, ppn):
        config = cluster_b(nodes)
        session = SimSession(config, nranks=nodes * ppn, ppn=ppn)
        for nbytes in (1024, 65536):
            fresh = allreduce_latency(
                config, algorithm, nbytes, ppn=ppn, iterations=2
            )
            reused = allreduce_latency(
                config, algorithm, nbytes, ppn=ppn, iterations=2, session=session
            )
            assert reused == fresh, (
                f"{algorithm} at {nodes}x{ppn}, {nbytes}B: "
                f"session {reused} != fresh {fresh}"
            )

    @pytest.mark.parametrize("nodes,ppn", [(2, 4), (3, 5)])
    def test_sharp_session_matches_fresh(self, nodes, ppn):
        # sharp_node_leader exercises gates, shm regions, and the
        # switch-tree context Resource across resets.
        config = cluster_a(nodes)
        session = SimSession(config, nranks=nodes * ppn, ppn=ppn)
        for nbytes in (256, 4096):
            fresh = allreduce_latency(
                config, "sharp_node_leader", nbytes, ppn=ppn, iterations=2
            )
            reused = allreduce_latency(
                config, "sharp_node_leader", nbytes, ppn=ppn, iterations=2,
                session=session,
            )
            assert reused == fresh

    def test_interleaved_algorithms_stay_deterministic(self):
        """Back-to-back different algorithms must not contaminate runs."""
        config = cluster_b(3)
        session = SimSession(config, nranks=12, ppn=4)
        fresh = {
            alg: allreduce_latency(config, alg, 16384, ppn=4, iterations=2)
            for alg in ("rabenseifner", "dpml", "recursive_doubling")
        }
        for alg in ("dpml", "recursive_doubling", "rabenseifner", "dpml"):
            reused = allreduce_latency(
                config, alg, 16384, ppn=4, iterations=2, session=session
            )
            assert reused == fresh[alg]

    @settings(max_examples=6, deadline=None)
    @given(
        nodes=st.integers(min_value=2, max_value=5),
        ppn=st.integers(min_value=1, max_value=6),
        nbytes=st.sampled_from([4, 1024, 16384, 262144]),
        algorithm=st.sampled_from(["rabenseifner", "dpml"]),
    )
    def test_property_session_equals_fresh(self, nodes, ppn, nbytes, algorithm):
        config = cluster_b(nodes)
        session = SimSession(config, nranks=nodes * ppn, ppn=ppn)
        fresh = allreduce_latency(config, algorithm, nbytes, ppn=ppn, iterations=1)
        reused = allreduce_latency(
            config, algorithm, nbytes, ppn=ppn, iterations=1, session=session
        )
        assert reused == fresh

    def test_noise_stream_rewound_per_run(self):
        """Same seed on a reused session reproduces the jittered timing."""
        config = cluster_b(2)
        session = SimSession(config, nranks=4, ppn=2)
        a = allreduce_latency(
            config, "dpml", 4096, ppn=2, iterations=1,
            noise=NoiseModel(sigma=0.05, seed=7), session=session,
        )
        b = allreduce_latency(
            config, "dpml", 4096, ppn=2, iterations=1,
            noise=NoiseModel(sigma=0.05, seed=7), session=session,
        )
        fresh = allreduce_latency(
            config, "dpml", 4096, ppn=2, iterations=1,
            noise=NoiseModel(sigma=0.05, seed=7),
        )
        assert a == b == fresh

    def test_stats_reuse_one_session(self, monkeypatch):
        sessions = []

        class CountingSession(SimSession):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sessions.append(self)

        monkeypatch.setattr(executor, "SimSession", CountingSession)
        spec = SweepSpec(
            name="noisy-repeats", cluster="b", nodes=2, ppn=2,
            sizes=(4096,), algorithms=("dpml",), iterations=1,
            repeats=3, sigma=0.05,
        )
        samples = executor.SerialExecutor().run(spec).samples(nbytes=4096)
        assert [s.runs for s in sessions] == [3]
        assert len(samples) == 3
        # distinct seeds -> distinct jitter
        assert len(set(samples)) > 1


class TestRuntimeReset:
    def test_reset_clears_shm_and_contexts(self):
        machine = Machine(cluster_b(2), 4, 2)
        runtime = Runtime(machine)
        region = runtime.shm_region(0)
        c1 = runtime.next_context()
        runtime.reset()
        assert runtime.shm_region(0) is not region
        assert runtime.next_context() == c1
