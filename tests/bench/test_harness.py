"""Tests for the measurement harness, reporting, and the CLI."""

import pytest

from repro.apps.osu import osu_collective_latency
from repro.bench.harness import allreduce_latency, latency_kernel
from repro.bench.report import format_size, format_table, format_us, speedup
from repro.errors import ConfigError, ReproError
from repro.machine.clusters import cluster_b, get_cluster
from repro.machine.machine import Machine
from repro.machine.noise import NoiseModel
from repro.mpi.collectives.registry import available_algorithms
from repro.mpi.runtime import Runtime, SimSession, run_job
from repro.payload.ops import SUM
from repro.payload.payload import SymbolicPayload

#: Every registered allreduce on every cluster at 4 x 8 (SHArP designs
#: only on cluster A, the one with a SHArP fabric), except
#: ``adaptive``: it picks its design from the calls it has measured,
#: so successive calls run different designs and are not meant to
#: agree (its own tests are in :class:`TestWarmupPaths`).
FENCED_POINTS = [
    (cluster, algorithm)
    for cluster in "abcd"
    for algorithm in available_algorithms()
    if algorithm != "adaptive"
    and (not algorithm.startswith("sharp_") or cluster == "a")
]
FENCED_SIZES = (1024, 65536, 524288)


def _fenced_windows(call, warmups, calls, barrier=True):
    """Rank function: ``warmups`` explicit ``call(comm)``s, the barrier
    (unless ``barrier`` is false), then ``calls`` calls each released
    from an idle fence; returns each fenced call's window."""

    def bench(comm):
        for _ in range(warmups):
            yield from call(comm)
        if barrier:
            yield from comm.barrier()
        windows = []
        for _ in range(calls):
            yield comm.sim.idle(comm.world_rank)
            t0 = comm.now
            yield from call(comm)
            windows.append(comm.now - t0)
        return windows

    return bench


def _allreduce(algorithm, nbytes):
    """``call(comm)``: one symbolic allreduce of ``nbytes``."""
    payload = SymbolicPayload(max(1, nbytes // 4), 4)
    return lambda comm: comm.allreduce(payload, SUM, algorithm=algorithm)


def _slowest(job):
    """Each fenced call's latency: the slowest rank's window."""
    return [max(windows) for windows in zip(*job.values)]


@pytest.fixture(scope="module")
def fenced_sessions():
    """One 4 x 8 session per cluster, reused by every algorithm."""
    return {}


class TestHarness:
    def test_latency_positive_and_deterministic(self):
        a = allreduce_latency(cluster_b(2), "recursive_doubling", 1024, ppn=2)
        b = allreduce_latency(cluster_b(2), "recursive_doubling", 1024, ppn=2)
        assert a > 0
        assert a == b  # the simulation is a pure function of its inputs

    def test_latency_monotone_in_size(self):
        config = cluster_b(2)
        ts = [
            allreduce_latency(config, "recursive_doubling", n, ppn=4)
            for n in (1024, 65536, 1 << 20)
        ]
        assert ts == sorted(ts)

    def test_validate_mode_checks_results(self):
        # Should not raise: the algorithms are correct.
        allreduce_latency(
            cluster_b(2), "dpml", 4096, ppn=4, validate=True, leaders=2
        )

    def test_missing_ranks_and_ppn_rejected(self):
        with pytest.raises(ReproError):
            allreduce_latency(cluster_b(2), "ring", 64)

    @pytest.mark.parametrize(
        "loop", [{"iterations": 0}, {"iterations": -1}, {"warmup": -1}]
    )
    def test_invalid_loop_knobs_rejected_before_simulation(self, loop):
        from repro.mpi.runtime import SimSession

        session = SimSession(cluster_b(2), 4, 2)
        with pytest.raises(ConfigError, match=next(iter(loop))):
            allreduce_latency(
                cluster_b(2), "dpml", 64, ppn=2, session=session, **loop
            )
        assert session.runs == 0

    @pytest.mark.parametrize(
        "algorithm, knobs",
        [
            ("dpml", {"leaders": 64}),
            ("dpml", {"leaders": 0}),
            ("dpml", {"bogus": 1}),
            ("dpml", {"tag_base": 1}),
            ("generalized", {"radices": (3,)}),
            ("dpml", {"leaders": 2.0}),
            ("dpml_pipelined", {"pipeline_unit": 1000.5}),
            ("ring_segmented", {"segment_bytes": 1000.5}),
            ("generalized", {"radices": (2, 4.5)}),
            ("generalized", {"radices": "222"}),
            ("dualroot_pipelined", {"segment_bytes": 1000}),
            ("dpml_pipelined", {"max_k": 4}),
            ("dpml", {"inter_algorithm": "nonexistent"}),
            ("dpml_pipelined", {"inter_algorithm": "nonexistent"}),
        ],
        ids=[
            "leaders-above-ppn", "no-leaders", "unknown-keyword", "tag-base",
            "radices", "float-leaders", "float-pipeline-unit",
            "float-segment-bytes", "float-radix", "string-radices",
            "retired-segment-bytes", "retired-max-k", "unknown-inter",
            "pipelined-unknown-inter",
        ],
    )
    def test_invalid_algorithm_knobs_rejected_before_simulation(
        self, algorithm, knobs
    ):
        """The harness and a sample point reject the same knobs with
        the same message, before anything is simulated."""
        from repro.bench.spec import SamplePoint
        from repro.mpi.runtime import SimSession

        session = SimSession(cluster_b(2), 8, 4)
        with pytest.raises(ConfigError) as direct:
            allreduce_latency(cluster_b(2), algorithm, 4096, ppn=4, **knobs)
        with pytest.raises(ConfigError) as reused:
            allreduce_latency(
                cluster_b(2), algorithm, 4096, ppn=4, session=session, **knobs
            )
        assert session.runs == 0
        leaders = knobs.pop("leaders", None)
        with pytest.raises(ConfigError) as point:
            SamplePoint(
                "b", 2, 4, algorithm, 4096, leaders=leaders,
                extra=tuple(knobs.items()),
            )
        assert str(direct.value) == str(reused.value) == str(point.value)

    def test_negative_size_rejected_before_simulation(self):
        from repro.mpi.runtime import SimSession

        session = SimSession(cluster_b(2), 8, 4)
        with pytest.raises(ConfigError, match="message size"):
            allreduce_latency(cluster_b(2), "dpml", -5, ppn=4)
        with pytest.raises(ConfigError, match="message size"):
            allreduce_latency(cluster_b(2), "dpml", -5, ppn=4, session=session)
        assert session.runs == 0

    def test_explicit_nranks(self):
        t = allreduce_latency(cluster_b(4), "ring", 1024, nranks=6, ppn=2)
        assert t > 0


@pytest.mark.parametrize(
    "cluster, algorithm", FENCED_POINTS,
    ids=[f"{c}-{a}" for c, a in FENCED_POINTS],
)
def test_noise_free_point_is_one_fenced_call(fenced_sessions, cluster, algorithm):
    """A noise-free point is one fenced call, to the bit: it does not
    depend on ``iterations`` or ``warmup`` (the harness skips the
    warm-up and the barrier), a job that runs its warm-up and barrier
    explicitly gives the same first fenced call, and the three fenced
    calls after it agree."""
    config = get_cluster(cluster, 4)
    session = fenced_sessions.get(cluster)
    if session is None:
        session = fenced_sessions[cluster] = SimSession(config, 32, 8)
    for nbytes in FENCED_SIZES:
        points = {
            (iterations, warmup): allreduce_latency(
                config, algorithm, nbytes, ppn=8, iterations=iterations,
                warmup=warmup, session=session,
            )
            for iterations, warmup in ((1, 1), (2, 1), (3, 0), (5, 2))
        }
        assert len(set(points.values())) == 1, (nbytes, points)
        job = session.run(
            _fenced_windows(_allreduce(algorithm, nbytes), 1, 4)
        )
        calls = _slowest(job)
        assert calls == [points[1, 1]] * 4, (nbytes, calls, points)


def test_a_delayed_job_measures_the_same_latency():
    """Delaying the whole job moves the absolute clock of every fence
    release, and nothing a timed call computes; with no warm-up and no
    barrier before the fence, the job ends one latency after the
    delay, to the bit."""
    config = get_cluster("b", 16)
    kernel = latency_kernel("rabenseifner", 524288)

    def delayed(comm):
        yield comm.sim.timeout(3.3e-3)
        window = yield from kernel(comm)
        return window

    session = SimSession(config, 448, 28)
    want = allreduce_latency(
        config, "rabenseifner", 524288, ppn=28, session=session
    )
    job = session.run(delayed)
    assert max(job.values) == want
    assert job.elapsed == 3.3e-3 + want


def _dispatched(job):
    """Calendar entries the job dispatched."""
    return job.counters["heap_pops"] + job.counters["nowq_entries"]


class TestWarmupPaths:
    """Where the harness skips the warm-up and the barrier and where it
    keeps them: each point equals a job that runs its warm-ups and
    barrier explicitly, to the bit."""

    @pytest.mark.parametrize(
        "cluster, algorithm",
        [("a", "sharp_socket_leader"), ("b", "dpml"), ("c", "mvapich2"),
         ("d", "rabenseifner")],
    )
    def test_steady_point_runs_only_its_fenced_call(self, cluster, algorithm):
        """A steady exact point dispatches exactly the calendar entries
        of a rank function that only fences and calls."""
        session = SimSession(get_cluster(cluster, 4), 32, 8)
        point = session.run(latency_kernel(algorithm, 65536, warmup=2))
        bare = session.run(
            _fenced_windows(_allreduce(algorithm, 65536), 0, 1, barrier=False)
        )
        assert _slowest(bare) == [max(point.values)]
        assert _dispatched(point) == _dispatched(bare)

    @pytest.mark.parametrize(
        "path", ["noise", "faults", "recovery", "adaptive", "hybrid"]
    )
    def test_unsteady_paths_keep_the_barrier(self, path):
        """With no warm-up and one timed call, such a point still runs
        more than its fenced call: the barrier's messages (its macro
        charge in a hybrid job) on top of the call's own."""
        from repro.faults import FaultPlan, Straggler
        from repro.resilience import RecoveryPolicy

        algorithm = "adaptive" if path == "adaptive" else "ring"
        config = get_cluster("b", 4)
        if path == "recovery":
            # A session has no recovery layer; only a Runtime built
            # with one (or run_job) attaches it.
            def launch(fn):
                machine = Machine(config, 32, 8, trace=True)
                return Runtime(machine, recovery=RecoveryPolicy()).launch(fn)
        else:
            session = SimSession(
                config, 32, 8, trace=True,
                fidelity="hybrid" if path == "hybrid" else "exact",
            )
            run = {
                "noise": {"noise": NoiseModel(sigma=0.05, seed=3)},
                "faults": {
                    "faults": FaultPlan(faults=(Straggler(rank=0, factor=2.0),))
                },
            }.get(path, {})

            def launch(fn):
                return session.run(fn, **run)

        def sent(job):
            return (
                job.tracer.count("net-send"), job.counters["macro_events"]
            )

        point = sent(launch(
            latency_kernel(algorithm, 65536, iterations=1, warmup=0)
        ))
        bare = sent(launch(
            _fenced_windows(_allreduce(algorithm, 65536), 0, 1, barrier=False)
        ))
        if path == "hybrid":
            assert point[0] == bare[0] and point[1] > bare[1]
        else:
            assert point[0] > bare[0] and point[1] == bare[1] == 0

    @pytest.mark.parametrize("warmup", [1, 2])
    def test_adaptive_keeps_its_warmups(self, warmup):
        # Each warm-up explores one more candidate, so the timed call
        # depends on how many ran.
        config = get_cluster("b", 4)
        point = allreduce_latency(
            config, "adaptive", 65536, ppn=8, warmup=warmup
        )
        job = run_job(
            config, 32,
            _fenced_windows(_allreduce("adaptive", 65536), warmup, 1), ppn=8,
        )
        assert _slowest(job) == [point]

    def test_adaptive_warmups_change_the_point(self):
        config = get_cluster("b", 4)
        points = {
            warmup: allreduce_latency(
                config, "adaptive", 65536, ppn=8, warmup=warmup
            )
            for warmup in (0, 1, 2)
        }
        assert len(set(points.values())) == 3, points

    @pytest.mark.parametrize("kind", ["reduce", "bcast"])
    @pytest.mark.parametrize("algorithm", ["binomial", "knomial", "dpml"])
    def test_osu_rooted_loops_match_their_warmup_path(self, kind, algorithm):
        config = get_cluster("b", 4)
        nbytes = 65536
        point = osu_collective_latency(
            config, kind, nbytes, nranks=32, ppn=8, algorithm=algorithm,
            root=3, warmup=2,
        )
        payload = SymbolicPayload(nbytes // 4, 4)

        def call(comm):
            if kind == "reduce":
                return comm.reduce(payload, SUM, root=3, algorithm=algorithm)
            return comm.bcast(payload, root=3, algorithm=algorithm)

        job = run_job(config, 32, _fenced_windows(call, 2, 2), ppn=8)
        assert _slowest(job) == [point, point]
        job = run_job(config, 32, _fenced_windows(call, 0, 1), ppn=8)
        assert _slowest(job) == [point]

    @pytest.mark.parametrize(
        "cluster, algorithm",
        [("a", "sharp_socket_leader"), ("b", "dpml"), ("c", "ring"),
         ("d", "mvapich2")],
    )
    def test_validated_points_match_their_warmup_path(self, cluster, algorithm):
        """``validate=True`` takes the skip too; a zero-sigma noise
        model, whose every perturbation is the identity, keeps the
        warm-up and the timed iterations, and gives the same point."""
        config = get_cluster(cluster, 4)
        skip, warm, symbolic = (
            allreduce_latency(
                config, algorithm, 65536, ppn=8, warmup=2, iterations=3,
                validate=validate, noise=noise,
            )
            for validate, noise in (
                (True, None), (True, NoiseModel(sigma=0.0)), (False, None)
            )
        )
        assert skip == warm == symbolic


class TestReport:
    def test_format_size(self):
        assert format_size(4) == "4B"
        assert format_size(1024) == "1KB"
        assert format_size(16384) == "16KB"
        assert format_size(1 << 20) == "1MB"
        assert format_size(1536) == "1.5KB"

    def test_format_us_ranges(self):
        assert format_us(2.5e-6) == "2.50"
        assert format_us(1.234e-4) == "123.4"
        assert format_us(2.5e-3) == "2,500"

    def test_speedup(self):
        assert speedup(2.0, 1.0) == 2.0
        with pytest.raises(ZeroDivisionError):
            speedup(1.0, 0.0)

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 100, "b": "z"}]
        out = format_table(rows, ["a", "b"], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty_rows(self):
        out = format_table([], ["a"])
        assert "a" in out


class TestCli:
    def test_list_command(self, capsys):
        from repro.cli import main

        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig9b" in out and "fig11a" in out

    def test_unknown_command(self, capsys):
        from repro.cli import main

        assert main(["bench", "nope"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["perf"], ["serve"], ["serve", "--demo"]],
        ids=["perf", "serve", "serve-demo"],
    )
    def test_perf_command_is_gone(self, argv, capsys):
        from repro.cli import main

        assert main(["bench", *argv]) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--sizes", "-5"], "message size"),
            (["--sizes", "4096", "--sigma", "-1"], "sigma"),
        ],
        ids=["negative-size", "negative-sigma"],
    )
    def test_run_rejects_negative_size_and_sigma(self, argv, message, capsys):
        from repro.cli import main

        assert main(["bench", "run", "fig5", *argv]) == 2
        assert message in capsys.readouterr().err

    def test_single_figure_runs(self, capsys):
        from repro.cli import main

        assert main(["bench", "fig1c"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1(c)" in out
