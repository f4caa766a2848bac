"""Tests for the measurement harness, reporting, and the CLI."""

import pytest

from repro.bench.harness import allreduce_latency
from repro.bench.report import format_size, format_table, format_us, speedup
from repro.errors import ConfigError, ReproError
from repro.machine.clusters import cluster_b


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
            ("generalized", {"radices": (3,)}),
        ],
        ids=["leaders-above-ppn", "no-leaders", "unknown-keyword", "radices"],
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
        from repro.bench.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9b" in out and "fig11a" in out

    def test_unknown_command(self, capsys):
        from repro.bench.cli import main

        assert main(["nope"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["perf"], ["serve"], ["serve", "--demo"]],
        ids=["perf", "serve", "serve-demo"],
    )
    def test_perf_command_is_gone(self, argv, capsys):
        from repro.bench.cli import main

        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects the retired options
            code = e.code
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown command" in err or "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--sizes", "-5"], "message size"),
            (["--sizes", "4096", "--sigma", "-1"], "sigma"),
        ],
        ids=["negative-size", "negative-sigma"],
    )
    def test_run_rejects_negative_size_and_sigma(self, argv, message, capsys):
        from repro.bench.cli import main

        assert main(["run", "fig5", *argv]) == 2
        assert message in capsys.readouterr().err

    def test_single_figure_runs(self, capsys):
        from repro.bench.cli import main

        assert main(["fig1c"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1(c)" in out
