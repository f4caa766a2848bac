"""The ``python -m repro traffic`` commands."""

import json

from repro.traffic import TrafficTrace
from repro.cli import main


def test_example_emits_valid_trace(capsys):
    assert main(["traffic", "example"]) == 0
    trace = TrafficTrace.from_json(capsys.readouterr().out)
    assert len(trace.jobs) == 4
    arrivals = [job.arrival for job in trace.jobs]
    assert arrivals == sorted(arrivals)


def test_describe_trace_file(tmp_path, capsys):
    assert main(["traffic", "example"]) == 0
    path = tmp_path / "trace.json"
    path.write_text(capsys.readouterr().out)
    assert main(["traffic", "describe", "--trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "traffic trace" in out and "osu#0" in out


def test_describe_generated_poisson(capsys):
    assert main(["traffic", "describe", "--poisson", "3", "--rate", "20000"]) == 0
    assert "3 job(s)" in capsys.readouterr().out


def test_run_writes_byte_stable_canonical_output(tmp_path, capsys):
    args = [
        "traffic", "run", "--poisson", "3", "--rate", "30000", "--cluster", "a",
        "--sanitize", "--leaf-nodes", "2",
    ]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main([*args, "--output", str(out1)]) == 0
    assert "traffic run" in capsys.readouterr().out
    assert main([*args, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    blob = json.loads(out1.read_text())
    assert blob["suite"] == "repro.traffic"
    assert len(blob["jobs"]) == 3


def test_run_with_fault_plan(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(
        json.dumps(
            {
                "faults": [
                    {
                        "kind": "node-slowdown", "node": 0, "factor": 2.0,
                        "start": 0.0, "duration": 1e-3,
                    }
                ]
            }
        )
    )
    assert main([
        "traffic", "run", "--poisson", "2", "--rate", "20000",
        "--cluster", "a", "--faults", str(plan_path),
    ]) == 0
    assert "traffic run" in capsys.readouterr().out


def test_missing_trace_file(capsys):
    argv = ["traffic", "describe", "--trace", "/nonexistent/trace.json"]
    assert main(argv) == 2
    assert "cannot read traffic trace" in capsys.readouterr().err


def test_invalid_trace_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"jobs": [{"app": "warp", "arrival": 0.0}]}')
    assert main(["traffic", "run", "--trace", str(path)]) == 2
    assert "invalid traffic trace" in capsys.readouterr().err


def test_missing_fault_plan(tmp_path, capsys):
    argv = [
        "traffic", "run", "--poisson", "2",
        "--faults", str(tmp_path / "no.json"),
    ]
    assert main(argv) == 2
    assert "cannot read fault plan" in capsys.readouterr().err
