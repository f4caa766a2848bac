"""Smoke tests of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Each workload runs twice in ``--quick`` mode, once untraced and once
traced.  Both runs must print every metric ``BENCHMARK.json`` names for
their mode, with its unit, fail no operation, and agree on the digest
of the simulated outputs and on every deterministic counter.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _untraced_counters(record):
    # machine.* counts come from the machine-layer tracers, which only
    # the traced run switches on.
    return {
        name: value for name, value in record["counters"].items()
        if not name.startswith("machine.")
    }


def test_calibrate_imports_nothing_from_repro():
    tree = ast.parse((HERE / "calibrate.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported <= {
        "__future__", "bisect", "gc", "heapq", "random", "signal",
        "statistics", "sys", "time",
    }


def _run(tmp_path, workload, trace):
    out = tmp_path / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--quick", "--trace", str(trace), "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.stdout, result, json.loads(out.read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_runs_agree(tmp_path, workload):
    plain_out, plain, plain_rec = _run(tmp_path, workload, 0)
    traced_out, traced, traced_rec = _run(tmp_path, workload, 1)
    for section, stdout, result in (
        ("end_to_end", plain_out, plain),
        ("per_layer", traced_out, traced),
    ):
        assert result["failed"] == 0 and result["correct"]
        assert result["attempted"] >= 1
        for entry in SPEC[section]:
            assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
            assert f"{entry['name']} " in stdout
    assert set(plain["metrics"]) == {e["name"] for e in SPEC["end_to_end"]}
    assert plain_rec["digest"] == traced_rec["digest"]
    assert _untraced_counters(plain_rec) == _untraced_counters(traced_rec)
    assert traced["metrics"]["trace.overhead_x"]["value"] > 1.0
    trace = json.loads(Path(traced_rec["trace_file"]).read_text())
    assert {e["cat"] for e in trace["traceEvents"]} >= {"op", "phase", "calib"}


def test_missing_sources_fail_without_result(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "figures",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
