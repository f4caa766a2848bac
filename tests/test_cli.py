"""The ``python -m repro`` command tree: help everywhere, one-line errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.figures import FIGURES
from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = {
    "bench": [
        "list", "all", *FIGURES, "run", "cache", "autotune", "experiments",
        "validate",
    ],
    "check": [],
    "faults": ["example", "validate", "describe", "sample"],
    "resilience": ["example", "validate", "describe", "soak"],
    "traffic": ["example", "describe", "run"],
}
HELP = [[]] + [
    [group, *command]
    for group, commands in COMMANDS.items()
    for command in [[]] + [[c] for c in commands]
]


@pytest.mark.parametrize("argv", HELP, ids=[" ".join(a) or "top" for a in HELP])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--help"])
    assert exit_.value.code == 0
    assert "usage:" in capsys.readouterr().out


BAD = [
    (["traffic", "run", "--nodes", "0"], "requested 0"),
    (["traffic", "run", "--leaf-nodes", "2", "--spines", "0"], "spine"),
    (["bench", "autotune", "--cluster", "a", "--nodes", "0"], "requested 0"),
    (["bench", "autotune", "--ppn", "0", "--nodes", "2"], "1 <= ppn <= 28"),
    (["resilience", "soak", "--ppn", "0"], "at least one rank"),
    (["bench", "run", "fig5", "--cluster", "c"], "unrecognized arguments"),
    (["resilience", "soak", "--scenarios", "0"], "at least 1 scenario"),
    (["check", "--counts=-5"], "--counts must be non-negative"),
    (["faults", "sample", "plan.json", "--nranks", "4", "--ppn", "0"], "--ppn"),
    (["faults", "sample", "plan.json", "--nranks", "4", "--ppn", "-2"], "--ppn"),
]


@pytest.mark.parametrize(
    "argv, message", BAD, ids=[" ".join(argv) for argv, _ in BAD]
)
def test_bad_input_is_one_line_exit_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "bench", "run", "fig5", "--cluster", "c"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: unrecognized arguments: --cluster c\n"
