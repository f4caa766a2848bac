"""Every ``>>>`` example in the package docstrings runs and holds."""

import doctest
import importlib

import pytest

MODULES = (
    "repro",
    "repro.sim.engine",
    "repro.mpi.runtime",
    "repro.payload.payload",
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0, f"{name} has no docstring examples"
    assert result.failed == 0
