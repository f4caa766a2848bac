"""Shared test fixtures: the canonical job-layout grid and the priced
allreduce roster.

The (nranks, ppn, nodes) layout grid is single-sourced from
:mod:`repro.mpi.validate` (``DEFAULT_LAYOUTS`` / ``DEFAULT_COUNTS``) —
the same shapes the ``python -m repro.bench validate`` self-check and
the ``python -m repro.check`` sanitizer CLI sweep.  Tests import the
grids from here instead of re-declaring their own copies, so adding a
tricky layout to the validation matrix automatically widens every
suite that iterates layouts.
"""

import pytest

from repro.mpi.collectives.registry import (
    available_algorithms,
    resolve_phase_plan,
)
from repro.mpi.validate import DEFAULT_COUNTS, DEFAULT_LAYOUTS

#: Degenerate shapes the validation grid leaves out (tiny jobs, a
#: single rank) — valuable for collective-family and sanitizer edge
#: cases but pure overhead for the full validation matrix.
EXTRA_LAYOUTS: tuple = ((5, 2, 3), (2, 1, 2), (1, 1, 1))

#: The validation grid plus the degenerate extras.
ALL_LAYOUTS: tuple = tuple(DEFAULT_LAYOUTS) + EXTRA_LAYOUTS

#: Collective-family grid: the two canonical multi-node shapes plus
#: every degenerate extra.
FAMILY_LAYOUTS: tuple = tuple(DEFAULT_LAYOUTS[:2]) + EXTRA_LAYOUTS

#: Registered allreduces the cost model prices (and hybrid mode
#: macro-charges), read off their records.
PRICED_ALGORITHMS: tuple = tuple(
    name for name in available_algorithms() if resolve_phase_plan(name)
)


def layout_id(layout) -> str:
    """Readable pytest id for a (nranks, ppn, nodes) triple."""
    nranks, ppn, nodes = layout
    return f"p{nranks}-ppn{ppn}-h{nodes}"


@pytest.fixture(params=DEFAULT_LAYOUTS, ids=layout_id)
def layout(request):
    """One (nranks, ppn, nodes) triple of the validation grid."""
    return request.param


@pytest.fixture(params=DEFAULT_COUNTS)
def count(request):
    """One element count of the validation grid."""
    return request.param
