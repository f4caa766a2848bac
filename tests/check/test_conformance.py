"""Sanitized conformance suite: every allreduce, zero reports.

Property-based layer of the tier-1 suite: every registered allreduce
algorithm, run under ``sanitize=True`` across randomly drawn layouts,
element counts, reduction ops, and leader counts, must produce the
numpy reference answer with **zero** sanitizer reports.  Drawn
layouts include ragged fills (a partial last node) and
non-power-of-two rank counts, and every algorithm that takes a leader
count runs counts that do not divide ``ppn``.  The deterministic
parametrized layer pins the full algorithm roster on one canonical
tricky layout so a regression names the algorithm in the test id.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.sanitizer import Sanitizer
from repro.mpi.collectives.registry import (
    allreduce_keywords,
    available_algorithms,
)
from repro.mpi.runtime import run_job
from repro.mpi.validate import _config_for
from repro.payload import MAX, SUM, DataPayload
from tests.conftest import ALL_LAYOUTS, layout_id

#: Algorithms whose signature takes an explicit leader count.
LEADERED = tuple(
    name for name in available_algorithms()
    if "leaders" in (allreduce_keywords(name) or ())
)


@st.composite
def ragged_layouts(draw):
    """(nranks, ppn, nodes) with any fill of the last node, so ragged
    fills and non-power-of-two rank counts are drawn."""
    ppn = draw(st.integers(min_value=1, max_value=7))
    nodes = draw(st.integers(min_value=1, max_value=4))
    nranks = draw(
        st.integers(min_value=(nodes - 1) * ppn + 1, max_value=nodes * ppn)
    )
    return (nranks, ppn, nodes)


#: The grid's layouts plus drawn ragged ones.
LAYOUTS = st.one_of(st.sampled_from(ALL_LAYOUTS), ragged_layouts())


@st.composite
def leadered_layouts(draw):
    """A layout and a leader count in ``[1, ppn]``."""
    layout = draw(LAYOUTS)
    return layout, draw(st.integers(min_value=1, max_value=layout[1]))


def _run_sanitized(algorithm, layout, count, op, leaders=None, seed=0):
    nranks, ppn, nodes = layout
    rng = np.random.default_rng(seed)
    inputs = [
        rng.integers(1, 9, count).astype(np.float64) for _ in range(nranks)
    ]
    kwargs = {"algorithm": algorithm}
    if leaders is not None:
        kwargs["leaders"] = leaders

    def fn(comm):
        out = yield from comm.allreduce(
            DataPayload(inputs[comm.rank].copy()), op, **kwargs
        )
        return out.array

    sanitizer = Sanitizer(strict=False)
    result = run_job(
        _config_for("allreduce", algorithm),
        nranks,
        fn,
        ppn=ppn,
        sanitize=sanitizer,
    )
    expected = op.reduce_stack(inputs)
    for rank, got in enumerate(result.values):
        np.testing.assert_array_equal(
            got, expected, err_msg=f"{algorithm} rank {rank}"
        )
    assert sanitizer.ok, sanitizer.summary()


class TestSanitizedConformance:
    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_every_algorithm_clean_on_tricky_layout(self, algorithm):
        _run_sanitized(algorithm, (9, 3, 3), 13, SUM)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        algorithm=st.sampled_from(available_algorithms()),
        layout=LAYOUTS,
        count=st.integers(min_value=1, max_value=200),
        op=st.sampled_from([SUM, MAX]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_random_layouts_and_counts_clean(
        self, algorithm, layout, count, op, seed
    ):
        _run_sanitized(algorithm, layout, count, op, seed=seed)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        algorithm=st.sampled_from(LEADERED),
        drawn=leadered_layouts(),
        count=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_random_leader_counts_clean(self, algorithm, drawn, count, seed):
        # A leader count above ppn is rejected at dispatch; every count
        # in [1, ppn] must tile cleanly, dividing ppn or not.
        layout, leaders = drawn
        _run_sanitized(algorithm, layout, count, SUM, leaders=leaders, seed=seed)

    @pytest.mark.parametrize("algorithm", available_algorithms())
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        layout=ragged_layouts(),
        count=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_every_family_clean_on_ragged_layouts(
        self, algorithm, layout, count, seed
    ):
        _run_sanitized(algorithm, layout, count, SUM, seed=seed)

    @pytest.mark.parametrize("algorithm", LEADERED)
    @pytest.mark.parametrize(
        "layout, leaders",
        [((10, 4, 3), 3), ((9, 3, 3), 2), ((6, 6, 1), 4), ((17, 7, 3), 5)],
        ids=lambda v: layout_id(v) if isinstance(v, tuple) else f"l{v}",
    )
    def test_leaders_not_dividing_ppn_clean(self, algorithm, layout, leaders):
        _run_sanitized(algorithm, layout, 37, SUM, leaders=leaders)

    def test_validation_matrix_clean_under_sanitizer(self):
        # The allreduce slice of the full validation matrix, sanitized.
        from repro.mpi.validate import validate_all

        report = validate_all(
            kinds=["allreduce"], layouts=[(10, 4, 3)], counts=[13],
            sanitize=True,
        )
        assert report.ok, report.failed[:5]
