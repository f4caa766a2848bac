"""Tests for payload vectors and partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PayloadError
from repro.payload import (
    MAX,
    MIN,
    PROD,
    SUM,
    Bundle,
    DataPayload,
    SymbolicPayload,
    concat,
    make_payload,
    payload_counters,
    reduce_payloads,
    reset_payload_counters,
    split_bounds,
)


class TestSplitBounds:
    def test_even_split(self):
        assert split_bounds(12, 3) == ((0, 4), (4, 8), (8, 12))

    def test_results_are_cached(self):
        assert split_bounds(100, 7) is split_bounds(100, 7)

    def test_uneven_split_matches_numpy(self):
        for count in (10, 17, 1, 100):
            for parts in (1, 3, 7, 12):
                bounds = split_bounds(count, parts)
                arrays = np.array_split(np.arange(count), parts)
                assert [(b - a) for a, b in bounds] == [len(x) for x in arrays]

    def test_more_parts_than_elements(self):
        bounds = split_bounds(2, 5)
        sizes = [b - a for a, b in bounds]
        assert sizes == [1, 1, 0, 0, 0]

    def test_zero_parts_rejected(self):
        with pytest.raises(PayloadError):
            split_bounds(4, 0)

    @given(count=st.integers(0, 1000), parts=st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_property_bounds_partition_range(self, count, parts):
        bounds = split_bounds(count, parts)
        assert len(bounds) == parts
        assert bounds[0][0] == 0
        assert bounds[-1][1] == count
        for (a1, b1), (a2, b2) in zip(bounds, bounds[1:]):
            assert b1 == a2
            assert a1 <= b1


class TestDataPayload:
    def test_basic_properties(self):
        p = DataPayload(np.arange(10, dtype=np.float64))
        assert p.count == 10
        assert p.itemsize == 8
        assert p.nbytes == 80

    def test_2d_rejected(self):
        with pytest.raises(PayloadError):
            DataPayload(np.zeros((2, 3)))

    def test_slice_is_readonly_view(self):
        arr = np.arange(10.0)
        p = DataPayload(arr)
        s = p.slice(2, 5)
        assert s.array.tolist() == [2.0, 3.0, 4.0]
        assert np.shares_memory(s.array, arr)  # zero copy
        with pytest.raises(ValueError):
            s.array[:] = -1  # views are immutable
        assert arr[2] == 2.0

    def test_slice_of_slice_tracks_root_offset(self):
        p = DataPayload(np.arange(10.0))
        inner = p.slice(2, 8).slice(1, 4)
        assert inner.array.tolist() == [3.0, 4.0, 5.0]
        assert inner._root is p.array
        assert inner._start == 3

    def test_copy_is_writable_and_independent(self):
        p = DataPayload(np.arange(4.0))
        c = p.slice(1, 3).copy()
        c.array[:] = -1
        assert p.array.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_concat_of_siblings_is_zero_copy(self):
        p = DataPayload(np.arange(13.0))
        back = concat(p.split(4))
        assert back.array.tolist() == p.array.tolist()
        assert np.shares_memory(back.array, p.array)

    def test_concat_of_strangers_materializes(self):
        a = DataPayload(np.arange(3.0))
        b = DataPayload(np.arange(3.0, 6.0))
        back = concat([a, b])
        assert back.array.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert not np.shares_memory(back.array, a.array)

    def test_concat_of_reordered_siblings_materializes(self):
        p = DataPayload(np.arange(10.0))
        parts = p.split(2)
        back = concat([parts[1], parts[0]])
        assert back.array.tolist() == [5.0, 6.0, 7.0, 8.0, 9.0, 0.0, 1.0, 2.0, 3.0, 4.0]
        assert not np.shares_memory(back.array, p.array)

    def test_reduce_sum(self):
        a = DataPayload(np.array([1.0, 2.0]))
        b = DataPayload(np.array([10.0, 20.0]))
        assert a.reduce(b, SUM).array.tolist() == [11.0, 22.0]

    def test_reduce_length_mismatch_rejected(self):
        a = DataPayload(np.zeros(2))
        b = DataPayload(np.zeros(3))
        with pytest.raises(PayloadError):
            a.reduce(b, SUM)

    def test_reduce_mixed_kind_rejected(self):
        a = DataPayload(np.zeros(2))
        b = SymbolicPayload(2, 8)
        with pytest.raises(PayloadError):
            a.reduce(b, SUM)
        with pytest.raises(PayloadError):
            b.reduce(a, SUM)

    def test_split_concat_roundtrip(self):
        p = DataPayload(np.arange(13.0))
        for k in (1, 2, 5, 13):
            parts = p.split(k)
            assert concat(parts).array.tolist() == p.array.tolist()


class TestSymbolicPayload:
    def test_basic_properties(self):
        p = SymbolicPayload(100, 4)
        assert p.count == 100
        assert p.nbytes == 400

    def test_negative_count_rejected(self):
        with pytest.raises(PayloadError):
            SymbolicPayload(-1)

    def test_slice_bounds_checked(self):
        p = SymbolicPayload(10)
        with pytest.raises(PayloadError):
            p.slice(5, 11)
        with pytest.raises(PayloadError):
            p.slice(-1, 5)

    def test_reduce_preserves_shape(self):
        a = SymbolicPayload(7, 4)
        b = SymbolicPayload(7, 4)
        r = a.reduce(b, SUM)
        assert (r.count, r.itemsize) == (7, 4)

    def test_split_concat_roundtrip(self):
        p = SymbolicPayload(13, 4)
        for k in (1, 3, 20):
            back = concat(p.split(k))
            assert (back.count, back.itemsize) == (13, 4)

    def test_concat_mixed_kind_rejected(self):
        with pytest.raises(PayloadError):
            concat([SymbolicPayload(2), DataPayload(np.zeros(2))])


class TestBundle:
    def test_uniform_itemsize(self):
        b = Bundle([SymbolicPayload(3, 4), SymbolicPayload(5, 4)])
        assert b.itemsize == 4
        assert b.nbytes == 32

    def test_heterogeneous_itemsize_rejected(self):
        b = Bundle([SymbolicPayload(3, 4), SymbolicPayload(5, 8)])
        with pytest.raises(PayloadError, match="heterogeneous"):
            b.itemsize
        assert b.nbytes == 52  # exact byte accounting still works


class TestCounters:
    def test_views_and_copies_are_counted(self):
        reset_payload_counters()
        p = DataPayload(np.arange(16, dtype=np.float64))
        p.slice(0, 8)  # view: 64 bytes
        p.slice(0, 4).copy()  # view: 32 bytes, then copy: 32 bytes
        counters = payload_counters()
        assert counters["bytes_viewed"] == 96
        assert counters["bytes_copied"] == 32
        reset_payload_counters()
        assert payload_counters()["bytes_copied"] == 0

    def test_reduction_workspace_counted_separately(self):
        reset_payload_counters()
        a = DataPayload(np.ones(8))
        b = DataPayload(np.ones(8))
        reduce_payloads([a, b], SUM)
        counters = payload_counters()
        assert counters["bytes_reduced"] == 64
        assert counters["bytes_copied"] == 0


class TestReducePayloads:
    def test_matches_numpy_for_all_ops(self):
        rng = np.random.default_rng(0)
        arrays = [rng.random(16) for _ in range(5)]
        for op, ref in [
            (SUM, np.sum(arrays, axis=0)),
            (MAX, np.max(arrays, axis=0)),
            (MIN, np.min(arrays, axis=0)),
            (PROD, np.prod(arrays, axis=0)),
        ]:
            got = reduce_payloads([DataPayload(a) for a in arrays], op)
            np.testing.assert_allclose(got.array, ref)

    def test_single_payload_is_copy(self):
        a = DataPayload(np.ones(3))
        r = reduce_payloads([a], SUM)
        r.array[:] = 0
        assert a.array.tolist() == [1.0, 1.0, 1.0]

    def test_does_not_mutate_inputs(self):
        a = DataPayload(np.ones(3))
        b = DataPayload(np.full(3, 2.0))
        reduce_payloads([a, b], SUM)
        assert a.array.tolist() == [1.0, 1.0, 1.0]
        assert b.array.tolist() == [2.0, 2.0, 2.0]

    def test_empty_rejected(self):
        with pytest.raises(PayloadError):
            reduce_payloads([], SUM)

    def test_symbolic_reduce(self):
        parts = [SymbolicPayload(5, 4) for _ in range(3)]
        r = reduce_payloads(parts, SUM)
        assert (r.count, r.itemsize) == (5, 4)


class TestMakePayload:
    def test_symbolic(self):
        p = make_payload(10, itemsize=4, symbolic=True)
        assert isinstance(p, SymbolicPayload)
        assert p.nbytes == 40

    def test_data_default_zeros(self):
        p = make_payload(5)
        assert isinstance(p, DataPayload)
        assert p.array.tolist() == [0.0] * 5

    def test_data_with_values(self):
        p = make_payload(3, data=[1, 2, 3])
        assert p.array.tolist() == [1.0, 2.0, 3.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PayloadError):
            make_payload(3, data=[1, 2])

    def test_symbolic_with_data_rejected(self):
        with pytest.raises(PayloadError):
            make_payload(3, symbolic=True, data=[1, 2, 3])


class TestOps:
    @given(
        a=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_reduce_stack_associative_sum(self, a):
        arr = np.asarray(a)
        stacked = SUM.reduce_stack([arr, arr, arr])
        np.testing.assert_allclose(stacked, arr * 3, rtol=1e-12)

    def test_reduce_stack_empty_rejected(self):
        with pytest.raises(ValueError):
            SUM.reduce_stack([])

    def test_identity_elements(self):
        assert SUM.identity == 0.0
        assert PROD.identity == 1.0
        assert MAX.identity == -np.inf
        assert MIN.identity == np.inf
