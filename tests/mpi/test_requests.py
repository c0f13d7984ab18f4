"""Tests for access requests (payload slicing/scattering, builders)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpi import (
    AccessRequest,
    BYTE,
    FileView,
    pattern_bytes,
    request_from_view,
    vector,
)
from repro.mpi.requests import total_bytes
from repro.util import CommunicatorError, ExtentList


class TestAccessRequest:
    def test_payload_size_checked(self):
        el = ExtentList.from_pairs([(0, 10)])
        with pytest.raises(CommunicatorError):
            AccessRequest(0, el, np.zeros(5, dtype=np.uint8))

    def test_negative_rank_rejected(self):
        with pytest.raises(CommunicatorError):
            AccessRequest(-1, ExtentList.empty())

    def test_nbytes(self):
        el = ExtentList.from_pairs([(0, 10), (20, 5)])
        assert AccessRequest(3, el).nbytes == 15

    def test_slice_payload(self):
        el = ExtentList.from_pairs([(0, 4), (10, 4)])
        data = np.arange(8, dtype=np.uint8)
        req = AccessRequest(0, el, data)
        piece = ExtentList.from_pairs([(2, 2), (10, 2)])
        assert req.slice_payload(piece).tolist() == [2, 3, 4, 5]

    def test_slice_without_data_rejected(self):
        req = AccessRequest(0, ExtentList.from_pairs([(0, 4)]))
        with pytest.raises(CommunicatorError):
            req.slice_payload(ExtentList.from_pairs([(0, 2)]))

    def test_scatter_payload(self):
        el = ExtentList.from_pairs([(0, 4), (10, 4)])
        req = AccessRequest(0, el)
        req.scatter_payload(ExtentList.from_pairs([(10, 4)]), b"wxyz")
        req.scatter_payload(ExtentList.from_pairs([(0, 4)]), b"abcd")
        assert bytes(req.data) == b"abcdwxyz"

    def test_scatter_size_mismatch(self):
        req = AccessRequest(0, ExtentList.from_pairs([(0, 4)]))
        with pytest.raises(CommunicatorError):
            req.scatter_payload(ExtentList.from_pairs([(0, 4)]), b"xy")


class TestBuilders:
    def test_request_from_view(self):
        view = FileView(displacement=100, etype=BYTE, filetype=vector(2, 2, 4, BYTE))
        req = request_from_view(5, view, nbytes=4)
        assert req.rank == 5
        assert req.extents.to_pairs() == [(100, 2), (104, 2)]

    def test_total_bytes(self):
        reqs = [
            AccessRequest(0, ExtentList.from_pairs([(0, 10)])),
            AccessRequest(1, ExtentList.from_pairs([(10, 5)])),
        ]
        assert total_bytes(reqs) == 15


class TestPatternBytes:
    def test_deterministic_by_offset(self):
        a = pattern_bytes(ExtentList.from_pairs([(0, 100)]))
        b = pattern_bytes(ExtentList.from_pairs([(0, 50), (50, 50)]))
        assert np.array_equal(a, b)

    def test_sub_extent_matches_parent(self):
        whole = pattern_bytes(ExtentList.from_pairs([(0, 100)]))
        part = pattern_bytes(ExtentList.from_pairs([(40, 10)]))
        assert np.array_equal(whole[40:50], part)

    def test_salt_changes_pattern(self):
        el = ExtentList.from_pairs([(0, 64)])
        assert not np.array_equal(pattern_bytes(el, 0), pattern_bytes(el, 1))

    def test_empty(self):
        assert pattern_bytes(ExtentList.empty()).size == 0

    def test_memory_stays_near_output_size(self):
        """A 4 MiB payload must not cost uint64 temporaries per byte (the
        direct formula peaks near 30x the output)."""
        el = ExtentList.from_pairs([(3, 1 << 21), (1 << 40, 1 << 21)])
        tracemalloc.start()
        try:
            out = pattern_bytes(el, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.size == el.total
        assert peak <= 3 * el.total


def _pattern_bytes_uint64(extents, salt=0):
    """The payload formula evaluated directly, one uint64 per byte."""
    chunks = []
    for ext in extents:
        offs = np.arange(ext.offset, ext.end, dtype=np.uint64)
        chunks.append(
            ((offs * np.uint64(2654435761) + np.uint64(salt)) & np.uint64(0xFF))
            .astype(np.uint8)
        )
    if not chunks:
        return np.empty(0, dtype=np.uint8)
    return np.concatenate(chunks)


@given(
    st.lists(
        st.tuples(st.integers(0, 1 << 62), st.integers(1, 700)),
        max_size=8,
    ),
    st.integers(0, (1 << 32) - 1),
)
def test_property_pattern_matches_uint64_formula(pairs, salt):
    el = ExtentList.from_pairs(pairs) if pairs else ExtentList.empty()
    got = pattern_bytes(el, salt)
    assert got.dtype == np.uint8
    assert np.array_equal(got, _pattern_bytes_uint64(el, salt))


@given(
    st.lists(
        st.tuples(st.integers(0, 500), st.integers(1, 40)),
        min_size=1,
        max_size=10,
    )
)
def test_property_slice_scatter_roundtrip(pairs):
    el = ExtentList.from_pairs(pairs)
    data = pattern_bytes(el)
    req = AccessRequest(0, el, data.copy())
    # slice out the middle third by byte rank, scatter it into a copy
    third = el.total // 3
    piece = el.slice_bytes(third, 2 * third)
    if piece.is_empty:
        return
    sliced = req.slice_payload(piece)
    other = AccessRequest(0, el, np.zeros(el.total, dtype=np.uint8))
    other.scatter_payload(piece, sliced)
    assert np.array_equal(other.slice_payload(piece), sliced)
