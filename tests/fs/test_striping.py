"""Tests for the round-robin striping layout."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fs import StripingLayout
from repro.util import ExtentList, StripingError


class TestScalars:
    def test_ost_of(self):
        lay = StripingLayout(stripe_unit=10, stripe_count=3)
        assert lay.ost_of(0) == 0
        assert lay.ost_of(9) == 0
        assert lay.ost_of(10) == 1
        assert lay.ost_of(29) == 2
        assert lay.ost_of(30) == 0  # wraps around

    def test_negative_offset_rejected(self):
        with pytest.raises(StripingError):
            StripingLayout(10, 3).ost_of(-1)

    def test_alignment(self):
        lay = StripingLayout(10, 3)
        assert lay.align_down(25) == 20
        assert lay.align_up(25) == 30
        assert lay.align_down(30) == 30
        assert lay.align_up(30) == 30


class TestSplitting:
    def test_split_by_ost_partitions_input(self):
        lay = StripingLayout(10, 3)
        el = ExtentList.from_pairs([(0, 25)])
        per_ost = lay.split_by_ost(el)
        assert per_ost[0].to_pairs() == [(0, 10)]
        assert per_ost[1].to_pairs() == [(10, 10)]
        assert per_ost[2].to_pairs() == [(20, 5)]

    def test_wraparound_lands_on_same_ost(self):
        lay = StripingLayout(10, 2)
        el = ExtentList.from_pairs([(0, 5), (20, 5)])  # stripes 0 and 2
        per_ost = lay.split_by_ost(el)
        assert per_ost[0].to_pairs() == [(0, 5), (20, 5)]
        assert per_ost[1].is_empty

    def test_piece_stats(self):
        lay = StripingLayout(10, 3)
        el = ExtentList.from_pairs([(5, 20)])  # spans stripes 0,1,2 partially
        bytes_per, reqs_per = lay.piece_stats(el)
        assert bytes_per.tolist() == [5, 10, 5]
        assert reqs_per.tolist() == [1, 1, 1]

    def test_empty_input(self):
        lay = StripingLayout(10, 3)
        bytes_per, reqs_per = lay.piece_stats(ExtentList.empty())
        assert bytes_per.sum() == 0
        assert reqs_per.sum() == 0

    def test_osts_touched(self):
        lay = StripingLayout(10, 4)
        el = ExtentList.from_pairs([(0, 10), (30, 10)])
        assert lay.osts_touched(el).tolist() == [0, 3]


class TestObjectStats:
    def test_contiguous_file_range_coalesces_in_object_space(self):
        # Stripes 0 and 2 both live on OST 0 (count=2) and are adjacent
        # in OST 0's object -> one server request.
        lay = StripingLayout(10, 2)
        el = ExtentList.from_pairs([(0, 40)])  # stripes 0..3
        bytes_per, runs_per = lay.object_stats(el)
        assert bytes_per.tolist() == [20, 20]
        assert runs_per.tolist() == [1, 1]

    def test_gap_in_object_space_splits_runs(self):
        lay = StripingLayout(10, 2)
        # stripes 0 and 4 on OST 0: object offsets 0..10 and 20..30 -> gap.
        el = ExtentList.from_pairs([(0, 10), (40, 10)])
        bytes_per, runs_per = lay.object_stats(el)
        assert bytes_per.tolist() == [20, 0]
        assert runs_per.tolist() == [2, 0]

    def test_object_bytes_match_piece_bytes(self):
        lay = StripingLayout(7, 5)
        el = ExtentList.from_pairs([(3, 50), (100, 23)])
        b1, _ = lay.piece_stats(el)
        b2, _ = lay.object_stats(el)
        assert np.array_equal(b1, b2)


@given(
    st.lists(
        st.tuples(st.integers(0, 5_000), st.integers(0, 300)),
        min_size=0,
        max_size=20,
    ),
    st.integers(1, 64),
    st.integers(1, 7),
)
def test_property_split_conserves_bytes(pairs, unit, count):
    lay = StripingLayout(unit, count)
    el = ExtentList.from_pairs(pairs)
    per_ost = lay.split_by_ost(el)
    assert sum(x.total for x in per_ost) == el.total
    assert ExtentList.union_all(per_ost) == el
    # every piece maps to its claimed OST
    for ost, pieces in enumerate(per_ost):
        for ext in pieces:
            assert lay.ost_of(ext.offset) == ost
            assert lay.ost_of(ext.end - 1) == ost


@given(
    st.lists(
        st.tuples(st.integers(0, 5_000), st.integers(0, 300)),
        min_size=0,
        max_size=20,
    ),
    st.integers(1, 64),
    st.integers(1, 7),
)
def test_property_object_runs_never_exceed_pieces(pairs, unit, count):
    lay = StripingLayout(unit, count)
    el = ExtentList.from_pairs(pairs)
    b_piece, n_piece = lay.piece_stats(el)
    b_obj, n_obj = lay.object_stats(el)
    assert np.array_equal(b_piece, b_obj)
    assert np.all(n_obj <= n_piece)  # coalescing only merges


def _reference_ost_load(lay: StripingLayout, el: ExtentList):
    """Per-stripe-unit loop: bytes, pieces and object runs per OST."""
    nbytes = [0] * lay.stripe_count
    pieces = [0] * lay.stripe_count
    objects: list[list[tuple[int, int]]] = [[] for _ in range(lay.stripe_count)]
    for ext in el:
        offset = ext.offset
        while offset < ext.end:
            unit_end = lay.align_down(offset) + lay.stripe_unit
            end = min(ext.end, unit_end)
            ost = lay.ost_of(offset)
            nbytes[ost] += end - offset
            pieces[ost] += 1
            stripe = offset // lay.stripe_unit
            obj = (stripe // lay.stripe_count) * lay.stripe_unit + offset % lay.stripe_unit
            objects[ost].append((obj, end - offset))
            offset = end
    runs = [len(ExtentList.from_pairs(pairs)) for pairs in objects]
    return nbytes, pieces, runs


@given(
    st.lists(
        st.tuples(st.integers(0, 5_000), st.integers(0, 300)),
        min_size=0,
        max_size=20,
    ),
    st.integers(1, 64),
    st.integers(1, 7),
)
def test_property_ost_load_matches_per_unit_loop(pairs, unit, count):
    lay = StripingLayout(unit, count)
    el = ExtentList.from_pairs(pairs)  # single extents take the arithmetic path
    load = lay.ost_load(el)
    got = (load.bytes.tolist(), load.pieces.tolist(), load.runs.tolist())
    assert got == _reference_ost_load(lay, el)


@given(
    st.lists(
        st.lists(
            st.tuples(st.integers(0, 5_000), st.integers(0, 300)),
            min_size=0,
            max_size=8,
        ),
        min_size=0,
        max_size=6,
    ),
    st.integers(1, 64),
    st.integers(1, 7),
)
def test_property_window_loads_match_per_window_ost_load(batch, unit, count):
    lay = StripingLayout(unit, count)
    windows = [ExtentList.from_pairs(pairs) for pairs in batch]
    rows = lay.window_loads(windows)
    got = list(zip(*(col.tolist() for col in rows)))
    want = []
    for w, el in enumerate(windows):
        load = lay.ost_load(el)
        for ost in np.flatnonzero(load.bytes).tolist():
            want.append(
                (w, ost, int(load.bytes[ost]), int(load.pieces[ost]), int(load.runs[ost]))
            )
    assert got == want
    total = rows.total(count)
    for column, name in zip(total, ("bytes", "pieces", "runs")):
        assert column.tolist() == np.sum(
            [getattr(lay.ost_load(el), name) for el in windows] or [np.zeros(count, np.int64)],
            axis=0,
        ).tolist()
