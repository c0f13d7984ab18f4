"""Unit + property tests for the extent algebra (the system's bedrock)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import Extent, ExtentList, ReproError


# ------------------------------------------------------------------ Extent
class TestExtent:
    def test_end_and_emptiness(self):
        e = Extent(10, 5)
        assert e.end == 15
        assert not e.is_empty
        assert Extent(3, 0).is_empty

    def test_negative_length_rejected(self):
        with pytest.raises(ReproError):
            Extent(0, -1)

    def test_negative_offset_rejected(self):
        with pytest.raises(ReproError):
            Extent(-5, 1)

    def test_overlaps(self):
        assert Extent(0, 10).overlaps(Extent(9, 5))
        assert not Extent(0, 10).overlaps(Extent(10, 5))
        assert not Extent(10, 5).overlaps(Extent(0, 10))

    def test_contains(self):
        e = Extent(5, 5)
        assert e.contains(5)
        assert e.contains(9)
        assert not e.contains(10)
        assert not e.contains(4)

    def test_intersect(self):
        a = Extent(0, 10)
        b = Extent(5, 10)
        assert a.intersect(b) == Extent(5, 5)
        assert a.intersect(Extent(20, 5)).is_empty

    def test_shift(self):
        assert Extent(5, 3).shift(10) == Extent(15, 3)

    def test_split_at(self):
        left, right = Extent(0, 10).split_at(4)
        assert left == Extent(0, 4)
        assert right == Extent(4, 6)

    def test_split_at_boundary_rejected(self):
        with pytest.raises(ReproError):
            Extent(0, 10).split_at(0)
        with pytest.raises(ReproError):
            Extent(0, 10).split_at(10)


# -------------------------------------------------------------- ExtentList
class TestExtentListBasics:
    def test_empty(self):
        el = ExtentList.empty()
        assert el.is_empty
        assert el.total == 0
        assert len(el) == 0
        assert el.envelope().is_empty

    def test_single(self):
        el = ExtentList.single(10, 5)
        assert el.to_pairs() == [(10, 5)]
        assert el.total == 5

    def test_single_zero_length_is_empty(self):
        assert ExtentList.single(10, 0).is_empty

    def test_coalescing_of_touching_extents(self):
        el = ExtentList.from_pairs([(0, 10), (10, 5)])
        assert el.to_pairs() == [(0, 15)]

    def test_coalescing_of_overlapping_extents(self):
        el = ExtentList.from_pairs([(0, 10), (5, 10)])
        assert el.to_pairs() == [(0, 15)]

    def test_sorting(self):
        el = ExtentList.from_pairs([(20, 5), (0, 5)])
        assert el.to_pairs() == [(0, 5), (20, 5)]

    def test_zero_length_inputs_dropped(self):
        el = ExtentList.from_pairs([(0, 0), (5, 3), (9, 0)])
        assert el.to_pairs() == [(5, 3)]

    def test_negative_offset_rejected(self):
        with pytest.raises(ReproError):
            ExtentList.from_pairs([(-1, 5)])

    def test_negative_length_rejected(self):
        with pytest.raises(ReproError):
            ExtentList.from_pairs([(0, -5)])

    def test_equality_and_hash(self):
        a = ExtentList.from_pairs([(0, 5), (10, 5)])
        b = ExtentList.from_pairs([(10, 5), (0, 5)])
        assert a == b
        assert hash(a) == hash(b)

    def test_indexing_and_iteration(self):
        el = ExtentList.from_pairs([(0, 5), (10, 5)])
        assert el[0] == Extent(0, 5)
        assert el[1] == Extent(10, 5)
        assert list(el) == [Extent(0, 5), Extent(10, 5)]

    def test_envelope(self):
        el = ExtentList.from_pairs([(10, 5), (100, 7)])
        assert el.envelope() == Extent(10, 97)


class TestExtentListAlgebra:
    def test_intersect_basic(self):
        a = ExtentList.from_pairs([(0, 10), (20, 10)])
        b = ExtentList.from_pairs([(5, 20)])
        assert a.intersect(b).to_pairs() == [(5, 5), (20, 5)]

    def test_intersect_empty(self):
        a = ExtentList.from_pairs([(0, 10)])
        assert a.intersect(ExtentList.empty()).is_empty
        assert ExtentList.empty().intersect(a).is_empty

    def test_intersect_disjoint(self):
        a = ExtentList.from_pairs([(0, 10)])
        b = ExtentList.from_pairs([(10, 10)])
        assert a.intersect(b).is_empty

    def test_clip(self):
        a = ExtentList.from_pairs([(0, 10), (20, 10)])
        assert a.clip(5, 20).to_pairs() == [(5, 5), (20, 5)]
        assert a.clip(10, 10).is_empty
        assert a.clip(0, 0).is_empty

    def test_subtract(self):
        a = ExtentList.from_pairs([(0, 30)])
        b = ExtentList.from_pairs([(10, 10)])
        assert a.subtract(b).to_pairs() == [(0, 10), (20, 10)]

    def test_subtract_everything(self):
        a = ExtentList.from_pairs([(5, 10)])
        assert a.subtract(ExtentList.from_pairs([(0, 100)])).is_empty

    def test_complement(self):
        a = ExtentList.from_pairs([(10, 10), (30, 10)])
        assert a.complement(0, 50).to_pairs() == [(0, 10), (20, 10), (40, 10)]

    def test_complement_of_empty(self):
        assert ExtentList.empty().complement(5, 15).to_pairs() == [(5, 10)]

    def test_union(self):
        a = ExtentList.from_pairs([(0, 10)])
        b = ExtentList.from_pairs([(5, 10)])
        assert a.union(b).to_pairs() == [(0, 15)]

    def test_shift(self):
        a = ExtentList.from_pairs([(0, 5), (10, 5)])
        assert a.shift(100).to_pairs() == [(100, 5), (110, 5)]

    def test_shift_negative_below_zero_rejected(self):
        with pytest.raises(ReproError):
            ExtentList.from_pairs([(5, 5)]).shift(-10)

    def test_covers(self):
        a = ExtentList.from_pairs([(0, 100)])
        b = ExtentList.from_pairs([(10, 5), (50, 5)])
        assert a.covers(b)
        assert not b.covers(a)

    def test_overlap_bytes(self):
        a = ExtentList.from_pairs([(0, 10)])
        b = ExtentList.from_pairs([(5, 10)])
        assert a.overlap_bytes(b) == 5


class TestSliceAndRank:
    def test_slice_bytes_simple(self):
        el = ExtentList.from_pairs([(0, 10), (20, 10)])
        assert el.slice_bytes(0, 10).to_pairs() == [(0, 10)]
        assert el.slice_bytes(10, 20).to_pairs() == [(20, 10)]
        assert el.slice_bytes(5, 15).to_pairs() == [(5, 5), (20, 5)]

    def test_slice_bytes_empty_range(self):
        el = ExtentList.from_pairs([(0, 10)])
        assert el.slice_bytes(5, 5).is_empty
        assert el.slice_bytes(7, 3).is_empty

    def test_slice_bytes_beyond_end(self):
        el = ExtentList.from_pairs([(0, 10)])
        assert el.slice_bytes(8, 100).to_pairs() == [(8, 2)]
        assert el.slice_bytes(100, 200).is_empty

    def test_bytes_before(self):
        el = ExtentList.from_pairs([(0, 10), (20, 10)])
        assert el.bytes_before(0) == 0
        assert el.bytes_before(5) == 5
        assert el.bytes_before(15) == 10
        assert el.bytes_before(25) == 15
        assert el.bytes_before(100) == 20


class TestSplitToBins:
    def test_basic(self):
        el = ExtentList.from_pairs([(0, 25)])
        bins, ps, pe = el.split_to_bins(np.asarray([0, 8, 16, 32]))
        assert bins.tolist() == [0, 1, 2]
        assert ps.tolist() == [0, 8, 16]
        assert pe.tolist() == [8, 16, 25]

    def test_multi_extent(self):
        el = ExtentList.from_pairs([(2, 4), (9, 2), (14, 10)])
        bins, ps, pe = el.split_to_bins(np.asarray([0, 8, 16, 32]))
        got = list(zip(bins.tolist(), ps.tolist(), pe.tolist()))
        assert got == [(0, 2, 6), (1, 9, 11), (1, 14, 16), (2, 16, 24)]

    def test_out_of_bins_bytes_dropped(self):
        el = ExtentList.from_pairs([(0, 100)])
        bins, ps, pe = el.split_to_bins(np.asarray([10, 20]))
        assert ps.tolist() == [10]
        assert pe.tolist() == [20]

    def test_single_bin_required(self):
        el = ExtentList.from_pairs([(0, 10)])
        with pytest.raises(ReproError):
            el.split_to_bins(np.asarray([0]))


# --------------------------------------------------------------- properties
pairs_strategy = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 500)),
    min_size=0,
    max_size=40,
)


@given(pairs_strategy)
def test_normalization_invariant(pairs):
    el = ExtentList.from_pairs(pairs)
    starts, ends = el.starts, el.ends
    assert np.all(ends > starts)  # non-empty
    # sorted and strictly separated (coalesced)
    assert np.all(starts[1:] > ends[:-1])


@given(pairs_strategy, pairs_strategy)
def test_intersection_commutes(p1, p2):
    a, b = ExtentList.from_pairs(p1), ExtentList.from_pairs(p2)
    assert a.intersect(b) == b.intersect(a)


@given(pairs_strategy, pairs_strategy)
def test_intersection_subset_of_operands(p1, p2):
    a, b = ExtentList.from_pairs(p1), ExtentList.from_pairs(p2)
    i = a.intersect(b)
    assert a.covers(i)
    assert b.covers(i)


@given(pairs_strategy, pairs_strategy)
def test_subtract_plus_intersect_partitions(p1, p2):
    a, b = ExtentList.from_pairs(p1), ExtentList.from_pairs(p2)
    inter = a.intersect(b)
    diff = a.subtract(b)
    assert inter.total + diff.total == a.total
    assert inter.intersect(diff).is_empty
    assert inter.union(diff) == a


@given(pairs_strategy)
def test_complement_partitions_envelope(pairs):
    el = ExtentList.from_pairs(pairs)
    if el.is_empty:
        return
    env = el.envelope()
    comp = el.complement(env.offset, env.end)
    assert comp.intersect(el).is_empty
    assert comp.total + el.total == env.length


@given(pairs_strategy, st.integers(0, 600), st.integers(0, 600))
def test_slice_bytes_total(pairs, lo, span):
    el = ExtentList.from_pairs(pairs)
    hi = lo + span
    part = el.slice_bytes(lo, hi)
    expected = max(0, min(hi, el.total) - min(lo, el.total))
    assert part.total == expected
    assert el.covers(part)


@given(pairs_strategy)
def test_slices_tile_the_set(pairs):
    el = ExtentList.from_pairs(pairs)
    chunk = 37
    pieces = [
        el.slice_bytes(i, i + chunk) for i in range(0, el.total + chunk, chunk)
    ]
    union = ExtentList.union_all(pieces)
    assert union == el
    assert sum(p.total for p in pieces) == el.total


@given(pairs_strategy, st.lists(st.integers(0, 10_500), min_size=2, max_size=10))
def test_split_to_bins_conserves_bytes(pairs, raw_bounds):
    el = ExtentList.from_pairs(pairs)
    bounds = np.unique(np.asarray(sorted(raw_bounds), dtype=np.int64))
    if bounds.size < 2:
        return
    bins, ps, pe = el.split_to_bins(bounds)
    clipped = el.clip(int(bounds[0]), int(bounds[-1] - bounds[0]))
    assert int((pe - ps).sum()) == clipped.total
    assert np.all(pe > ps)
    # every piece inside its bin
    assert np.all(ps >= bounds[bins])
    assert np.all(pe <= bounds[bins + 1])


@given(pairs_strategy, st.integers(0, 10_000))
def test_bytes_before_matches_clip(pairs, offset):
    el = ExtentList.from_pairs(pairs)
    assert el.bytes_before(offset) == el.clip(0, offset).total
