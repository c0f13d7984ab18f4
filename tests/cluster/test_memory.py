"""Tests for per-node memory accounting."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import MemoryManager
from repro.util import MemoryPressureError, mib


class TestBasics:
    def test_initial_state(self):
        mm = MemoryManager(0, mib(100))
        assert mm.capacity == mib(100)
        assert mm.in_use == 0
        assert mm.available == mib(100)
        assert mm.high_watermark == 0

    def test_reserved_reduces_available(self):
        mm = MemoryManager(0, mib(100), reserved=mib(30))
        assert mm.available == mib(70)

    def test_reserved_beyond_capacity_rejected(self):
        with pytest.raises(MemoryPressureError):
            MemoryManager(0, mib(10), reserved=mib(20))


class TestAllocation:
    def test_allocate_release_cycle(self):
        mm = MemoryManager(0, mib(100))
        mm.allocate("buf", mib(40))
        assert mm.in_use == mib(40)
        assert mm.available == mib(60)
        mm.release("buf")
        assert mm.in_use == 0

    def test_duplicate_tag_rejected(self):
        mm = MemoryManager(0, mib(100))
        mm.allocate("buf", mib(1))
        with pytest.raises(MemoryPressureError):
            mm.allocate("buf", mib(1))

    def test_release_unknown_tag_rejected(self):
        mm = MemoryManager(0, mib(100))
        with pytest.raises(MemoryPressureError):
            mm.release("ghost")

    def test_over_allocation_rejected_by_default(self):
        mm = MemoryManager(0, mib(10))
        with pytest.raises(MemoryPressureError):
            mm.allocate("big", mib(20))

    def test_oversubscribe_allowed_when_requested(self):
        mm = MemoryManager(0, mib(10))
        mm.allocate("big", mib(25), allow_oversubscribe=True)
        assert mm.oversubscribed_bytes == mib(15)
        assert mm.available == -mib(15)

    def test_watermark_tracks_peak(self):
        mm = MemoryManager(0, mib(100))
        mm.allocate("a", mib(30))
        mm.allocate("b", mib(20))
        mm.release("a")
        assert mm.high_watermark == mib(50)
        mm.reset_watermark()
        assert mm.high_watermark == mib(20)

    def test_release_all(self):
        mm = MemoryManager(0, mib(100))
        mm.allocate("a", mib(1))
        mm.allocate("b", mib(2))
        mm.release_all()
        assert mm.in_use == 0

    def test_set_reserved_variance_hook(self):
        mm = MemoryManager(0, mib(100))
        mm.set_reserved(mib(90))
        assert mm.available == mib(10)
        with pytest.raises(MemoryPressureError):
            mm.set_reserved(mib(200))


_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("allocate"),
            st.integers(0, 5),
            st.integers(0, mib(80)),
            st.booleans(),
        ),
        st.tuples(st.just("release"), st.integers(0, 5)),
        st.tuples(st.just("release_all")),
        st.tuples(st.just("reset_watermark")),
    ),
    max_size=40,
)


@given(ops=_ops)
def test_in_use_is_the_sum_of_live_allocations(ops):
    """Over any allocate/release/release_all sequence, oversubscribed
    ones included, ``in_use`` is the live allocations' byte sum and the
    watermark is the largest ``in_use`` since the last reset."""
    mm = MemoryManager(0, mib(100), reserved=mib(10))
    live: dict[str, int] = {}
    peak = 0
    for op in ops:
        if op[0] == "allocate":
            _, tag, nbytes, over = op
            try:
                mm.allocate(f"t{tag}", nbytes, allow_oversubscribe=over)
            except MemoryPressureError:
                assert f"t{tag}" in live or (not over and nbytes > mm.available)
            else:
                live[f"t{tag}"] = nbytes
        elif op[0] == "release":
            tag = f"t{op[1]}"
            if tag in live:
                mm.release(tag)
                del live[tag]
            else:
                with pytest.raises(MemoryPressureError):
                    mm.release(tag)
        elif op[0] == "release_all":
            mm.release_all()
            live.clear()
        else:
            mm.reset_watermark()
            peak = sum(live.values())
        peak = max(peak, sum(live.values()))
        assert mm.in_use == sum(live.values())
        assert mm.available == mib(90) - sum(live.values())
        assert mm.high_watermark == peak
