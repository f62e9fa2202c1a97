"""Tests for the physical memory model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys import (
    HUGE_PAGE_SIZE,
    MemoryRange,
    OutOfMemoryError,
    PhysicalMemory,
    RangeIndex,
)


class TestPhysicalMemory:
    def test_never_returns_page_zero(self):
        mem = PhysicalMemory()
        r = mem.allocate(64)
        assert r.base >= HUGE_PAGE_SIZE

    def test_alignment(self):
        mem = PhysicalMemory()
        r = mem.allocate(100, alignment=4096)
        assert r.base % 4096 == 0

    def test_bad_alignment_rejected(self):
        mem = PhysicalMemory()
        with pytest.raises(ValueError):
            mem.allocate(64, alignment=3)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory().allocate(0)

    def test_ranges_do_not_overlap(self):
        mem = PhysicalMemory()
        a = mem.allocate(1000)
        b = mem.allocate(1000)
        assert a.end <= b.base

    def test_out_of_memory(self):
        mem = PhysicalMemory(capacity_bytes=4 * HUGE_PAGE_SIZE)
        with pytest.raises(OutOfMemoryError):
            mem.allocate(100 * HUGE_PAGE_SIZE)

    def test_huge_page_allocation_rounds_up(self):
        mem = PhysicalMemory()
        r = mem.allocate_huge_pages(HUGE_PAGE_SIZE + 1)
        assert r.size == 2 * HUGE_PAGE_SIZE
        assert r.base % HUGE_PAGE_SIZE == 0

    def test_owner_range(self):
        mem = PhysicalMemory()
        r = mem.allocate(128)
        later = mem.allocate(128)
        assert mem.owner_range(r.base + 64) == r
        assert mem.owner_range(later.end - 1) == later
        with pytest.raises(ValueError):
            mem.owner_range(0)
        with pytest.raises(ValueError):
            mem.owner_range(later.end)

    def test_range_contains_and_offset(self):
        mem = PhysicalMemory()
        r = mem.allocate(128)
        assert r.contains(r.base, 128)
        assert not r.contains(r.base, 129)
        assert r.offset_of(r.base + 10) == 10
        with pytest.raises(ValueError):
            r.offset_of(r.end)

    def test_allocated_bytes_tracks(self):
        mem = PhysicalMemory()
        mem.allocate(64)
        assert mem.allocated_bytes >= 64


def scan(pairs, addr, size):
    """The insertion-order scan ``RangeIndex.covering`` must agree with."""
    return [item for memory_range, item in pairs if memory_range.contains(addr, size)]


# Small coordinates on purpose: 0..24 with sizes up to 8 makes disjoint,
# adjacent, nested, overlapping and exactly duplicated ranges all common.
small_ranges = st.lists(
    st.builds(MemoryRange, st.integers(0, 24), st.integers(1, 8)), max_size=12
)
queries = st.lists(st.tuples(st.integers(0, 34), st.integers(0, 10)), min_size=1)
# 300 examples in tier-1; a larger profile (CI's --hypothesis-profile=fuzz)
# raises it, where a bare ``max_examples=300`` would cap it.
range_examples = settings(max_examples=max(300, settings().max_examples))


class TestRangeIndex:
    @given(ranges=small_ranges, queries=queries)
    @range_examples
    def test_covering_equals_insertion_order_scan(self, ranges, queries):
        index = RangeIndex()
        pairs = list(zip(ranges, range(len(ranges))))
        for memory_range, item in pairs:
            index.add(memory_range, item)
        for addr, size in queries:
            assert index.covering(addr, size) == scan(pairs, addr, size)

    @given(ranges=small_ranges, removals=st.lists(st.integers(0, 11)), queries=queries)
    @range_examples
    def test_remove_keeps_agreeing_with_the_scan(self, ranges, removals, queries):
        index = RangeIndex()
        pairs = list(zip(ranges, range(len(ranges))))
        for memory_range, item in pairs:
            index.add(memory_range, item)
        for victim in removals:
            if victim < len(pairs):
                memory_range, item = pairs.pop(victim)
                index.remove(memory_range, item)
        for addr, size in queries:
            assert index.covering(addr, size) == scan(pairs, addr, size)

    def test_query_straddling_two_adjacent_ranges_matches_neither(self):
        index = RangeIndex()
        index.add(MemoryRange(0, 8), "low")
        index.add(MemoryRange(8, 8), "high")
        assert index.covering(7, 1) == ["low"]
        assert index.covering(8, 1) == ["high"]
        assert index.covering(6, 4) == []
        index.add(MemoryRange(0, 16), "both")
        assert index.covering(6, 4) == ["both"]

    def test_duplicates_and_nesting_come_back_oldest_first(self):
        index = RangeIndex()
        index.add(MemoryRange(4, 4), "inner")
        index.add(MemoryRange(0, 16), "outer")
        index.add(MemoryRange(4, 4), "inner again")
        assert index.covering(5, 2) == ["inner", "outer", "inner again"]
        assert index.covering(1, 2) == ["outer"]

    def test_remove_unknown_item_raises(self):
        index = RangeIndex()
        index.add(MemoryRange(0, 8), "a")
        with pytest.raises(KeyError):
            index.remove(MemoryRange(0, 8), "b")
        with pytest.raises(KeyError):
            index.remove(MemoryRange(8, 8), "a")
        index.remove(MemoryRange(0, 8), "a")
        assert index.covering(0) == []
