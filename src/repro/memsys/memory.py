"""Physical memory model: address space, huge-page allocation, regions.

The RPCServer of the paper "allocates and registers huge pages (typically
2 MB for each page) of memory ... using mmap" for its message pool.  Here a
:class:`PhysicalMemory` hands out address ranges with a bump allocator;
RDMA registration (:mod:`repro.rdma.mr`) layers protection keys on top.
Addresses are plain integers so the cache models can derive line indices.
:class:`RangeIndex` is the one address -> range lookup every layer uses.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any

__all__ = [
    "HUGE_PAGE_SIZE",
    "MemoryRange",
    "OutOfMemoryError",
    "PhysicalMemory",
    "RangeIndex",
]

HUGE_PAGE_SIZE = 2 * 1024 * 1024  # 2 MB, the paper's huge-page size


class OutOfMemoryError(MemoryError):
    """Raised when an allocation does not fit the remaining address space."""


@dataclass(frozen=True)
class MemoryRange:
    """A contiguous allocated address range ``[base, base + size)``."""

    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, size: int = 1) -> bool:
        """True when ``[addr, addr+size)`` lies inside this range."""
        return self.base <= addr and addr + size <= self.end

    def offset_of(self, addr: int) -> int:
        """Byte offset of ``addr`` from the range base."""
        if not self.contains(addr):
            raise ValueError(f"address {addr:#x} outside range")
        return addr - self.base


class RangeIndex:
    """Items filed under address ranges, found by the addresses they cover.

    ``covering(addr, size)`` returns what a scan of the ``(range, item)``
    pairs in the order they were added would: the items whose range
    contains ``[addr, addr + size)``, oldest first — overlapping, nested
    and duplicate ranges included.  It costs a bisection plus the entries
    that can still reach the query, not the number of ranges: entries
    are kept sorted by base, and ``_max_ends[i]`` is the largest end among
    entries ``0..i``, so a walk back from the last base at or below
    ``addr`` stops as soon as nothing earlier extends to ``addr + size``.
    """

    def __init__(self):
        self._bases: list[int] = []
        self._max_ends: list[int] = []
        #: ``(sequence number, end, item)``, parallel to ``_bases``.
        self._entries: list[tuple[int, int, Any]] = []
        self._added = 0

    def add(self, memory_range: MemoryRange, item: Any) -> None:
        """File ``item`` under ``memory_range``."""
        base, end = memory_range.base, memory_range.end
        max_ends = self._max_ends
        pos = bisect_right(self._bases, base)
        self._bases.insert(pos, base)
        self._entries.insert(pos, (self._added, end, item))
        self._added += 1
        max_ends.insert(pos, max(max_ends[pos - 1], end) if pos else end)
        for later in range(pos + 1, len(max_ends)):
            if max_ends[later] >= end:
                break
            max_ends[later] = end

    def remove(self, memory_range: MemoryRange, item: Any) -> None:
        """Drop the oldest entry filing ``item`` under ``memory_range``;
        :class:`KeyError` when there is none."""
        bases, entries, max_ends = self._bases, self._entries, self._max_ends
        base = memory_range.base
        pos = bisect_left(bases, base)
        while pos < len(bases) and bases[pos] == base and entries[pos][2] != item:
            pos += 1
        if pos == len(bases) or bases[pos] != base:
            raise KeyError(item)
        del bases[pos], entries[pos], max_ends[pos]
        for later in range(pos, len(entries)):
            end = entries[later][1]
            max_ends[later] = max(max_ends[later - 1], end) if later else end

    def covering(self, addr: int, size: int = 1) -> list:
        """Items whose range contains ``[addr, addr + size)``, in the
        order they were added."""
        end = addr + size
        max_ends = self._max_ends
        entries = self._entries
        pos = bisect_right(self._bases, addr)
        found = []
        while pos and max_ends[pos - 1] >= end:
            pos -= 1
            entry = entries[pos]
            if entry[1] >= end:
                found.append(entry)
        if len(found) == 1:
            return [found[0][2]]
        found.sort()  # by sequence number, which is unique
        return [entry[2] for entry in found]


class PhysicalMemory:
    """A node's DRAM, carved out by a bump allocator.

    The first page is left unallocated so that address 0 never appears in a
    valid range (a null-address canary for the verb layer).
    """

    def __init__(self, capacity_bytes: int = 128 * 1024 * 1024 * 1024):
        if capacity_bytes <= HUGE_PAGE_SIZE:
            raise ValueError("memory capacity too small")
        self.capacity_bytes = capacity_bytes
        self._next = HUGE_PAGE_SIZE
        self._ranges = RangeIndex()

    @property
    def allocated_bytes(self) -> int:
        return self._next - HUGE_PAGE_SIZE

    def allocate(self, size: int, alignment: int = 64) -> MemoryRange:
        """Allocate ``size`` bytes aligned to ``alignment``."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if alignment <= 0 or alignment & (alignment - 1):
            raise ValueError(f"alignment must be a power of two, got {alignment}")
        base = (self._next + alignment - 1) & ~(alignment - 1)
        if base + size > self.capacity_bytes:
            raise OutOfMemoryError(
                f"requested {size} bytes, {self.capacity_bytes - self._next} free"
            )
        self._next = base + size
        memory_range = MemoryRange(base, size)
        self._ranges.add(memory_range, memory_range)
        return memory_range

    def allocate_huge_pages(self, size: int) -> MemoryRange:
        """Allocate ``size`` rounded up to whole 2 MB huge pages."""
        pages = (size + HUGE_PAGE_SIZE - 1) // HUGE_PAGE_SIZE
        return self.allocate(pages * HUGE_PAGE_SIZE, alignment=HUGE_PAGE_SIZE)

    def owner_range(self, addr: int) -> MemoryRange:
        """Find the allocated range containing ``addr``."""
        owners = self._ranges.covering(addr)
        if not owners:
            raise ValueError(f"address {addr:#x} is not allocated")
        return owners[0]
