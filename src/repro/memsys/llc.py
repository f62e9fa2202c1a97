"""Set-associative last-level cache with DDIO (Data Direct I/O).

With DDIO the NIC writes inbound payloads directly into the CPU's LLC
(step 4 of the paper's Figure 2).  Two behaviours matter for scalability:

- *Write Update*: a DMA write whose target line already resides anywhere in
  the LLC updates it in place (cheap; counted as ItoM/RFO).
- *Write Allocate*: a DMA write that misses must allocate a line, but DDIO
  restricts allocation to ~10% of the LLC (2 of the ways here) on typical
  Intel CPUs.  Each allocation is counted as PCIeItoM; sustained allocation
  pressure is the thrashing mechanism behind the paper's Figure 3(b).

The cache is modelled *set-associatively* — per-set LRU over
``ways``-entry sets, with DMA allocations restricted to ``ddio_ways`` ways
of each set — because associativity is load-bearing for the paper's
results: message pools are *strided* (one message block per client slot),
so a pool of B-byte blocks only ever touches sets ``(stride * k) mod
n_sets``.  Larger blocks concentrate the same number of hot lines onto
fewer sets, and the pool stops fitting even though its hot-line count is
unchanged — exactly why Figure 3(b) collapses once blocks exceed 2 KB
(400 clients x 20 blocks at 2 KB stride exhaust the reachable sets).

A CPU access to a DDIO-resident line *promotes* it to a regular way,
mirroring how lines touched by the core stop being write-allocate victims;
after that the NIC's next write to the line is a cheap in-place update.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple, Optional

from .pcie import PcieCounters

__all__ = ["LlcParams", "DmaWriteResult", "CpuAccessResult", "LastLevelCache"]

KIB = 1024
MIB = 1024 * KIB

_DDIO = 0  # line allocated by a DMA write (write-allocate ways)
_MAIN = 1  # line owned by the core


@dataclass
class LlcParams:
    """Geometry and latency parameters of the LLC model.

    The 12 MiB / 16-way geometry is calibrated (DESIGN.md section 4) so
    that 4 KB-strided message pools reach 192 sets x 16 ways = 3072 hot
    lines — placing RawWrite's static-pool overflow at ~150 clients
    (Figure 10) and the Figure 3(b) cliff at 2 KB blocks, as measured.
    """

    capacity_bytes: int = 12 * MIB
    line_size: int = 64
    ways: int = 16
    ddio_ways: int = 2
    cpu_hit_ns: int = 4
    cpu_miss_ns: int = 90

    def __post_init__(self):
        if self.capacity_bytes < self.line_size * self.ways:
            raise ValueError("LLC smaller than one set")
        if self.ways < 2:
            raise ValueError("need at least 2 ways")
        if not 0 < self.ddio_ways < self.ways:
            raise ValueError("ddio_ways must be in (0, ways)")
        if self.capacity_bytes % (self.line_size * self.ways):
            raise ValueError("capacity must be a whole number of sets")

    @property
    def total_lines(self) -> int:
        return self.capacity_bytes // self.line_size

    @property
    def n_sets(self) -> int:
        return self.total_lines // self.ways


class DmaWriteResult(NamedTuple):
    """Outcome of one DMA write through the LLC."""

    lines: int
    update_hits: int
    allocations: int  # Write Allocate events (PCIeItoM)
    full_lines: int
    partial_lines: int


class CpuAccessResult(NamedTuple):
    """Outcome of one CPU read/write through the LLC."""

    lines: int
    hits: int
    misses: int
    cost_ns: int


@dataclass
class LlcStats:
    """Aggregate hit/miss accounting for one LLC."""

    cpu_hits: int = 0
    cpu_misses: int = 0
    dma_update_hits: int = 0
    dma_allocations: int = 0

    @property
    def cpu_accesses(self) -> int:
        return self.cpu_hits + self.cpu_misses

    @property
    def l3_miss_rate(self) -> float:
        total = self.cpu_accesses
        return self.cpu_misses / total if total else 0.0

    @property
    def dma_writes(self) -> int:
        return self.dma_update_hits + self.dma_allocations

    @property
    def dma_allocate_rate(self) -> float:
        total = self.dma_writes
        return self.dma_allocations / total if total else 0.0


class LastLevelCache:
    """Per-set-LRU, DDIO-partitioned last-level cache."""

    def __init__(self, params: Optional[LlcParams] = None, counters: Optional[PcieCounters] = None):
        self.params = params or LlcParams()
        self.counters = counters or PcieCounters()
        # One slot per set: None until its first touch, then its entries,
        # LRU first.  An entry is ``tag << 1 | owner``, the tag being the
        # line's address bits above the set index; sim tags are small, so an
        # entry is a cached int and a resident line costs one list slot.
        self._sets: list[Optional[list[int]]] = [None] * self.params.n_sets
        # Fixed for the cache's life; the per-line paths read it here
        # instead of re-deriving it through two ``params`` properties.
        self._n_sets = len(self._sets)
        self.stats = LlcStats()
        # Running count of DDIO-owned lines, maintained at every tag
        # transition so observers can sample occupancy in O(1).
        self._ddio_resident = 0

    # -- geometry helpers -------------------------------------------------

    def _line_span(self, addr: int, size: int) -> range:
        """Line indices covered by [addr, addr + size)."""
        if size <= 0:
            raise ValueError(f"access size must be positive, got {size}")
        line = self.params.line_size
        first = addr // line
        last = (addr + size - 1) // line
        return range(first, last + 1)

    def resident(self, addr: int, size: int = 1) -> bool:
        """True when every line of the range is somewhere in the LLC."""
        for ln in self._line_span(addr, size):
            entry = ln // self._n_sets << 1
            if not {entry, entry | _MAIN}.intersection(self._sets[ln % self._n_sets] or ()):
                return False
        return True

    def built_sets(self) -> dict[int, list[tuple[int, int]]]:
        """Every set touched so far, by index: its ``(line, owner)`` pairs
        in LRU order, LRU first.  A touched set is never empty."""
        n_sets = self._n_sets
        return {
            index: [((e >> 1) * n_sets + index, e & 1) for e in self._sets[index]]
            for index in compress(range(n_sets), self._sets)
        }

    @property
    def ddio_resident_lines(self) -> int:
        """Lines currently owned by the DDIO (write-allocate) ways."""
        return self._ddio_resident

    # -- DMA (NIC-initiated) path -----------------------------------------

    def dma_write(self, addr: int, size: int) -> DmaWriteResult:
        """Model an inbound DMA write from the NIC, updating PCM counters."""
        params = self.params
        counters = self.counters
        line_size = params.line_size
        sets = self._sets
        n_sets = self._n_sets
        update_hits = 0
        allocations = 0
        full_lines = 0
        partial_lines = 0
        end = addr + size
        span = self._line_span(addr, size)
        for ln in span:
            line_start = ln * line_size
            if addr <= line_start and end >= line_start + line_size:
                full_lines += 1
                counters.itom += 1
            else:
                partial_lines += 1
                counters.rfo += 1
            entry = ln // n_sets << 1
            cache_set = sets[ln % n_sets]
            if cache_set is None:
                cache_set = sets[ln % n_sets] = []
            hit = entry | _MAIN if entry | _MAIN in cache_set else entry
            if hit in cache_set:
                # Write update: the line keeps its owner, refresh recency.
                cache_set.remove(hit)
                cache_set.append(hit)
                update_hits += 1
                continue
            # Write Allocate: restricted to the DDIO ways of this set.
            counters.pcie_itom += 1
            allocations += 1
            ddio_lines = 0
            ddio_lru = None
            for e in cache_set:
                if not e & 1:
                    if ddio_lru is None:
                        ddio_lru = e
                    ddio_lines += 1
            if ddio_lines >= params.ddio_ways:
                cache_set.remove(ddio_lru)  # LRU among DDIO lines
                self._ddio_resident -= 1
            elif len(cache_set) >= params.ways:
                # Evict the LRU core-owned line (ddio_ways < ways: one exists).
                for e in cache_set:
                    if e & 1:
                        cache_set.remove(e)
                        break
            cache_set.append(entry)
            self._ddio_resident += 1
        self.stats.dma_update_hits += update_hits
        self.stats.dma_allocations += allocations
        return DmaWriteResult(len(span), update_hits, allocations, full_lines, partial_lines)

    def dma_read(self, addr: int, size: int) -> int:
        """Model the NIC's DMA read of an outbound payload.

        Returns the number of lines read; each is a PCIeRdCur event.  (DDIO
        reads may hit the LLC, but PCM counts the PCIe read transaction
        either way, which is what Figure 3(a) plots.)
        """
        lines = len(self._line_span(addr, size))
        self.counters.pcie_rd_cur += lines
        return lines

    # -- CPU path ----------------------------------------------------------

    def cpu_access(self, addr: int, size: int, write: bool = False) -> CpuAccessResult:
        """Model a CPU load/store; DDIO-resident lines are promoted."""
        sets = self._sets
        n_sets = self._n_sets
        hits = 0
        misses = 0
        for ln in self._line_span(addr, size):
            entry = ln // n_sets << 1 | _MAIN
            cache_set = sets[ln % n_sets]
            if cache_set is None:
                cache_set = sets[ln % n_sets] = []
            if entry in cache_set:
                cache_set.remove(entry)
                hits += 1
            elif entry ^ _MAIN in cache_set:
                # Core touched the line: it stops being a write-allocate
                # victim (promotion out of the DDIO ways).
                cache_set.remove(entry ^ _MAIN)
                self._ddio_resident -= 1
                hits += 1
            else:
                misses += 1
                if len(cache_set) >= self.params.ways:
                    # Evict the LRU line overall: the list's first.
                    if not cache_set.pop(0) & 1:
                        self._ddio_resident -= 1
            cache_set.append(entry)
        self.stats.cpu_hits += hits
        self.stats.cpu_misses += misses
        cost = hits * self.params.cpu_hit_ns + misses * self.params.cpu_miss_ns
        return CpuAccessResult(hits + misses, hits, misses, cost)

    def reset_stats(self) -> None:
        """Zero the LLC aggregate stats."""
        self.stats = LlcStats()
