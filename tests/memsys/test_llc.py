"""Tests for the set-associative LLC + DDIO model."""

import gc
import tracemalloc
from collections import OrderedDict, defaultdict
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys import LastLevelCache, LlcParams
from repro.memsys.llc import _DDIO, _MAIN, CpuAccessResult, DmaWriteResult

KIB = 1024


def small_llc(sets=4, ways=4, ddio_ways=1):
    """A tiny LLC: `sets` sets x `ways` ways of 64-byte lines."""
    return LastLevelCache(
        LlcParams(
            capacity_bytes=sets * ways * 64,
            ways=ways,
            ddio_ways=ddio_ways,
        )
    )


def addr_for(llc, set_index, tag):
    """An address mapping to ``set_index`` with a distinguishing tag."""
    n_sets = llc.params.n_sets
    return (tag * n_sets + set_index) * 64


class TestLlcParams:
    def test_defaults(self):
        params = LlcParams()
        assert params.total_lines == 12 * 1024 * KIB // 64
        assert params.n_sets == params.total_lines // 16

    def test_validation(self):
        with pytest.raises(ValueError):
            LlcParams(capacity_bytes=64)
        with pytest.raises(ValueError):
            LlcParams(ways=1)
        with pytest.raises(ValueError):
            LlcParams(ddio_ways=16, ways=16)
        with pytest.raises(ValueError):
            LlcParams(capacity_bytes=12 * 1024 * KIB + 64)


class TestDmaWrite:
    def test_first_write_allocates(self):
        llc = small_llc()
        result = llc.dma_write(0x1000, 32)
        assert result.allocations == 1
        assert result.update_hits == 0
        assert llc.counters.pcie_itom == 1

    def test_second_write_same_line_is_update(self):
        llc = small_llc()
        llc.dma_write(0x1000, 32)
        result = llc.dma_write(0x1000, 32)
        assert result.allocations == 0
        assert result.update_hits == 1
        assert llc.counters.pcie_itom == 1  # unchanged

    def test_partial_vs_full_line_counters(self):
        llc = small_llc()
        llc.dma_write(0x1000, 32)  # partial line -> RFO
        assert llc.counters.rfo == 1
        assert llc.counters.itom == 0
        llc.dma_write(0x2000, 64)  # aligned full line -> ItoM
        assert llc.counters.itom == 1

    def test_multi_line_write_spans_lines(self):
        llc = small_llc()
        result = llc.dma_write(0x1000, 256)
        assert result.lines == 4
        assert result.full_lines == 4

    def test_unaligned_write_has_partial_edges(self):
        llc = small_llc()
        result = llc.dma_write(0x1020, 128)  # starts mid-line
        assert result.lines == 3
        assert result.partial_lines == 2
        assert result.full_lines == 1

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            small_llc().dma_write(0, 0)

    def test_ddio_ways_bound_allocations_per_set(self):
        # 1 DDIO way per set: DMA-writing 3 tags of the same set without
        # CPU promotion keeps evicting within that single way.
        llc = small_llc(sets=4, ways=4, ddio_ways=1)
        for _round in range(3):
            for tag in range(3):
                llc.dma_write(addr_for(llc, 0, tag), 64)
        assert llc.stats.dma_update_hits == 0
        assert llc.stats.dma_allocations == 9

    def test_other_sets_unaffected_by_one_sets_thrash(self):
        llc = small_llc(sets=4, ways=4, ddio_ways=1)
        llc.dma_write(addr_for(llc, 1, 0), 64)  # set 1, stays resident
        for tag in range(6):  # thrash set 0
            llc.dma_write(addr_for(llc, 0, tag), 64)
        assert llc.resident(addr_for(llc, 1, 0), 64)


class TestCpuAccessAndPromotion:
    def test_cpu_miss_then_hit(self):
        llc = small_llc()
        miss = llc.cpu_access(0x5000, 32)
        assert miss.misses == 1
        hit = llc.cpu_access(0x5000, 32)
        assert hit.hits == 1
        assert hit.cost_ns == llc.params.cpu_hit_ns

    def test_cpu_promotes_ddio_lines(self):
        # After the CPU touches a DMA-written line it stops being a
        # write-allocate victim: later DMA traffic through the same set
        # evicts within the DDIO way, not the promoted line.
        llc = small_llc(sets=4, ways=4, ddio_ways=1)
        hot = addr_for(llc, 0, 0)
        llc.dma_write(hot, 64)
        assert llc.cpu_access(hot, 64).hits == 1  # promoted
        for tag in range(1, 5):  # cycle the DDIO way of set 0
            llc.dma_write(addr_for(llc, 0, tag), 64)
        assert llc.dma_write(hot, 64).update_hits == 1

    def test_footprint_within_set_capacity_reaches_steady_state(self):
        llc = small_llc(sets=8, ways=4, ddio_ways=1)
        addrs = [addr_for(llc, s, t) for s in range(8) for t in range(2)]
        for _round in range(4):
            for addr in addrs:
                llc.dma_write(addr, 64)
                llc.cpu_access(addr, 64)
        # Cold allocations only; afterwards promotion keeps everything hot.
        assert llc.stats.dma_allocations == len(addrs)
        assert llc.stats.cpu_misses == 0  # DMA always wrote first

    def test_set_overflow_thrashes_even_when_total_capacity_fits(self):
        # 8 sets x 4 ways = 32 lines total, but all 6 lines hammer set 0:
        # 6 > 4 ways, so the working set never becomes resident.
        llc = small_llc(sets=8, ways=4, ddio_ways=1)
        addrs = [addr_for(llc, 0, t) for t in range(6)]
        for _round in range(5):
            for addr in addrs:
                llc.cpu_access(addr, 64)
        assert llc.stats.cpu_hits == 0
        assert sum(map(len, llc.built_sets().values())) <= 32

    def test_l3_miss_rate(self):
        llc = small_llc()
        llc.cpu_access(0, 64)
        llc.cpu_access(0, 64)
        llc.cpu_access(64, 64)
        assert llc.stats.l3_miss_rate == pytest.approx(2 / 3)

    def test_resident(self):
        llc = small_llc()
        assert not llc.resident(0x100, 32)
        llc.cpu_access(0x100, 32)
        assert llc.resident(0x100, 32)


class TestDmaRead:
    def test_counts_pcie_rd_cur_per_line(self):
        llc = small_llc()
        assert llc.dma_read(0, 32) == 1
        assert llc.dma_read(0x1000, 256) == 4
        assert llc.counters.pcie_rd_cur == 5


class TestStridedFootprints:
    """The mechanism behind Figure 3(b): stride concentrates hot lines
    onto fewer sets, so larger blocks thrash at the same line count."""

    def _steady_state_alloc_rate(self, stride_lines, n_blocks, rounds=6):
        llc = small_llc(sets=16, ways=4, ddio_ways=1)
        addrs = [b * stride_lines * 64 for b in range(n_blocks)]
        for addr in addrs:  # cold round
            llc.dma_write(addr, 64)
            llc.cpu_access(addr, 64)
        llc.reset_stats()
        for _round in range(rounds):
            for addr in addrs:
                llc.dma_write(addr, 64)
                llc.cpu_access(addr, 64)
        return llc.stats.dma_allocate_rate

    def test_small_stride_fits_large_stride_thrashes(self):
        # 24 hot lines either spread over all 16 sets (stride 1) or
        # concentrated on 4 sets (stride 4; 24 > 4 sets x 4 ways).
        assert self._steady_state_alloc_rate(stride_lines=1, n_blocks=24) == 0.0
        assert self._steady_state_alloc_rate(stride_lines=4, n_blocks=24) > 0.5


class TestLlcProperties:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["dma", "cpu"]),
                st.integers(min_value=0, max_value=255),  # line index
                st.integers(min_value=1, max_value=192),  # size
            ),
            max_size=300,
        )
    )
    @settings(max_examples=60)
    def test_sets_never_exceed_ways(self, ops):
        llc = small_llc(sets=8, ways=4, ddio_ways=1)
        for kind, line, size in ops:
            addr = line * 64
            if kind == "dma":
                llc.dma_write(addr, size)
            else:
                llc.cpu_access(addr, size)
        assert all(len(lines) <= llc.params.ways for lines in llc.built_sets().values())

    @given(
        ops=st.lists(
            st.tuples(st.integers(min_value=0, max_value=63), st.booleans()),
            max_size=200,
        )
    )
    @settings(max_examples=60)
    def test_second_touch_always_hits(self, ops):
        """Immediately re-accessing an address must hit (temporal locality)."""
        llc = small_llc(sets=16, ways=4, ddio_ways=1)
        for line, use_dma in ops:
            addr = line * 64
            if use_dma:
                llc.dma_write(addr, 64)
                result = llc.dma_write(addr, 64)
                assert result.update_hits == 1
            else:
                llc.cpu_access(addr, 64)
                assert llc.cpu_access(addr, 64).hits == 1


class OrderedDictLlc(LastLevelCache):
    """The oracle: the LLC as it was with one ``OrderedDict`` per set,
    ``move_to_end`` for recency and ``popitem(last=False)`` for LRU."""

    def __init__(self, params):
        super().__init__(params)
        self.od_sets = defaultdict(OrderedDict)

    def dma_write(self, addr, size):
        params = self.params
        counters = self.counters
        line_size = params.line_size
        update_hits = allocations = full_lines = partial_lines = 0
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
            cache_set = self.od_sets[ln % self._n_sets]
            if ln in cache_set:
                cache_set.move_to_end(ln)
                update_hits += 1
                continue
            counters.pcie_itom += 1
            allocations += 1
            ddio_lines = 0
            ddio_lru = None
            for line, tag in cache_set.items():
                if tag == _DDIO:
                    if ddio_lru is None:
                        ddio_lru = line
                    ddio_lines += 1
            if ddio_lines >= params.ddio_ways:
                del cache_set[ddio_lru]
                self._ddio_resident -= 1
            elif len(cache_set) >= params.ways:
                self._evict_main(cache_set)
            cache_set[ln] = _DDIO
            self._ddio_resident += 1
        self.stats.dma_update_hits += update_hits
        self.stats.dma_allocations += allocations
        return DmaWriteResult(
            lines=len(span),
            update_hits=update_hits,
            allocations=allocations,
            full_lines=full_lines,
            partial_lines=partial_lines,
        )

    def _evict_main(self, cache_set):
        for line, tag in cache_set.items():
            if tag == _MAIN:
                del cache_set[line]
                return
        _line, tag = cache_set.popitem(last=False)
        if tag == _DDIO:
            self._ddio_resident -= 1

    def cpu_access(self, addr, size, write=False):
        hits = misses = 0
        for ln in self._line_span(addr, size):
            cache_set = self.od_sets[ln % self._n_sets]
            if ln in cache_set:
                if cache_set[ln] == _DDIO:
                    self._ddio_resident -= 1
                cache_set[ln] = _MAIN
                cache_set.move_to_end(ln)
                hits += 1
            else:
                misses += 1
                if len(cache_set) >= self.params.ways:
                    _line, tag = cache_set.popitem(last=False)
                    if tag == _DDIO:
                        self._ddio_resident -= 1
                cache_set[ln] = _MAIN
        self.stats.cpu_hits += hits
        self.stats.cpu_misses += misses
        cost = hits * self.params.cpu_hit_ns + misses * self.params.cpu_miss_ns
        return CpuAccessResult(lines=hits + misses, hits=hits, misses=misses, cost_ns=cost)


def tracked_containers(llc):
    """GC-tracked objects reachable from the LLC's attributes through
    lists, tuples and dicts (its parameters, counters and set table)."""
    count = 0
    stack = list(vars(llc).values())
    while stack:
        obj = stack.pop()
        count += gc.is_tracked(obj)
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return count


#: Byte addresses from the first few lines, or the same lines 2**40 bytes
#: up: those share sets with the low ones but carry a tag too large to be
#: a cached small int.
ADDRESSES = st.integers(min_value=0, max_value=40 * 64) | st.integers(
    min_value=2**40, max_value=2**40 + 40 * 64
)


class TestLlcMatchesOrderedDictOracle:
    """List-of-tags sets make every hit, eviction, DDIO victim and counter
    the ``OrderedDict`` sets made, and own at most one GC-tracked object
    per built set and none per line."""

    @given(
        ddio_ways=st.integers(min_value=1, max_value=2),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["dma", "cpu"]),
                ADDRESSES,
                st.integers(min_value=1, max_value=200),  # size
            ),
            max_size=120,
        ),
    )
    def test_every_step_matches(self, ddio_ways, ops):
        params = LlcParams(capacity_bytes=4 * 4 * 64, ways=4, ddio_ways=ddio_ways)
        llc, oracle = LastLevelCache(params), OrderedDictLlc(params)
        untouched = tracked_containers(LastLevelCache(params))
        for kind, addr, size in ops:
            if kind == "dma":
                assert llc.dma_write(addr, size) == oracle.dma_write(addr, size)
            else:
                assert llc.cpu_access(addr, size) == oracle.cpu_access(addr, size)
            assert asdict(llc.stats) == asdict(oracle.stats)
            assert llc.counters.snapshot() == oracle.counters.snapshot()
            assert llc.ddio_resident_lines == oracle.ddio_resident_lines
            built = llc.built_sets()
            assert built == {i: list(s.items()) for i, s in oracle.od_sets.items()}
            assert tracked_containers(llc) - untouched <= len(built)


class TestLlcFootprint:
    def test_bytes_per_resident_line(self):
        # One line per set, the costliest layout: a dict per set cost 320
        # bytes a line; a list of small-int tags costs its 56 bytes plus a
        # four-slot buffer, 88 bytes.
        llc = LastLevelCache()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for line in range(4096):
                llc.cpu_access(line * 64, 64)
            per_line = (tracemalloc.get_traced_memory()[0] - before) / 4096
        finally:
            tracemalloc.stop()
        assert len(llc.built_sets()) == 4096
        assert per_line < 120
