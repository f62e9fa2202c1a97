"""Inbound-write delivery and region checks look addresses up, not scan."""

import gc
import sys

from repro.analysis.mc.invariants import swap_write_watcher
from repro.rdma import Access, Node
from repro.rdma.node import InboundWrite


def inbound(addr):
    return InboundWrite(addr=addr, size=8, payload=None, imm_data=None,
                        src_qp_num=0, time_ns=0)


class TestWriteWatchers:
    def test_watchers_sharing_a_range_fire_in_registration_order(self, nodes):
        node, _ = nodes
        low = node.register_memory(4096, huge_pages=False)
        high = node.register_memory(4096, huge_pages=False)
        fired = []
        node.watch_writes(high.range, lambda event: fired.append("high"))
        node.watch_writes(low.range, lambda event: fired.append("first"))
        node.watch_writes(low.range, lambda event: fired.append("second"))
        node.deliver_write(inbound(low.range.base + 64))
        assert fired == ["first", "second"]
        # A watcher sees writes that *start* in its range, whatever their size.
        node.deliver_write(inbound(low.range.end - 1))
        assert fired == ["first", "second", "first", "second"]
        node.deliver_write(inbound(high.range.end))
        assert len(fired) == 4

    def test_watched_write_goes_to_its_watchers_not_object_memory(self, nodes):
        node, _ = nodes
        watched = node.register_memory(4096, huge_pages=False)
        plain = node.register_memory(4096, huge_pages=False)
        seen = []
        node.watch_writes(watched.range, seen.append)
        node.store(watched.range.base + 64, "stored")
        for addr in (watched.range.base, watched.range.base + 64, plain.range.base):
            node.deliver_write(InboundWrite(addr=addr, size=8, payload=("msg", addr),
                                            imm_data=None, src_qp_num=0, time_ns=0))
        assert [event.payload for event in seen] == [
            ("msg", watched.range.base), ("msg", watched.range.base + 64),
        ]
        # ``load`` on a watched range returns only what the program stored.
        assert node.load(watched.range.base, "unset") == "unset"
        assert node.load(watched.range.base + 64) == "stored"
        assert node.load(plain.range.base) == ("msg", plain.range.base)

    def test_swapped_watcher_intercepts(self, nodes):
        node, _ = nodes
        region = node.register_memory(4096, huge_pages=False)
        seen = []
        original = seen.append
        node.watch_writes(region.range, original)
        swap_write_watcher(node, original, lambda event: seen.append("intercepted"))
        node.deliver_write(inbound(region.range.base))
        assert seen == ["intercepted"]


def lines_executed(call):
    """Python line events inside ``call()``: work counted, not timed."""
    count = 0

    def tracer(_frame, event, _arg):
        nonlocal count
        count += event == "line"
        return tracer

    # A collection inside ``call`` would run the finalizers of earlier
    # tests' garbage under the tracer: collect first, then keep it off.
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return count


def lines_for_one_write(sim, fabric, n_ranges):
    """Lines one region check plus one delivery execute on a node holding
    ``n_ranges`` disjoint registered regions, each with a watcher."""
    node = Node(sim, f"n{n_ranges}", fabric)
    fired = []
    regions = [node.register_memory(64, huge_pages=False) for _ in range(n_ranges)]
    for region in regions:
        node.watch_writes(region.range, fired.append)
    addr = regions[n_ranges // 2].range.base

    def one_write():
        node.mr_table.check(addr, 8, Access.REMOTE_WRITE)
        node.deliver_write(inbound(addr))

    lines = lines_executed(one_write)
    assert len(fired) == 1
    return lines


def test_lookup_cost_is_flat_in_registered_ranges(sim, fabric):
    """An insertion-order scan executes ~N/2 + N loop bodies here (382
    lines at N = 64, 22,558 at 4,096); the index executes the same few
    dozen whatever N is."""
    small = lines_for_one_write(sim, fabric, 64)
    large = lines_for_one_write(sim, fabric, 4096)
    assert small == large
    assert small < 128
