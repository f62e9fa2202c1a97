"""Tests for memory regions, queue pairs, and completion queues."""

import pytest

from repro.memsys import MemoryRange
from repro.rdma import (
    Access,
    Completion,
    CompletionQueue,
    MrTable,
    Opcode,
    ProtectionError,
    QpError,
    QpState,
    Transport,
)
from repro.rdma.qp import RecvWqe


class TestMrTable:
    def test_register_and_check(self):
        table = MrTable()
        region = table.register(MemoryRange(0x1000, 4096), Access.all_remote())
        assert table.check(0x1000, 64, Access.REMOTE_WRITE) is region

    def test_check_rejects_out_of_range(self):
        table = MrTable()
        table.register(MemoryRange(0x1000, 4096), Access.all_remote())
        with pytest.raises(ProtectionError):
            table.check(0x0, 64, Access.REMOTE_WRITE)
        with pytest.raises(ProtectionError):
            table.check(0x1000, 8192, Access.REMOTE_WRITE)

    def test_check_rejects_missing_permission(self):
        table = MrTable()
        table.register(MemoryRange(0x1000, 4096), Access.REMOTE_READ)
        table.check(0x1000, 8, Access.REMOTE_READ)
        with pytest.raises(ProtectionError):
            table.check(0x1000, 8, Access.REMOTE_WRITE)

    def test_rkey_lookup(self):
        table = MrTable()
        region = table.register(MemoryRange(0, 64), Access.REMOTE_READ)
        assert table.by_rkey(region.rkey) is region
        with pytest.raises(ProtectionError):
            table.by_rkey(999999)

    def test_deregister(self):
        table = MrTable()
        region = table.register(MemoryRange(0, 64), Access.all_remote())
        table.deregister(region)
        with pytest.raises(ProtectionError):
            table.check(0, 8, Access.REMOTE_READ)
        with pytest.raises(ProtectionError):
            table.deregister(region)

    def test_overlap_resolves_to_first_registered_that_allows(self):
        table = MrTable()
        read_only = table.register(MemoryRange(0x1000, 4096), Access.REMOTE_READ)
        writable = table.register(MemoryRange(0x0, 0x4000), Access.all_remote())
        also_writable = table.register(MemoryRange(0x1000, 4096), Access.all_remote())
        assert table.check(0x1800, 64, Access.REMOTE_READ) is read_only
        assert table.check(0x1800, 64, Access.REMOTE_WRITE) is writable
        table.deregister(writable)
        assert table.check(0x1800, 64, Access.REMOTE_WRITE) is also_writable

    def test_later_duplicate_survives_deregister(self):
        table = MrTable()
        first = table.register(MemoryRange(0x1000, 4096), Access.all_remote())
        table.deregister(first)
        with pytest.raises(ProtectionError):
            table.check(0x1000, 64, Access.REMOTE_WRITE)
        duplicate = table.register(MemoryRange(0x1000, 4096), Access.all_remote())
        assert table.check(0x1000, 64, Access.REMOTE_WRITE) is duplicate
        assert len(table) == 1

    def test_keys_are_unique(self):
        table = MrTable()
        a = table.register(MemoryRange(0, 64), Access.all_remote())
        b = table.register(MemoryRange(64, 64), Access.all_remote())
        assert a.rkey != b.rkey
        assert a.lkey != b.lkey


class TestQueuePair:
    def test_rc_requires_connect(self, nodes):
        a, _b = nodes
        qp = a.create_qp(Transport.RC)
        assert qp.state is QpState.INIT
        assert not qp.is_ready

    def test_connect_transitions_both_to_rts(self, rc_pair):
        qp_a, qp_b = rc_pair
        assert qp_a.state is QpState.RTS
        assert qp_b.state is QpState.RTS
        assert qp_a.peer is qp_b

    def test_ud_is_ready_immediately(self, nodes):
        a, _ = nodes
        qp = a.create_qp(Transport.UD)
        assert qp.is_ready

    def test_ud_cannot_connect(self, nodes):
        a, b = nodes
        with pytest.raises(QpError):
            a.create_qp(Transport.UD).connect(b.create_qp(Transport.UD))

    def test_transport_mismatch_rejected(self, nodes):
        a, b = nodes
        with pytest.raises(QpError):
            a.create_qp(Transport.RC).connect(b.create_qp(Transport.UC))

    def test_double_connect_rejected(self, nodes, rc_pair):
        a, b = nodes
        qp_a, _ = rc_pair
        with pytest.raises(QpError):
            qp_a.connect(b.create_qp(Transport.RC))

    def test_self_node_connect_rejected(self, nodes):
        a, _ = nodes
        with pytest.raises(QpError):
            a.create_qp(Transport.RC).connect(a.create_qp(Transport.RC))

    def test_address_handle_only_for_ud(self, nodes):
        a, _ = nodes
        ud = a.create_qp(Transport.UD)
        handle = ud.address_handle()
        assert handle.qp_num == ud.qp_num
        with pytest.raises(QpError):
            a.create_qp(Transport.RC).address_handle()

    def test_recv_queue_capacity(self, nodes):
        a, _ = nodes
        qp = a.create_qp(Transport.UD, max_recv_wr=2)
        qp.post_recv_wqe(RecvWqe(1, 0, 64))
        qp.post_recv_wqe(RecvWqe(2, 64, 64))
        with pytest.raises(QpError):
            qp.post_recv_wqe(RecvWqe(3, 128, 64))

    def test_consume_recv_fifo(self, nodes):
        a, _ = nodes
        qp = a.create_qp(Transport.UD)
        qp.post_recv_wqe(RecvWqe(1, 0, 64))
        qp.post_recv_wqe(RecvWqe(2, 64, 64))
        assert qp.consume_recv_wqe().wr_id == 1
        assert qp.consume_recv_wqe().wr_id == 2
        assert qp.consume_recv_wqe() is None


class TestCompletionQueue:
    def test_poll_empty(self, sim):
        assert CompletionQueue(sim).poll() == []

    def test_push_and_poll_order(self, sim):
        cq = CompletionQueue(sim)
        for i in range(3):
            cq.push(Completion(wr_id=i, opcode=Opcode.SEND, qp_num=1))
        assert [c.wr_id for c in cq.poll(2)] == [0, 1]
        assert [c.wr_id for c in cq.poll()] == [2]
        assert cq.pushed == 3
        assert cq.polled == 3

    def test_get_event_blocks_until_push(self, sim):
        cq = CompletionQueue(sim)
        seen = []

        def waiter(sim):
            completion = yield cq.get_event()
            seen.append(completion.wr_id)

        def pusher(sim):
            yield sim.timeout(5)
            cq.push(Completion(wr_id=77, opcode=Opcode.SEND, qp_num=1))

        sim.process(waiter(sim))
        sim.process(pusher(sim))
        sim.run()
        assert seen == [77]
