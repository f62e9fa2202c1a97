"""Behavioural tests for the verb layer."""

import pytest

from repro.rdma import (
    Access,
    ProtectionError,
    Transport,
    VerbError,
    post_cas,
    post_fetch_add,
    post_read,
    post_recv,
    post_send,
    post_write,
)


def run(sim):
    sim.run()


class TestWrite:
    def test_write_delivers_payload(self, sim, nodes, rc_pair):
        a, b = nodes
        qp_a, _ = rc_pair
        src = a.register_memory(4096)
        dst = b.register_memory(4096)
        wr = post_write(qp_a, src.range.base, dst.range.base, 32, payload={"op": "stat"})
        run(sim)
        assert wr.done
        assert b.load(dst.range.base) == {"op": "stat"}

    def test_write_completion_takes_time(self, sim, nodes, rc_pair):
        a, b = nodes
        qp_a, _ = rc_pair
        src = a.register_memory(4096)
        dst = b.register_memory(4096)
        wr = post_write(qp_a, src.range.base, dst.range.base, 32)
        run(sim)
        # MMIO + tx + wire + rx + ACK: at least two wire flights.
        assert wr.completion.value.timestamp_ns >= 2 * a.fabric.params.latency_ns

    def test_uc_write_completes_without_ack_flight(self, sim, nodes, rc_pair):
        a, b = nodes
        qp_rc, _ = rc_pair
        qp_a = a.create_qp(Transport.UC)
        qp_b = b.create_qp(Transport.UC)
        qp_a.connect(qp_b)
        src = a.register_memory(4096)
        dst = b.register_memory(4096)
        uc_wr = post_write(qp_a, src.range.base, dst.range.base, 32)
        run(sim)
        uc_time = uc_wr.completion.value.timestamp_ns
        rc_wr = post_write(qp_rc, src.range.base, dst.range.base + 64, 32)
        start = sim.now
        run(sim)
        rc_time = rc_wr.completion.value.timestamp_ns - start
        # RC completion waits out the ACK's return flight; UC doesn't.
        assert rc_time >= uc_time + a.fabric.params.latency_ns // 2

    def test_write_to_unregistered_memory_faults(self, sim, nodes, rc_pair):
        a, b = nodes
        qp_a, _ = rc_pair
        src = a.register_memory(4096)
        with pytest.raises(ProtectionError):
            post_write(qp_a, src.range.base, 0xDEAD0000, 32)

    def test_write_respects_region_permissions(self, sim, nodes, rc_pair):
        a, b = nodes
        qp_a, _ = rc_pair
        src = a.register_memory(4096)
        readonly = b.register_memory(4096, access=Access.REMOTE_READ)
        with pytest.raises(ProtectionError):
            post_write(qp_a, src.range.base, readonly.range.base, 32)

    def test_ud_write_rejected(self, sim, nodes):
        a, b = nodes
        qp = a.create_qp(Transport.UD)
        with pytest.raises(VerbError):
            post_write(qp, 0, 0, 32)

    def test_unconnected_qp_rejected(self, sim, nodes):
        a, b = nodes
        qp = a.create_qp(Transport.RC)
        with pytest.raises(VerbError):
            post_write(qp, 0, 0, 32)

    def test_watcher_notified(self, sim, nodes, rc_pair):
        a, b = nodes
        qp_a, _ = rc_pair
        src = a.register_memory(4096)
        dst = b.register_memory(4096)
        events = []
        b.watch_writes(dst.range, events.append)
        post_write(qp_a, src.range.base, dst.range.base + 128, 32, payload="msg")
        run(sim)
        assert len(events) == 1
        assert events[0].addr == dst.range.base + 128
        assert events[0].payload == "msg"
        assert b.load(dst.range.base + 128) is None  # the watcher consumed it

    def test_write_imm_generates_recv_completion(self, sim, nodes, rc_pair):
        a, b = nodes
        qp_a, qp_b = rc_pair
        src = a.register_memory(4096)
        dst = b.register_memory(4096)
        post_recv(qp_b, dst.range.base + 2048, 64)
        post_write(qp_a, src.range.base, dst.range.base, 32, imm_data=42)
        run(sim)
        completions = qp_b.recv_cq.poll()
        assert len(completions) == 1
        assert completions[0].imm_data == 42

    def test_write_imm_without_recv_counts_drop(self, sim, nodes, rc_pair):
        a, b = nodes
        qp_a, qp_b = rc_pair
        src = a.register_memory(4096)
        dst = b.register_memory(4096)
        post_write(qp_a, src.range.base, dst.range.base, 32, imm_data=1)
        run(sim)
        assert qp_b.rnr_drops == 1

    def test_unsignaled_write_skips_cq(self, sim, nodes, rc_pair):
        a, b = nodes
        qp_a, _ = rc_pair
        src = a.register_memory(4096)
        dst = b.register_memory(4096)
        wr = post_write(qp_a, src.range.base, dst.range.base, 32, signaled=False)
        run(sim)
        assert wr.done
        assert qp_a.send_cq.poll() == []


class TestSendRecv:
    def _ud_pair(self, nodes):
        a, b = nodes
        qp_a = a.create_qp(Transport.UD)
        qp_b = b.create_qp(Transport.UD)
        return a, b, qp_a, qp_b

    def test_ud_send_delivers_to_recv_buffer(self, sim, nodes):
        a, b, qp_a, qp_b = self._ud_pair(nodes)
        buf = b.register_memory(4096, access=Access.all_remote())
        post_recv(qp_b, buf.range.base, 4096)
        post_send(qp_a, 64, payload="hello", dest=qp_b.address_handle())
        run(sim)
        completions = qp_b.recv_cq.poll()
        assert len(completions) == 1
        assert completions[0].payload == "hello"
        assert b.load(buf.range.base) == "hello"

    def test_ud_send_requires_dest(self, sim, nodes):
        a, b, qp_a, qp_b = self._ud_pair(nodes)
        with pytest.raises(VerbError):
            post_send(qp_a, 64)

    def test_ud_send_above_mtu_rejected(self, sim, nodes):
        a, b, qp_a, qp_b = self._ud_pair(nodes)
        with pytest.raises(VerbError):
            post_send(qp_a, 4097, dest=qp_b.address_handle())

    def test_rc_send_within_mtu(self, sim, nodes, rc_pair):
        a, b = nodes
        qp_a, qp_b = rc_pair
        buf = b.register_memory(1 << 20)
        post_recv(qp_b, buf.range.base, 1 << 20)
        wr = post_send(qp_a, 64 * 1024, payload=b"x")
        run(sim)
        assert wr.done
        assert qp_b.recv_cq.poll()[0].byte_len == 64 * 1024

    def test_send_without_recv_is_dropped(self, sim, nodes):
        a, b, qp_a, qp_b = self._ud_pair(nodes)
        wr = post_send(qp_a, 64, dest=qp_b.address_handle())
        run(sim)
        assert wr.done  # sender never learns
        assert qp_b.rnr_drops == 1
        assert qp_b.recv_cq.poll() == []

    def test_send_overflowing_recv_buffer_raises(self, sim, nodes):
        a, b, qp_a, qp_b = self._ud_pair(nodes)
        buf = b.register_memory(4096)
        post_recv(qp_b, buf.range.base, 32)
        post_send(qp_a, 64, dest=qp_b.address_handle())
        with pytest.raises(VerbError):
            run(sim)

    def test_rc_send_to_explicit_dest_rejected(self, sim, nodes, rc_pair):
        a, b = nodes
        qp_a, _ = rc_pair
        ud = b.create_qp(Transport.UD)
        with pytest.raises(VerbError):
            post_send(qp_a, 64, dest=ud.address_handle())

    def test_recv_requires_local_write_region(self, sim, nodes):
        a, b, qp_a, qp_b = self._ud_pair(nodes)
        with pytest.raises(ProtectionError):
            post_recv(qp_b, 0xDEAD0000, 64)


class TestRead:
    def test_read_returns_remote_object(self, sim, nodes, rc_pair):
        a, b = nodes
        qp_a, _ = rc_pair
        local = a.register_memory(4096)
        remote = b.register_memory(4096)
        b.store(remote.range.base + 8, ("version", 7))
        wr = post_read(qp_a, local.range.base, remote.range.base + 8, 8)
        run(sim)
        assert wr.completion.value.payload == ("version", 7)
        assert a.load(local.range.base) == ("version", 7)

    def test_read_into_watched_range_stores_nothing(self, sim, nodes, rc_pair):
        a, b = nodes
        qp_a, _ = rc_pair
        local = a.register_memory(4096)
        remote = b.register_memory(4096)
        b.store(remote.range.base + 8, ("version", 7))
        # The completion alone carries the payload; watchers see no write.
        landed = []
        a.watch_writes(local.range, landed.append)
        wr = post_read(qp_a, local.range.base, remote.range.base + 8, 8)
        run(sim)
        assert wr.completion.value.payload == ("version", 7)
        assert a.load(local.range.base) is None
        assert landed == []

    def test_uc_read_rejected(self, sim, nodes):
        a, b = nodes
        qp_a = a.create_qp(Transport.UC)
        qp_b = b.create_qp(Transport.UC)
        qp_a.connect(qp_b)
        with pytest.raises(VerbError):
            post_read(qp_a, 0, 0, 8)

    def test_read_requires_remote_read_permission(self, sim, nodes, rc_pair):
        a, b = nodes
        qp_a, _ = rc_pair
        local = a.register_memory(4096)
        writeonly = b.register_memory(4096, access=Access.REMOTE_WRITE)
        with pytest.raises(ProtectionError):
            post_read(qp_a, local.range.base, writeonly.range.base, 8)


class TestAtomics:
    def _setup(self, nodes, rc_pair):
        a, b = nodes
        qp_a, _ = rc_pair
        local = a.register_memory(4096)
        remote = b.register_memory(4096)
        return a, b, qp_a, local.range.base, remote.range.base

    def test_cas_success(self, sim, nodes, rc_pair):
        a, b, qp, local, remote = self._setup(nodes, rc_pair)
        b.store(remote, 0)
        wr = post_cas(qp, local, remote, compare=0, swap=1)
        run(sim)
        assert wr.completion.value.payload == 0  # old value
        assert b.load(remote) == 1

    def test_cas_failure_leaves_word(self, sim, nodes, rc_pair):
        a, b, qp, local, remote = self._setup(nodes, rc_pair)
        b.store(remote, 5)
        wr = post_cas(qp, local, remote, compare=0, swap=1)
        run(sim)
        assert wr.completion.value.payload == 5
        assert b.load(remote) == 5

    def test_fetch_add(self, sim, nodes, rc_pair):
        a, b, qp, local, remote = self._setup(nodes, rc_pair)
        b.store(remote, 10)
        wr = post_fetch_add(qp, local, remote, delta=3)
        run(sim)
        assert wr.completion.value.payload == 10
        assert b.load(remote) == 13

    def test_atomics_serialize(self, sim, nodes, rc_pair):
        a, b, qp, local, remote = self._setup(nodes, rc_pair)
        for _ in range(10):
            post_fetch_add(qp, local, remote, delta=1)
        run(sim)
        assert b.load(remote) == 10

    def test_atomic_requires_permission(self, sim, nodes, rc_pair):
        a, b, qp, local, _ = self._setup(nodes, rc_pair)
        readonly = b.register_memory(64, access=Access.REMOTE_READ)
        with pytest.raises(ProtectionError):
            post_cas(qp, local, readonly.range.base, 0, 1)


class TestCounters:
    def test_write_emits_payload_dma_read_and_itom(self, sim, nodes, rc_pair):
        a, b = nodes
        qp_a, _ = rc_pair
        src = a.register_memory(4096)
        dst = b.register_memory(4096)
        post_write(qp_a, src.range.base, dst.range.base, 64)
        run(sim)
        # One payload line read + the cold QPC and WQE cache refetches.
        fetch = a.nic.params.conn_miss_fetch_lines + a.nic.params.wqe_miss_fetch_lines
        assert a.counters.pcie_rd_cur == 1 + fetch
        assert b.counters.itom == 1  # full-line DMA write at receiver
        assert b.counters.pcie_itom == 1  # cold line -> write allocate

    def test_partial_write_counts_rfo(self, sim, nodes, rc_pair):
        a, b = nodes
        qp_a, _ = rc_pair
        src = a.register_memory(4096)
        dst = b.register_memory(4096)
        post_write(qp_a, src.range.base, dst.range.base, 32)
        run(sim)
        assert b.counters.rfo == 1
        assert b.counters.itom == 0
