"""Large-message transfer strategies (paper Section 5.1).

The paper motivates choosing RC partly with a measurement from its own
prototype: transferring data larger than the 4 KB UD MTU requires cutting
it into ordered 4 KB slices with per-slice acknowledgment, which reached
only 0.8 GB/s single-threaded — 12.5% of the RC bandwidth — unless a more
complex pipelined scheme is built.  This module implements all three
strategies over the simulated fabric:

- :func:`rc_single_write`   — one RC write (MTU 2 GB),
- :func:`ud_ordered_chunks` — stop-and-wait 4 KB UD slices with acks,
- :func:`ud_pipelined_chunks` — the windowed variant the paper says
  recovers bandwidth at the price of software complexity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..rdma import (
    Access,
    Fabric,
    Node,
    Transport,
    post_recv,
    post_send,
    post_write,
)
from ..rdma.types import max_message_size
from ..sim import NS_PER_S, Simulator

__all__ = [
    "TransferResult",
    "rc_single_write",
    "ud_ordered_chunks",
    "ud_pipelined_chunks",
    "run_transfer_comparison",
]

UD_CHUNK = 4096


@dataclass(frozen=True)
class TransferResult:
    """One completed transfer."""

    strategy: str
    total_bytes: int
    elapsed_ns: int
    messages: int

    @property
    def gbytes_per_s(self) -> float:
        return self.total_bytes / max(self.elapsed_ns, 1)  # bytes/ns == GB/s


def rc_single_write(sim: Simulator, sender: Node, receiver: Node,
                    qp, dst_addr: int, src_addr: int, total_bytes: int) -> Generator:
    """One RC write carries the whole payload (RC MTU is 2 GB)."""
    if total_bytes > max_message_size(Transport.RC):
        raise ValueError("payload exceeds even the RC MTU")
    start = sim.now
    wr = post_write(qp, src_addr, dst_addr, total_bytes, payload=("bulk", total_bytes),
                    signaled=False)
    yield wr.completion
    return TransferResult("rc_single_write", total_bytes, sim.now - start, 1)


def ud_ordered_chunks(sim: Simulator, sender_qp, receiver_qp, receiver_node: Node,
                      ack_qp, src_addr: int, recv_base: int,
                      total_bytes: int) -> Generator:
    """Stop-and-wait: send a 4 KB slice, wait for the receiver's ack.

    This is the paper's "ordered transferring" strawman: correct and
    simple, but each slice pays a full round trip.
    """
    start = sim.now
    sent = 0
    chunk_index = 0
    n_chunks = -(-total_bytes // UD_CHUNK)
    ack_ring = sender_qp.node.register_memory(64 * 64, huge_pages=False)
    for i in range(64):
        post_recv(sender_qp, ack_ring.range.base + (i % 64) * 64, 64)
    while sent < total_bytes:
        size = min(UD_CHUNK, total_bytes - sent)
        wr = post_send(
            sender_qp, size, payload=("chunk", chunk_index),
            local_addr=src_addr, dest=receiver_qp.address_handle(), signaled=False,
        )
        yield wr.completion
        # Receiver-side: consume and acknowledge.
        completion = yield receiver_qp.recv_cq.get_event()
        post_recv(receiver_qp, recv_base, UD_CHUNK)
        receiver_node.llc.cpu_access(completion.addr or recv_base, size)
        ack = post_send(
            ack_qp, 16, payload=("ack", chunk_index),
            dest=sender_qp.address_handle(), signaled=False,
        )
        yield ack.completion
        ack_completion = yield sender_qp.recv_cq.get_event()
        post_recv(sender_qp, ack_ring.range.base, 64)
        sent += size
        chunk_index += 1
    return TransferResult("ud_ordered_chunks", total_bytes, sim.now - start, 2 * n_chunks)


def ud_pipelined_chunks(sim: Simulator, sender_qp, receiver_qp, receiver_node: Node,
                        ack_qp, src_addr: int, recv_base: int,
                        total_bytes: int, window: int = 16) -> Generator:
    """Windowed slicing: keep ``window`` slices in flight, ack per slice.

    The paper notes pipelining recovers throughput but "inevitably causes
    increased complexity in the software" — visible below.
    """
    start = sim.now
    n_chunks = -(-total_bytes // UD_CHUNK)
    state = {"acked": 0, "sent": 0}
    ack_ring = sender_qp.node.register_memory(64 * 64, huge_pages=False)
    for i in range(64):
        post_recv(sender_qp, ack_ring.range.base + (i % 64) * 64, 64)

    def receiver_loop(sim):
        received = 0
        while received < n_chunks:
            completion = yield receiver_qp.recv_cq.get_event()
            post_recv(receiver_qp, recv_base, UD_CHUNK)
            receiver_node.llc.cpu_access(completion.addr or recv_base, completion.byte_len)
            post_send(ack_qp, 16, payload=("ack", received),
                      dest=sender_qp.address_handle(), signaled=False)
            received += 1

    receiver_proc = sim.process(receiver_loop(sim), name="xfer.rx")
    while state["acked"] < n_chunks:
        while (
            state["sent"] < n_chunks
            and state["sent"] - state["acked"] < window
        ):
            offset = state["sent"] * UD_CHUNK
            size = min(UD_CHUNK, total_bytes - offset)
            post_send(sender_qp, size, payload=("chunk", state["sent"]),
                      local_addr=src_addr, dest=receiver_qp.address_handle(),
                      signaled=False)
            state["sent"] += 1
        yield sender_qp.recv_cq.get_event()  # one ack
        post_recv(sender_qp, ack_ring.range.base, 64)
        state["acked"] += 1
    yield receiver_proc
    return TransferResult("ud_pipelined_chunks", total_bytes, sim.now - start, 2 * n_chunks)


def run_transfer_comparison(total_bytes: int = 8 << 20, window: int = 16) -> dict[str, TransferResult]:
    """Run all three strategies over identical fabrics; returns results."""
    results: dict[str, TransferResult] = {}

    # RC
    sim = Simulator()
    fabric = Fabric(sim)
    sender = Node(sim, "tx", fabric)
    receiver = Node(sim, "rx", fabric)
    qp_s = sender.create_qp(Transport.RC)
    qp_r = receiver.create_qp(Transport.RC)
    qp_s.connect(qp_r)
    src = sender.register_memory(total_bytes)
    dst = receiver.register_memory(total_bytes)

    def rc_driver(sim):
        result = yield from rc_single_write(
            sim, sender, receiver, qp_s, dst.range.base, src.range.base, total_bytes
        )
        results["rc"] = result

    sim.process(rc_driver(sim))
    sim.run()

    # UD variants share a builder.
    def build_ud():
        sim = Simulator()
        fabric = Fabric(sim)
        sender = Node(sim, "tx", fabric)
        receiver = Node(sim, "rx", fabric)
        sender_qp = sender.create_qp(Transport.UD, max_recv_wr=256)
        receiver_qp = receiver.create_qp(Transport.UD, max_recv_wr=2 * window + 64)
        ack_qp = receiver.create_qp(Transport.UD)
        src = sender.register_memory(total_bytes)
        recv_buf = receiver.register_memory(64 * UD_CHUNK, access=Access.all_remote(),
                                            huge_pages=False)
        for i in range(2 * window + 16):
            post_recv(receiver_qp, recv_buf.range.base + (i % 32) * UD_CHUNK, UD_CHUNK)
        return sim, sender, receiver, sender_qp, receiver_qp, ack_qp, src, recv_buf

    sim, sender, receiver, sqp, rqp, aqp, src, recv_buf = build_ud()

    def stop_and_wait(sim):
        result = yield from ud_ordered_chunks(
            sim, sqp, rqp, receiver, aqp, src.range.base, recv_buf.range.base, total_bytes
        )
        results["ud"] = result

    sim.process(stop_and_wait(sim))
    sim.run()

    sim, sender, receiver, sqp, rqp, aqp, src, recv_buf = build_ud()

    def pipelined(sim):
        result = yield from ud_pipelined_chunks(
            sim, sqp, rqp, receiver, aqp, src.range.base, recv_buf.range.base,
            total_bytes, window=window,
        )
        results["ud_pipelined"] = result

    sim.process(pipelined(sim))
    sim.run()
    return results
