"""The verb layer: post_send / post_recv / write / read / atomics.

Each ``post_*`` call validates the request against the Table-1 capability
matrix and the target's memory regions, then spawns a simulation process
that walks the message through the paper's Figure-2 flow:

1. CPU rings the doorbell (MMIO),
2. sender NIC processes the WQE (connection-cache access, payload DMA read),
3. the fabric carries the packet,
4. the receiver NIC deposits the payload (DMA write through the LLC/DDIO),
5. completion (for RC, after the ACK's return flight).

``post_*`` returns a :class:`WorkRequest` immediately; its ``completion``
event triggers when the verb finishes, and signaled requests additionally
push a CQE to the QP's send CQ.  One-sided writes wake any watchers on the
target range, standing in for the remote CPU's polling loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..sim.engine import Event
from .cq import Completion
from .mr import Access
from .node import InboundWrite
from .qp import AddressHandle, QpError, QueuePair, RecvWqe
from .types import Opcode, Transport, max_message_size, supports

__all__ = ["VerbError", "WorkRequest", "post_send", "post_recv", "post_write",
           "post_read", "post_cas", "post_fetch_add"]

_wr_ids = itertools.count(1)


class VerbError(QpError):
    """Illegal verb: unsupported opcode, oversized message, bad state."""


@dataclass(slots=True)
class WorkRequest:
    """Handle returned by every ``post_*`` call."""

    wr_id: int
    opcode: Opcode
    qp: QueuePair
    completion: Event = field(repr=False)

    @property
    def done(self) -> bool:
        return self.completion.triggered


def _validate(qp: QueuePair, opcode: Opcode, size: int) -> None:
    if not qp.is_ready:
        raise VerbError(f"QP {qp.qp_num} not ready (state {qp.state.value})")
    if not supports(qp.transport, opcode):
        raise VerbError(f"{qp.transport.value} does not support {opcode.value}")
    limit = max_message_size(qp.transport)
    if size > limit:
        raise VerbError(
            f"{size}-byte message exceeds {qp.transport.value} MTU of {limit}"
        )
    if size < 0:
        raise VerbError("negative message size")
    if qp.transport.is_connected and qp.peer is None:
        raise VerbError(f"QP {qp.qp_num} is not connected")


def _complete(qp: QueuePair, wr: WorkRequest, byte_len: int, signaled: bool,
              payload: Any = None, status: str = "success") -> None:
    completion = Completion(wr.wr_id, wr.opcode, qp.qp_num, byte_len, None,
                            payload, qp.node.sim.now, status)
    if signaled:
        qp.send_cq.push(completion)
    wr.completion.succeed(completion)


def _rc_retransmit(qp: QueuePair, local_addr: Optional[int], size: int) -> Generator:
    """Sender-side reliable delivery after the fabric dropped an RC
    packet: the sender waits out its ACK timeout and retransmits
    (re-paying the NIC WQE processing), up to ``retry_cnt`` times.
    Exhaustion errors the QP — the hardware's IBV_WC_RETRY_EXC_ERR — and
    returns False so the caller completes the WR with an error status
    instead of landing the payload.  The caller makes the first loss
    draw (``not fabric.drops_packet(True) or (yield from ...)``), so a
    delivered packet builds no generator; with ``rc_loss_rate == 0`` that
    draw consumes no RNG and this is never entered."""
    fabric = qp.node.fabric
    sim = qp.node.sim
    for _attempt in range(qp.retry_cnt):
        qp.retransmits += 1
        yield sim.timeout(qp.timeout_ns)
        yield from qp.node.nic.tx(_conn_key(qp), local_addr, size)
        if not fabric.drops_packet(True):
            return True
    qp.retry_exhausted += 1
    qp.to_error()
    return False


def _conn_key(qp: QueuePair) -> Optional[int]:
    """Connection-cache key: per-QP for connected transports, None for UD
    (a UD QP's single context stays resident)."""
    return qp.qp_num if qp.transport.is_connected else None


# -- observability hooks (zero-cost while fabric.obs is None) ----------------
#
# Span args carry only deterministic values: byte counts and node names.
# QP numbers and WR ids come from process-global counters and would break
# byte-identity between two same-seed runs in one interpreter.

def _rpc_id(obs, payload) -> Optional[int]:
    """Correlation id for RPC-shaped payloads (anything with ``req_id``)."""
    return getattr(payload, "req_id", None) if obs is not None else None


def _tx_obs(obs, node, verb, size, service, stall, req_id, request) -> None:
    """Record the sender-NIC pipeline hold that just ended at ``sim.now``
    (``Resource.use`` holds exactly ``service`` after its grant)."""
    now = node.sim.now
    args = {"bytes": size}
    if stall:
        args["miss_stall"] = stall
    obs.span(f"nic.{node.name}.tx", verb, now - service, now, args)
    if req_id is not None:
        obs.rpc_stage(req_id, "req_tx" if request else "resp_tx", now,
                      {"miss_stall": stall} if stall else None)


def _rx_obs(obs, node, verb, size, service, req_id, request) -> None:
    """Record the receiver-NIC DMA/LLC deposit that just ended."""
    now = node.sim.now
    obs.span(f"nic.{node.name}.rx", verb, now - service, now, {"bytes": size})
    if req_id is not None:
        obs.rpc_stage(req_id, "req_dma" if request else "resp_dma", now)


def _wire_obs(obs, req_id, request, now) -> None:
    if req_id is not None:
        obs.rpc_stage(req_id, "req_wire" if request else "resp_wire", now)


# ---------------------------------------------------------------------------
# RDMA WRITE (one-sided)
# ---------------------------------------------------------------------------

def post_write(
    qp: QueuePair,
    local_addr: int,
    remote_addr: int,
    size: int,
    payload: Any = None,
    imm_data: Optional[int] = None,
    signaled: bool = True,
    wr_id: Optional[int] = None,
) -> WorkRequest:
    """One-sided RDMA write (``write`` or ``write_imm`` when ``imm_data``).

    ``payload`` is the object deposited at ``remote_addr`` in the target's
    object memory.  ``write_imm`` additionally consumes a receive WQE at the
    peer and generates a receive completion carrying ``imm_data`` — the
    mechanism Octopus' self-identified RPC relies on.
    """
    opcode = Opcode.WRITE_IMM if imm_data is not None else Opcode.WRITE
    _validate(qp, opcode, size)
    peer = qp.peer
    assert peer is not None  # _validate guarantees this for RC/UC
    peer.node.mr_table.check(remote_addr, max(size, 1), Access.REMOTE_WRITE)
    wr = WorkRequest(wr_id if wr_id is not None else next(_wr_ids), opcode, qp,
                     qp.node.sim.event())
    qp.sends_posted += 1
    qp.node.sim.process(
        _write_flow(qp, wr, local_addr, remote_addr, size, payload, imm_data, signaled),
        name=f"write.{wr.wr_id}",
    )
    return wr


def _write_flow(qp, wr, local_addr, remote_addr, size, payload, imm_data, signaled) -> Generator:
    sim = qp.node.sim
    fabric = qp.node.fabric
    peer = qp.peer
    target = peer.node
    verb = "write" if imm_data is None else "write_imm"
    obs = fabric.obs
    req_id = _rpc_id(obs, payload)
    request = req_id is not None and hasattr(payload, "rpc_type")
    yield sim.timeout(qp.node.nic.params.mmio_doorbell_ns)
    service, stall = yield from qp.node.nic.tx(_conn_key(qp), local_addr, size)
    if obs is not None:
        _tx_obs(obs, qp.node, verb, size, service, stall, req_id, request)
    if qp.transport.is_reliable:
        delivered = (not fabric.drops_packet(True)
                     or (yield from _rc_retransmit(qp, local_addr, size)))
        if not delivered:
            _complete(qp, wr, size, signaled, status="retry-exceeded")
            return
    elif fabric.drops_packet(False):
        # UC write lost in the fabric: the sender still completes (no acks
        # on unreliable transports); nothing lands at the target.
        _complete(qp, wr, size, signaled)
        return
    yield sim.timeout(fabric.params.latency_ns)
    if obs is not None:
        _wire_obs(obs, req_id, request, sim.now)
    service = yield from target.nic.rx_write(remote_addr, size)
    if obs is not None:
        _rx_obs(obs, target, verb, size, service, req_id, request)
    target.deliver_write(InboundWrite(remote_addr, size, payload, imm_data,
                                      qp.qp_num, sim.now))
    if imm_data is not None:
        wqe = peer.consume_recv_wqe()
        if wqe is None:
            peer.rnr_drops += 1
        else:
            peer.recv_cq.push(Completion(wqe.wr_id, Opcode.RECV, peer.qp_num, size,
                                         imm_data, payload, sim.now, "success",
                                         remote_addr))
    if qp.transport.is_reliable:
        yield sim.timeout(fabric.params.latency_ns)  # ACK return flight
    _complete(qp, wr, size, signaled)


# ---------------------------------------------------------------------------
# SEND / RECV (two-sided)
# ---------------------------------------------------------------------------

def post_recv(qp: QueuePair, addr: int, size: int, wr_id: Optional[int] = None) -> int:
    """Post a receive buffer; returns the WR id."""
    if size <= 0:
        raise VerbError("receive buffer must have positive size")
    qp.node.mr_table.check(addr, size, Access.LOCAL_WRITE)
    rid = wr_id if wr_id is not None else next(_wr_ids)
    qp.post_recv_wqe(RecvWqe(rid, addr, size))
    return rid


def post_send(
    qp: QueuePair,
    size: int,
    payload: Any = None,
    local_addr: Optional[int] = None,
    dest: Optional[AddressHandle] = None,
    signaled: bool = True,
    wr_id: Optional[int] = None,
) -> WorkRequest:
    """Two-sided send.  UD requires a ``dest`` address handle; connected
    transports send to their peer QP."""
    _validate(qp, Opcode.SEND, size)
    if qp.transport is Transport.UD:
        if dest is None:
            raise VerbError("UD send requires a destination address handle")
        dest_qp = _resolve_ud_destination(dest)
    else:
        if dest is not None:
            raise VerbError("connected transports send only to their peer")
        dest_qp = qp.peer
    wr = WorkRequest(wr_id if wr_id is not None else next(_wr_ids), Opcode.SEND, qp,
                     qp.node.sim.event())
    qp.sends_posted += 1
    qp.node.sim.process(
        _send_flow(qp, wr, dest_qp, size, payload, local_addr, signaled),
        name=f"send.{wr.wr_id}",
    )
    return wr


def _resolve_ud_destination(dest: AddressHandle) -> QueuePair:
    for qp in dest.node.qps:
        if qp.qp_num == dest.qp_num:
            if qp.transport is not Transport.UD:
                raise VerbError("address handle does not reference a UD QP")
            return qp
    raise VerbError(f"no QP {dest.qp_num} on node {dest.node.name}")


def _send_flow(qp, wr, dest_qp, size, payload, local_addr, signaled) -> Generator:
    sim = qp.node.sim
    fabric = qp.node.fabric
    target = dest_qp.node
    obs = fabric.obs
    req_id = _rpc_id(obs, payload)
    request = req_id is not None and hasattr(payload, "rpc_type")
    yield sim.timeout(qp.node.nic.params.mmio_doorbell_ns)
    service, stall = yield from qp.node.nic.tx(_conn_key(qp), local_addr, size)
    if obs is not None:
        _tx_obs(obs, qp.node, "send", size, service, stall, req_id, request)
    if qp.transport.is_reliable:
        delivered = (not fabric.drops_packet(True)
                     or (yield from _rc_retransmit(qp, local_addr, size)))
        if not delivered:
            _complete(qp, wr, size, signaled, status="retry-exceeded")
            return
    elif fabric.drops_packet(False):
        _complete(qp, wr, size, signaled)
        return
    yield sim.timeout(fabric.params.latency_ns)
    if obs is not None:
        _wire_obs(obs, req_id, request, sim.now)
    wqe = dest_qp.consume_recv_wqe()
    if wqe is None and qp.transport.is_reliable and qp.rnr_retry > 0:
        # RC responder-not-ready: the responder RNR-NAKs and the sender
        # backs off and reposts, up to rnr_retry times.
        for _attempt in range(qp.rnr_retry):
            qp.rnr_retries += 1
            yield sim.timeout(qp.rnr_timeout_ns)
            wqe = dest_qp.consume_recv_wqe()
            if wqe is not None:
                break
        if wqe is None:
            qp.retry_exhausted += 1
            qp.to_error()
            yield from target.nic.rx_control()
            _complete(qp, wr, size, signaled, status="rnr-retry-exceeded")
            return
    if wqe is None:
        # Receiver not ready.  Unreliable transports drop silently; an RC
        # sender with rnr_retry == 0 keeps the historical silent-drop
        # behavior — surface it as a drop counter either way.
        dest_qp.rnr_drops += 1
        yield from target.nic.rx_control()
    else:
        if size > wqe.length:
            raise VerbError(
                f"{size}-byte send overflows {wqe.length}-byte receive buffer"
            )
        service = yield from target.nic.rx_write(wqe.addr, size)
        if obs is not None:
            _rx_obs(obs, target, "send", size, service, req_id, request)
        target.deliver_write(InboundWrite(wqe.addr, size, payload, None,
                                          qp.qp_num, sim.now))
        dest_qp.recv_cq.push(Completion(wqe.wr_id, Opcode.RECV, dest_qp.qp_num, size,
                                        None, payload, sim.now, "success", wqe.addr))
    if qp.transport.is_reliable:
        yield sim.timeout(fabric.params.latency_ns)
    _complete(qp, wr, size, signaled)


# ---------------------------------------------------------------------------
# RDMA READ (one-sided)
# ---------------------------------------------------------------------------

#: Wire size of a READ request / atomic request packet (headers only).
_CONTROL_BYTES = 16


def post_read(
    qp: QueuePair,
    local_addr: int,
    remote_addr: int,
    size: int,
    signaled: bool = True,
    wr_id: Optional[int] = None,
    scatter: Optional[list[tuple[int, int]]] = None,
) -> WorkRequest:
    """One-sided RDMA read; the completion's ``payload`` carries the object
    stored at ``remote_addr`` on the target.

    ``scatter`` optionally lists local ``(addr, size)`` landing segments
    (scatter-gather DMA); when given it replaces the contiguous landing at
    ``local_addr`` for cache-accounting purposes.
    """
    _validate(qp, Opcode.READ, size)
    peer = qp.peer
    assert peer is not None
    peer.node.mr_table.check(remote_addr, max(size, 1), Access.REMOTE_READ)
    if scatter is not None:
        if sum(seg_size for _addr, seg_size in scatter) > size:
            raise VerbError("scatter segments exceed the read size")
        for seg_addr, seg_size in scatter:
            qp.node.mr_table.check(seg_addr, max(seg_size, 1), Access.LOCAL_WRITE)
    wr = WorkRequest(wr_id if wr_id is not None else next(_wr_ids), Opcode.READ, qp,
                     qp.node.sim.event())
    qp.sends_posted += 1
    qp.node.sim.process(
        _read_flow(qp, wr, local_addr, remote_addr, size, signaled, scatter),
        name=f"read.{wr.wr_id}",
    )
    return wr


def _read_flow(qp, wr, local_addr, remote_addr, size, signaled, scatter=None) -> Generator:
    sim = qp.node.sim
    fabric = qp.node.fabric
    target = qp.peer.node
    obs = fabric.obs
    yield sim.timeout(qp.node.nic.params.mmio_doorbell_ns)
    service, stall = yield from qp.node.nic.tx(_conn_key(qp), None, 0)
    if obs is not None:
        _tx_obs(obs, qp.node, "read", 0, service, stall, None, False)
    yield sim.timeout(fabric.transfer_ns(_CONTROL_BYTES))
    service = yield from target.nic.serve_read(remote_addr, size)
    if obs is not None:
        _rx_obs(obs, target, "serve_read", size, service, None, False)
    yield sim.timeout(fabric.params.latency_ns)
    if scatter is not None:
        service = yield from qp.node.nic.rx_write_scatter(scatter)
    else:
        service = yield from qp.node.nic.rx_write(local_addr, size)
    if obs is not None:
        _rx_obs(obs, qp.node, "read", size, service, None, False)
    payload = target.load(remote_addr)
    qp.node.store(local_addr, payload)
    _complete(qp, wr, size, signaled, payload=payload)


# ---------------------------------------------------------------------------
# ATOMICS (RC only)
# ---------------------------------------------------------------------------

def post_cas(
    qp: QueuePair,
    local_addr: int,
    remote_addr: int,
    compare: int,
    swap: int,
    signaled: bool = True,
    wr_id: Optional[int] = None,
) -> WorkRequest:
    """Atomic compare-and-swap on an 8-byte remote word.  The completion
    payload is the *old* value (swap succeeded iff old == compare)."""
    return _post_atomic(qp, local_addr, remote_addr, ("cas", compare, swap),
                        signaled, wr_id)


def post_fetch_add(
    qp: QueuePair,
    local_addr: int,
    remote_addr: int,
    delta: int,
    signaled: bool = True,
    wr_id: Optional[int] = None,
) -> WorkRequest:
    """Atomic fetch-and-add on an 8-byte remote word; payload = old value."""
    return _post_atomic(qp, local_addr, remote_addr, ("fadd", delta, 0),
                        signaled, wr_id)


def _post_atomic(qp, local_addr, remote_addr, op, signaled, wr_id) -> WorkRequest:
    _validate(qp, Opcode.ATOMIC, 8)
    peer = qp.peer
    assert peer is not None
    peer.node.mr_table.check(remote_addr, 8, Access.REMOTE_ATOMIC)
    wr = WorkRequest(wr_id if wr_id is not None else next(_wr_ids), Opcode.ATOMIC, qp,
                     qp.node.sim.event())
    qp.sends_posted += 1
    qp.node.sim.process(
        _atomic_flow(qp, wr, local_addr, remote_addr, op, signaled),
        name=f"atomic.{wr.wr_id}",
    )
    return wr


def _atomic_flow(qp, wr, local_addr, remote_addr, op, signaled) -> Generator:
    sim = qp.node.sim
    fabric = qp.node.fabric
    target = qp.peer.node
    obs = fabric.obs
    yield sim.timeout(qp.node.nic.params.mmio_doorbell_ns)
    service, stall = yield from qp.node.nic.tx(_conn_key(qp), None, 0)
    if obs is not None:
        _tx_obs(obs, qp.node, "atomic", 0, service, stall, None, False)
    yield sim.timeout(fabric.transfer_ns(_CONTROL_BYTES))
    # The target NIC executes the atomic against memory; this is the
    # serialization point, so it happens inside the pipeline hold.
    yield from target.nic.rx_control()
    kind, a, b = op
    old = target.load(remote_addr, 0)
    if not isinstance(old, int):
        raise VerbError(f"atomic on non-integer word at {remote_addr:#x}")
    if kind == "cas":
        if old == a:
            target.store(remote_addr, b)
    else:  # fadd
        target.store(remote_addr, old + a)
    yield sim.timeout(fabric.transfer_ns(8))
    yield from qp.node.nic.rx_write(local_addr, 8)
    qp.node.store(local_addr, old)
    _complete(qp, wr, 8, signaled, payload=old)
