"""The verb layer: post_send / post_recv / write / read / atomics.

Each ``post_*`` call validates the request against the Table-1 capability
matrix and the target's memory regions, then starts a flow — one
:class:`~repro.sim.engine.Continuation` per work request, stepped by the
kernel — that walks the message through the paper's Figure-2 flow:

1. CPU rings the doorbell (MMIO),
2. sender NIC processes the WQE (connection-cache access, payload DMA read),
3. the fabric carries the packet,
4. the receiver NIC deposits the payload (DMA write through the LLC/DDIO),
5. completion (for RC, after the ACK's return flight).

``post_*`` returns a :class:`WorkRequest` immediately; its ``completion``
event triggers when the verb finishes, and signaled requests additionally
push a CQE to the QP's send CQ.  A program that consumes ``wr.completion``
therefore posts unsignaled, or polls the CQE, lest it pile up unread.
One-sided writes wake any watchers on the target range, standing in for the
remote CPU's polling loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..sim.engine import Continuation, Event
from ..sim.resources import Resource
from .cq import Completion
from .mr import Access
from .node import InboundWrite
from .qp import AddressHandle, QpError, QueuePair, RecvWqe
from .types import Opcode, Transport, max_message_size, supports

__all__ = ["VerbError", "WorkRequest", "post_send", "post_recv", "post_write",
           "post_read", "post_cas", "post_fetch_add"]

_wr_ids = itertools.count(1)
_WRITE, _WRITE_IMM, _SEND, _RECV = Opcode.WRITE, Opcode.WRITE_IMM, Opcode.SEND, Opcode.RECV
_READ, _ATOMIC = Opcode.READ, Opcode.ATOMIC  # aliases: Enum class attributes are slow
_LOCAL_WRITE, _REMOTE_READ = Access.LOCAL_WRITE, Access.REMOTE_READ
_REMOTE_WRITE, _REMOTE_ATOMIC = Access.REMOTE_WRITE, Access.REMOTE_ATOMIC


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


# -- observability hooks (zero-cost while fabric.obs is None) ----------------
#
# Span args carry only deterministic values: byte counts and node names.
# QP numbers and WR ids come from process-global counters and would break
# byte-identity between two same-seed runs in one interpreter.

def _rx_obs(obs, node, verb, size, service, req_id, request) -> None:
    """Record the receiver-NIC DMA/LLC deposit that just ended."""
    now = node.sim.now
    obs.span(f"nic.{node.name}.rx", verb, now - service, now, {"bytes": size})
    if req_id is not None:
        obs.rpc_stage(req_id, "req_dma" if request else "resp_dma", now)


class _Flow(Continuation):
    """One work request on its way through the Figure-2 flow.

    The methods taking only ``self`` are its steps; ``step`` holds the
    plain function ``_Flow.<step>``.  ``peer``/``target``: the target QP
    and node; ``arrive``: the step run on reaching the target; ``arg``: a
    write's immediate, a read's scatter list, an atomic's ``(kind, a, b)``,
    a send's receive WQE; ``res``/``hold``/``then``: the pipeline hold and
    the step after it; ``left``: retries left (None before any loss).
    """

    __slots__ = ("qp", "wr", "bare", "size", "signaled", "local_addr", "remote_addr",
                 "payload", "peer", "target", "arrive", "arg", "obs", "req_id", "request",
                 "res", "hold", "then", "stall", "left")

    def __init__(self, qp: QueuePair, opcode: Opcode, wr_id: Optional[int], size: int,
                 signaled: bool, arrive: Callable[["_Flow"], None],
                 local_addr: Optional[int], remote_addr: Optional[int] = None,
                 payload: Any = None, peer: Optional[QueuePair] = None, arg: Any = None):
        self.sim = sim = qp.node.sim
        self.wr = WorkRequest(wr_id if wr_id is not None else next(_wr_ids), opcode, qp,
                              Event(sim))
        qp.sends_posted += 1
        self.bare = opcode is _READ or opcode is _ATOMIC  # a request with no payload
        self.qp, self.size, self.signaled, self.left = qp, size, signaled, None
        self.local_addr, self.remote_addr, self.payload = local_addr, remote_addr, payload
        self.arrive, self.peer, self.arg = arrive, peer, arg
        self.step = _Flow.start
        sim._schedule(sim.now, self)

    @property
    def name(self) -> str:
        """Actor name for the model checker: verb and WR id (``write.17``)."""
        return f"{self.wr.opcode.value.split('_')[0]}.{self.wr.wr_id}"

    def use(self, pipeline: Resource, hold: int, then: Callable[["_Flow"], None]) -> None:
        """Hold ``pipeline`` for ``hold`` ns, then run ``then``: the two
        hops of ``Resource.use``, the grant and the end of the hold."""
        self.res = pipeline
        self.hold = hold
        self.then = then
        self.step = _Flow.granted
        pipeline.acquire(self)

    def granted(self) -> None:
        self.step = _Flow.held
        sim = self.sim
        sim._schedule(sim.now + self.hold, self)

    def held(self) -> None:
        self.res.release()
        self.then(self)

    def complete(self, status: str = "success", payload: Any = None) -> None:
        qp = self.qp
        wr = self.wr
        completion = Completion(wr.wr_id, wr.opcode, qp.qp_num, self.size, None,
                                payload, self.sim.now, status)
        if self.signaled:
            qp.send_cq.push(completion)
        wr.completion.succeed(completion)

    # -- the sender half, shared by every verb (Figure 2 steps 1-3) --------

    def start(self) -> None:
        """The bootstrap hop: read the target and the observer, then ring
        the doorbell."""
        qp = self.qp
        peer = self.peer
        if peer is None:  # only a send names its destination QP at post
            peer = self.peer = qp.peer
        self.target = peer.node
        obs = self.obs = qp.node.fabric.obs
        if obs is not None:  # RPC-shaped payloads (with a req_id) get stages
            req_id = self.req_id = getattr(self.payload, "req_id", None)
            self.request = req_id is not None and hasattr(self.payload, "rpc_type")
        self.after(qp.node.nic.params.mmio_doorbell_ns, _Flow.tx)

    def tx(self) -> None:
        """Sender-NIC WQE processing: QP-state cache (keyed per QP; a UD
        QP's one context stays resident), payload DMA read."""
        qp = self.qp
        nic = qp.node.nic
        key = qp.qp_num if qp.transport.is_connected else None
        if self.bare:
            service, self.stall = nic.tx(key, None, 0)
        else:
            service, self.stall = nic.tx(key, self.local_addr, self.size)
        self.use(nic.pipeline, service, _Flow.sent)

    def sent(self) -> None:
        """The packet leaves the sender.  RC may lose it: the sender waits
        out its ACK timeout and retransmits (re-paying the WQE processing)
        up to ``retry_cnt`` times, and exhaustion errors the QP — the
        hardware's IBV_WC_RETRY_EXC_ERR.  UC/UD lose it silently and the
        sender completes anyway.  A loss rate of 0 draws no RNG."""
        qp = self.qp
        fabric = qp.node.fabric
        bare = self.bare
        first = self.left is None  # not a retransmission
        obs = self.obs
        if obs is not None and first:
            now = self.sim.now
            stall = self.stall
            args = {"bytes": 0 if bare else self.size}
            if stall:
                args["miss_stall"] = stall
            obs.span(f"nic.{qp.node.name}.tx", self.wr.opcode.value, now - self.hold, now, args)
            if self.req_id is not None:
                obs.rpc_stage(self.req_id, "req_tx" if self.request else "resp_tx", now,
                              {"miss_stall": stall} if stall else None)
        if bare:
            self.after(fabric.transfer_ns(_CONTROL_BYTES), self.arrive)
        elif (reliable := qp.transport.is_reliable) and fabric.drops_packet(True):
            left = qp.retry_cnt if first else self.left
            if left <= 0:
                qp.retry_exhausted += 1
                qp.to_error()
                self.complete("retry-exceeded")
            else:
                self.left = left - 1
                qp.retransmits += 1
                self.after(qp.timeout_ns, _Flow.tx)
        elif not reliable and fabric.drops_packet(False):
            self.complete()
        else:
            self.after(fabric.params.latency_ns, self.arrive)

    def ack(self) -> None:
        """Complete after the ACK's return flight on RC, at once otherwise."""
        qp = self.qp
        if qp.transport.is_reliable:
            self.after(qp.node.fabric.params.latency_ns, _Flow.complete)
        else:
            self.complete()

    # -- WRITE and SEND: the payload lands through the LLC/DDIO (step 4) --

    def write_arrive(self) -> None:
        if self.obs is not None and self.req_id is not None:
            self.obs.rpc_stage(self.req_id, "req_wire" if self.request else "resp_wire", self.sim.now)
        nic = self.target.nic
        self.use(nic.pipeline, nic.rx_write(self.remote_addr, self.size), _Flow.landed)

    def landed(self) -> None:
        """A write's or send's payload is in target memory: wake its
        watchers, post the receive completion if one is due, then ACK."""
        target, peer, size, payload = self.target, self.peer, self.size, self.payload
        now = self.sim.now
        if self.obs is not None:
            _rx_obs(self.obs, target, self.wr.opcode.value, size, self.hold,
                    self.req_id, self.request)
        if self.wr.opcode is _SEND:  # its receive WQE was taken on arrival
            wqe, imm_data = self.arg, None
            addr = wqe.addr
        else:
            wqe, imm_data, addr = None, self.arg, self.remote_addr
        target.deliver_write(InboundWrite(addr, size, payload, imm_data, self.qp.qp_num, now))
        if imm_data is not None:
            wqe = peer.consume_recv_wqe()
            if wqe is None:
                peer.rnr_drops += 1
        if wqe is not None:
            peer.recv_cq.push(Completion(wqe.wr_id, _RECV, peer.qp_num, size,
                                         imm_data, payload, now, "success", addr))
        self.ack()

    # -- SEND: consume a receive WQE at the destination -------------------

    def send_arrive(self) -> None:
        if self.obs is not None and self.req_id is not None:
            self.obs.rpc_stage(self.req_id, "req_wire" if self.request else "resp_wire", self.sim.now)
        qp = self.qp
        if qp.transport.is_reliable and qp.rnr_retry > 0:
            # RC responder-not-ready: the responder RNR-NAKs and the sender
            # backs off and reposts, up to rnr_retry times.
            self.left = qp.rnr_retry
            self.rnr_retry()
        else:
            self.send_land(self.peer.consume_recv_wqe())

    def rnr_retry(self) -> None:
        wqe = self.peer.consume_recv_wqe()
        qp = self.qp
        if wqe is not None:
            self.send_land(wqe)
        elif self.left > 0:
            self.left -= 1
            qp.rnr_retries += 1
            self.after(qp.rnr_timeout_ns, _Flow.rnr_retry)
        else:
            qp.retry_exhausted += 1
            qp.to_error()
            nic = self.target.nic
            self.use(nic.pipeline, nic.rx_control(), _Flow.rnr_exceeded)

    def rnr_exceeded(self) -> None:
        self.complete("rnr-retry-exceeded")

    def send_land(self, wqe: Optional[RecvWqe]) -> None:
        nic = self.target.nic
        if wqe is None:
            # Receiver not ready.  Unreliable transports drop silently; an RC
            # sender with rnr_retry == 0 keeps the historical silent-drop
            # behavior — surface it as a drop counter either way.
            self.peer.rnr_drops += 1
            self.use(nic.pipeline, nic.rx_control(), _Flow.ack)
            return
        if self.size > wqe.length:
            raise VerbError(
                f"{self.size}-byte send overflows {wqe.length}-byte receive buffer"
            )
        self.arg = wqe
        self.use(nic.pipeline, nic.rx_write(wqe.addr, self.size), _Flow.landed)

    # -- READ: served by the target NIC, landed back at the initiator -----

    def read_arrive(self) -> None:
        nic = self.target.nic
        self.use(nic.pipeline, nic.serve_read(self.remote_addr, self.size), _Flow.read_served)

    def read_served(self) -> None:
        if self.obs is not None:
            _rx_obs(self.obs, self.target, "serve_read", self.size, self.hold, None, False)
        self.after(self.qp.node.fabric.params.latency_ns, _Flow.read_returned)

    def read_returned(self) -> None:
        nic = self.qp.node.nic
        scatter = self.arg
        hold = (nic.rx_write(self.local_addr, self.size) if scatter is None
                else nic.rx_write_scatter(scatter))
        self.use(nic.pipeline, hold, _Flow.read_landed)

    def read_landed(self) -> None:
        node = self.qp.node
        if self.obs is not None:
            _rx_obs(self.obs, node, "read", self.size, self.hold, None, False)
        payload = self.target.load(self.remote_addr)
        node.land_read(self.local_addr, payload)
        self.complete(payload=payload)

    # -- ATOMIC: executed by the target NIC inside its pipeline hold -------

    def atomic_arrive(self) -> None:
        nic = self.target.nic
        self.use(nic.pipeline, nic.rx_control(), _Flow.atomic_execute)

    def atomic_execute(self) -> None:
        target = self.target
        remote_addr = self.remote_addr
        kind, a, b = self.arg
        old = target.load(remote_addr, 0)
        if not isinstance(old, int):
            raise VerbError(f"atomic on non-integer word at {remote_addr:#x}")
        if kind == "cas":
            if old == a:
                target.store(remote_addr, b)
        else:  # fadd
            target.store(remote_addr, old + a)
        self.payload = old
        self.after(self.qp.node.fabric.transfer_ns(8), _Flow.atomic_returned)

    def atomic_returned(self) -> None:
        nic = self.qp.node.nic
        self.use(nic.pipeline, nic.rx_write(self.local_addr, 8), _Flow.atomic_landed)

    def atomic_landed(self) -> None:
        self.qp.node.store(self.local_addr, self.payload)
        self.complete(payload=self.payload)


#: Wire size of a READ request / atomic request packet (headers only).
_CONTROL_BYTES = 16


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
    opcode = _WRITE_IMM if imm_data is not None else _WRITE
    _validate(qp, opcode, size)
    peer = qp.peer
    assert peer is not None  # _validate guarantees this for RC/UC
    peer.node.mr_table.check(remote_addr, max(size, 1), _REMOTE_WRITE)
    return _Flow(qp, opcode, wr_id, size, signaled, _Flow.write_arrive, local_addr,
                 remote_addr, payload, arg=imm_data).wr


# ---------------------------------------------------------------------------
# SEND / RECV (two-sided)
# ---------------------------------------------------------------------------

def post_recv(qp: QueuePair, addr: int, size: int, wr_id: Optional[int] = None) -> int:
    """Post a receive buffer; returns the WR id."""
    if size <= 0:
        raise VerbError("receive buffer must have positive size")
    qp.node.mr_table.check(addr, size, _LOCAL_WRITE)
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
    _validate(qp, _SEND, size)
    if qp.transport is Transport.UD:
        if dest is None:
            raise VerbError("UD send requires a destination address handle")
        dest_qp = _resolve_ud_destination(dest)
    else:
        if dest is not None:
            raise VerbError("connected transports send only to their peer")
        dest_qp = qp.peer
    return _Flow(qp, _SEND, wr_id, size, signaled, _Flow.send_arrive, local_addr,
                 payload=payload, peer=dest_qp).wr


def _resolve_ud_destination(dest: AddressHandle) -> QueuePair:
    for qp in dest.node.qps:
        if qp.qp_num == dest.qp_num:
            if qp.transport is not Transport.UD:
                raise VerbError("address handle does not reference a UD QP")
            return qp
    raise VerbError(f"no QP {dest.qp_num} on node {dest.node.name}")


# ---------------------------------------------------------------------------
# RDMA READ (one-sided)
# ---------------------------------------------------------------------------

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
    _validate(qp, _READ, size)
    peer = qp.peer
    assert peer is not None
    peer.node.mr_table.check(remote_addr, max(size, 1), _REMOTE_READ)
    if scatter is not None:
        if sum(seg_size for _addr, seg_size in scatter) > size:
            raise VerbError("scatter segments exceed the read size")
        for seg_addr, seg_size in scatter:
            qp.node.mr_table.check(seg_addr, max(seg_size, 1), _LOCAL_WRITE)
    return _Flow(qp, _READ, wr_id, size, signaled, _Flow.read_arrive, local_addr,
                 remote_addr, arg=scatter).wr


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
    _validate(qp, _ATOMIC, 8)
    peer = qp.peer
    assert peer is not None
    peer.node.mr_table.check(remote_addr, 8, _REMOTE_ATOMIC)
    return _Flow(qp, _ATOMIC, wr_id, 8, signaled, _Flow.atomic_arrive, local_addr,
                 remote_addr, arg=op).wr
