"""Queue pairs.

A QP is the unit of NIC connection state: for connected transports (RC/UC)
one QP per peer, which is precisely what overflows the NIC cache at scale;
for UD a single QP converses with any peer via address handles — the
property FaSST exploits.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .cq import CompletionQueue
from .types import Transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import Node

__all__ = [
    "QpState",
    "QpError",
    "QueuePair",
    "AddressHandle",
    "RecvWqe",
    "ALLOWED_TRANSITIONS",
]


#: The receive queue of a QP that has never had a buffer posted: the
#: WRITE- and READ-based systems post none, so theirs stays unbuilt.
_NO_RECVS_POSTED: tuple = ()


class QpError(RuntimeError):
    """Raised on illegal QP usage (bad state, wrong transport, ...)."""


class QpState(enum.Enum):
    """Lifecycle states (the useful subset of the verbs state machine)."""

    RESET = "RESET"
    INIT = "INIT"
    RTR = "RTR"  # ready to receive
    RTS = "RTS"  # ready to send
    ERROR = "ERROR"


#: Legal state transitions (verbs modify-QP order, collapsed to the subset
#: this model uses: ``connect()`` takes INIT straight to RTS).  Any state
#: may fall to ERROR; ERROR resets to RESET.
ALLOWED_TRANSITIONS: frozenset[tuple[QpState, QpState]] = frozenset(
    {
        (QpState.RESET, QpState.INIT),
        (QpState.INIT, QpState.RTR),
        (QpState.INIT, QpState.RTS),
        (QpState.RTR, QpState.RTS),
        (QpState.ERROR, QpState.RESET),
    }
    | {(state, QpState.ERROR) for state in QpState if state is not QpState.ERROR}
)


@dataclass(frozen=True)
class AddressHandle:
    """Datagram destination: a (node, qp number) pair for UD sends."""

    node: "Node"
    qp_num: int


@dataclass
class RecvWqe:
    """A posted receive buffer awaiting an incoming send."""

    wr_id: int
    addr: int
    length: int


_qp_numbers = itertools.count(1)
_RTS = QpState.RTS  # alias: Enum class attributes are slow


class QueuePair:
    """One queue pair on a node.

    Connected transports must be ``connect()``-ed to a peer QP before
    sending; UD QPs go to RTS immediately and address sends explicitly.
    """

    def __init__(
        self,
        node: "Node",
        transport: Transport,
        send_cq: Optional[CompletionQueue] = None,
        recv_cq: Optional[CompletionQueue] = None,
        max_send_wr: int = 128,
        max_recv_wr: int = 1024,
    ):
        self.node = node
        self.transport = transport
        self.qp_num = next(_qp_numbers)
        # Explicit None checks: an empty CompletionQueue is falsy (__len__).
        if send_cq is None:
            send_cq = CompletionQueue(node.sim, name=f"qp{self.qp_num}.scq")
        if recv_cq is None:
            recv_cq = CompletionQueue(node.sim, name=f"qp{self.qp_num}.rcq")
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        send_cq.attach_qp(self)
        if recv_cq is not send_cq:
            recv_cq.attach_qp(self)
        self.max_send_wr = max_send_wr
        self.max_recv_wr = max_recv_wr
        self.recv_queue: deque[RecvWqe] = _NO_RECVS_POSTED
        self.peer: Optional["QueuePair"] = None
        # UD QPs are send-ready immediately; connected QPs must connect().
        self._state = QpState.RTS if transport is Transport.UD else QpState.INIT
        # Book-keeping used by experiments (and checked by SimSanitizer:
        # recvs_posted == recvs_consumed + len(recv_queue) at all times).
        self.sends_posted = 0
        self.recvs_posted = 0
        self.recvs_consumed = 0
        self.rnr_drops = 0
        # Reliable-transport retry attributes (ibv_qp_attr analogues).
        # retry_cnt bounds fabric-loss retransmits; rnr_retry bounds
        # receiver-not-ready retries (0 keeps the historical silent-drop
        # behavior); both exhaust into ERROR, like hardware.
        self.retry_cnt = 7
        self.rnr_retry = 0
        self.timeout_ns = 16_000
        self.rnr_timeout_ns = 12_000
        self.retransmits = 0
        self.rnr_retries = 0
        self.retry_exhausted = 0

    @property
    def state(self) -> QpState:
        return self._state

    @state.setter
    def state(self, new_state: QpState) -> None:
        if new_state is self._state:
            return
        if (self._state, new_state) not in ALLOWED_TRANSITIONS:
            raise QpError(
                f"illegal QP state transition {self._state.value} -> "
                f"{new_state.value} on QP {self.qp_num}"
            )
        self._state = new_state

    def __repr__(self) -> str:
        peer = self.peer.qp_num if self.peer else None
        return f"<QP {self.qp_num} {self.transport.value} on {self.node.name} peer={peer}>"

    @property
    def is_ready(self) -> bool:
        return self._state is _RTS

    def connect(self, peer: "QueuePair") -> None:
        """Connect two RC/UC QPs (both transition to RTS)."""
        if self.transport is Transport.UD:
            raise QpError("UD queue pairs are connectionless")
        if peer.transport is not self.transport:
            raise QpError(
                f"transport mismatch: {self.transport.value} vs {peer.transport.value}"
            )
        if self.peer is not None or peer.peer is not None:
            raise QpError("queue pair already connected")
        if peer.node is self.node:
            raise QpError("cannot connect a queue pair to its own node")
        self.peer = peer
        peer.peer = self
        self.state = QpState.RTS
        peer.state = QpState.RTS

    def address_handle(self) -> AddressHandle:
        """An address handle peers can use to UD-send to this QP."""
        if self.transport is not Transport.UD:
            raise QpError("address handles are a UD concept")
        return AddressHandle(self.node, self.qp_num)

    def to_error(self) -> None:
        """Force the QP into ERROR (CQ overrun, async fatal events)."""
        if self._state is not QpState.ERROR:
            self.state = QpState.ERROR

    def reset(self) -> None:
        """Recover an errored QP: ERROR -> RESET -> INIT (the modify-QP
        cycle a reconnect drives).  Unlinks the peer on both sides so a
        fresh ``connect()`` is legal; UD QPs go straight back to RTS."""
        if self._state is not QpState.ERROR:
            raise QpError(
                f"reset() is error recovery; QP {self.qp_num} is in "
                f"{self._state.value}"
            )
        peer = self.peer
        if peer is not None:
            peer.peer = None
            self.peer = None
        self.state = QpState.RESET
        self.state = QpState.INIT
        if self.transport is Transport.UD:
            self.state = QpState.RTS

    def close(self) -> None:
        """Tear the QP down (``ibv_destroy_qp`` analogue).

        Receive-WQE conservation is asserted always-on here (graduated
        from SimSanitizer): every posted buffer is either consumed or
        still queued — a mismatch means a receive was lost or double
        counted somewhere upstream.
        """
        assert self.recvs_posted == self.recvs_consumed + len(self.recv_queue), (
            f"QP {self.qp_num}: recv WQE conservation broken at teardown: "
            f"posted={self.recvs_posted} != consumed={self.recvs_consumed} "
            f"+ queued={len(self.recv_queue)}"
        )
        self.to_error()

    def post_recv_wqe(self, wqe: RecvWqe) -> None:
        """Queue a receive buffer (``ibv_post_recv``)."""
        if len(self.recv_queue) >= self.max_recv_wr:
            raise QpError(f"receive queue full on QP {self.qp_num}")
        if self.recv_queue is _NO_RECVS_POSTED:
            self.recv_queue = deque()
        self.recv_queue.append(wqe)
        self.recvs_posted += 1

    def consume_recv_wqe(self) -> Optional[RecvWqe]:
        """Pop the next receive buffer, or None when the RQ is empty."""
        if not self.recv_queue:
            return None
        self.recvs_consumed += 1
        return self.recv_queue.popleft()
