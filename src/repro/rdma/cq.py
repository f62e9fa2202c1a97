"""Completion queues.

Verbs that complete push a :class:`Completion` into a CQ.  Applications
either poll non-blockingly (``poll``, the ``ibv_poll_cq`` analogue — the
mode whose CPU cost makes UD clients expensive in the paper's Figure 8) or,
inside simulation processes, wait on ``get_event()``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..sim.engine import Event, Simulator
from ..sim.resources import Store
from .types import Opcode

__all__ = ["Completion", "CompletionQueue"]


class Completion(NamedTuple):
    """One completion-queue entry (built positionally on the data path)."""

    wr_id: int
    opcode: Opcode
    qp_num: int
    byte_len: int = 0
    imm_data: Optional[int] = None
    payload: object = None
    timestamp_ns: int = 0
    status: str = "success"
    #: Receive completions: the buffer address the payload landed at.
    addr: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == "success"


#: Default CQ depth.  Real CQs are created with a fixed ``cqe`` count and
#: overrun (IBV_EVENT_CQ_ERR) when the application stops polling; our
#: Store is unbounded, so by default the depth is an accounting limit
#: that SimSanitizer enforces.  With ``overrun_fatal=True`` the real
#: failure mode is modelled: the overflowing completion is lost and every
#: attached QP transitions to ERROR.
DEFAULT_CQ_DEPTH = 1 << 16


class CompletionQueue:
    """A FIFO of completions with both polling and event interfaces."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "",
        depth: int = DEFAULT_CQ_DEPTH,
        overrun_fatal: bool = False,
    ):
        if depth < 1:
            raise ValueError(f"CQ depth must be >= 1, got {depth}")
        self.sim = sim
        self.name = name
        self.depth = depth
        self.overrun_fatal = overrun_fatal
        self._store = Store(sim, name=name)
        self.pushed = 0
        self.polled = 0
        #: Completions consumed through :meth:`get_event` (the blocking
        #: interface); ``pushed == polled + drained + len(self)`` always.
        self.drained = 0
        #: Completions lost to a fatal overrun (never counted in pushed).
        self.dropped = 0
        #: Latched once a fatal overrun occurred (IBV_EVENT_CQ_ERR).
        self.overran = False
        #: QPs using this CQ; taken to ERROR on a fatal overrun.
        self._qps: list = []

    def __len__(self) -> int:
        return len(self._store)

    def attach_qp(self, qp) -> None:
        """Register a QP as a user of this CQ (for overrun error fanout)."""
        self._qps.append(qp)

    def push(self, completion: Completion) -> None:
        """Deposit a completion (called by the verb layer)."""
        if self.overrun_fatal and len(self._store) >= self.depth:
            # CQ overrun: the HCA has nowhere to write the CQE.  Real
            # hardware raises IBV_EVENT_CQ_ERR and the associated QPs
            # enter the error state; the completion is lost.
            self.overran = True
            self.dropped += 1
            for qp in self._qps:
                qp.to_error()
            return
        self.pushed += 1
        self._store.put(completion)

    def poll(self, max_entries: int = 16) -> list[Completion]:
        """Non-blocking poll of up to ``max_entries`` completions."""
        out: list[Completion] = []
        while len(out) < max_entries:
            ok, item = self._store.try_get()
            if not ok:
                break
            out.append(item)
        self.polled += len(out)
        return out

    def get_event(self) -> Event:
        """Event triggering with the next completion (for sim processes)."""
        event = self._store.get()
        event.add_callback(self._count_drained)
        return event

    def _count_drained(self, event: Event) -> None:
        if event.ok:
            self.drained += 1
