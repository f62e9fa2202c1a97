"""The ScaleRPC client (RPCClient) and its state machine.

A client cycles through the paper's Figure-7 states:

- ``IDLE``    — not currently served; new requests are initialized locally.
- ``WARMUP``  — the client has announced a batch by RDMA-writing a
  ``<req_addr, batch_size>`` tuple to its endpoint entry; the server will
  fetch the requests with RDMA reads while another group is being served.
- ``PROCESS`` — the client's group holds the time slice; the first response
  carried a :class:`~repro.core.message.PoolBinding` and subsequent
  requests are RDMA-written straight into the processing pool.

A response flagged ``context_switch`` (or an explicit
:class:`~repro.core.message.ContextSwitchNotice`) sends the client back to
``IDLE``; any still-outstanding requests are re-announced automatically, so
calls survive races with the context switch (a request that lands in the
pool just after a switch is simply fetched again next round).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..rdma.mr import Access
from ..rdma.node import InboundWrite, Node
from ..rdma.qp import QueuePair
from ..rdma.verbs import post_write
from .api import QPC_SETUP_NS, RECONNECT_BACKOFF_NS, RECONNECT_MAX_ATTEMPTS, RpcClientApi
from .message import (
    ActivationNotice,
    ContextSwitchNotice,
    EndpointEntry,
    PoolBinding,
    RpcRequest,
    RpcResponse,
)
from .msgpool import BlockCursor
from .protocol import (
    ClientState,
    ProtocolEvent,
    client_transition,
    fresh_activation,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .server import ScaleRpcServer

__all__ = ["ClientState", "ScaleRpcClient"]

ENTRY_WIRE_BYTES = 16


class ScaleRpcClient(RpcClientApi):
    """One RPCClient endpoint.  Created via ``ScaleRpcServer.connect``."""

    def __init__(
        self,
        server: "ScaleRpcServer",
        machine: Node,
        client_id: int,
        qp: QueuePair,
    ):
        super().__init__(server, machine, client_id)
        self.qp = qp
        # The response ring (the server writes responses and notices into
        # it): a few blocks suffice (responses are consumed immediately);
        # a compact ring stays LLC-resident after one lap.
        self.responses = machine.register_memory(
            4 * server.config.block_size, access=Access.all_remote(), huge_pages=False
        )
        machine.watch_writes(self.responses.range, self._on_response)
        self.state = ClientState.IDLE
        self._binding: Optional[PoolBinding] = None
        self._cursor: Optional[BlockCursor] = None
        # Sequence number of the last activation we accepted; only a
        # strictly fresher one may rebind the cursor (protocol freshness
        # rule).  Never reset — stale pre-switch activations stay stale.
        self._bound_seq = -1
        self._announce_pending = False
        # Stats.
        self.failed_retries = 0
        self.announcements = 0
        self.switch_events = 0
        self.failovers = 0

    # -- public API ---------------------------------------------------------

    def flush(self) -> Generator:
        """Announce locally-initialized requests (enters WARMUP)."""
        if self.state is not ClientState.PROCESS and self._outstanding:
            yield from self.machine.cpu.use(self._post_ns)
            self._announce()
        return None

    def disconnect(self) -> None:
        """Leave the server (log out)."""
        self.server.disconnect(self.client_id)

    # -- fault plane / recovery (DESIGN.md section 10) ---------------------

    def _fault_qps(self) -> list:
        return [self.qp]

    def _recover(self) -> Generator:
        """Bounded reconnect + re-announce with exponential backoff.

        Each attempt first asks ``failover_fn`` for a *different* live
        server and fails over to it if there is one.  Otherwise it
        re-establishes the RC connection if it died (paying the
        Swift-style control-plane QPC setup cost through
        ``ScaleRpcServer.reestablish``), drops to IDLE through the
        RECONNECT protocol event, re-announces the outstanding batch, and
        waits one backoff period for progress.
        """
        if self._recovering:
            return
        self._recovering = True
        try:
            backoff = RECONNECT_BACKOFF_NS
            for _attempt in range(RECONNECT_MAX_ATTEMPTS):
                if self._stopped or self._crashed:
                    return
                if self.failover_fn is not None:
                    # Membership may have promoted a backup (before or
                    # while we were backing off against the dead
                    # endpoint): escalate to failover instead of burning
                    # the remaining attempts.
                    target = self.failover_fn(self)
                    if target is not None and target is not self.server:
                        self._recovering = False  # hand the guard over
                        yield from self.failover_to(target)
                        return
                if not self.qp.is_ready:
                    yield self.sim.timeout(QPC_SETUP_NS)
                    if self._crashed:
                        return
                    self.server.reestablish(self)
                    self.reconnects += 1
                    # A reconnect opens a new connection epoch: the server
                    # context may have been re-admitted with fresh
                    # activation numbering, so the freshness floor resets.
                    self._bound_seq = -1
                self.state = client_transition(
                    self.state, ProtocolEvent.RECONNECT
                )
                self._binding = None
                self._cursor = None
                if not self._outstanding:
                    self._progress_ns = self.sim.now
                    return
                yield from self.machine.cpu.use(self._post_ns)
                self._announce()
                completed_before = self.completed
                yield self.sim.timeout(backoff)
                if self.completed > completed_before or not self._outstanding:
                    self._progress_ns = self.sim.now
                    return
                backoff *= 2
        finally:
            self._recovering = False

    def failover_to(self, server: "ScaleRpcServer") -> Generator:
        """Re-home to a promoted backup (DESIGN.md section 15).

        Pays the control-plane QPC setup cost, asks the target to
        :meth:`~ScaleRpcServer.adopt` this client (fresh RC pair to the
        new node; ``self.server`` flips inside), drops to IDLE through
        the RECONNECT protocol event, and re-announces every outstanding
        request.  Reposts reuse the original :class:`RpcRequest` objects
        — same ``req_id``s — which is what the replica log's dedup keys
        on for exactly-once visible semantics.
        """
        if self._recovering:
            return
        if not getattr(server, "alive", True):
            return
        self._recovering = True
        try:
            yield self.sim.timeout(QPC_SETUP_NS)
            if self._crashed or self._stopped:
                return
            if not server.adopt(self):
                return  # target died while we were setting up; retry later
            self.reconnects += 1
            self.failovers += 1
            # A new server means new context metadata and activation
            # numbering: reset the freshness floor, like any reconnect.
            self._bound_seq = -1
            self.state = client_transition(self.state, ProtocolEvent.RECONNECT)
            self._binding = None
            self._cursor = None
            self._progress_ns = self.sim.now
            obs = self.machine.fabric.obs
            if obs is not None:
                for req_id in sorted(self._outstanding):
                    obs.rpc_stage(req_id, "failover", self.sim.now)
            if self._outstanding:
                yield from self.machine.cpu.use(self._post_ns)
                self._announce()
        finally:
            self._recovering = False

    # -- request posting ------------------------------------------------------

    def _post(self, request: RpcRequest) -> None:
        if self.state is ClientState.PROCESS:
            self._post_direct(request)
        # Otherwise the request stays local until flush() announces it.

    def _post_direct(self, request: RpcRequest) -> None:
        """RDMA-write one request into the processing pool (PROCESS state)."""
        if self._crashed or not self.qp.is_ready:
            # The connection is dead; the request stays outstanding and
            # the recovery path re-announces it after reconnect.
            return
        assert self._cursor is not None
        size = request.wire_bytes
        post_write(
            self.qp,
            local_addr=self.staging.range.base,
            remote_addr=self._cursor.next(size),
            size=size,
            payload=request,
            signaled=False,
        )

    def _announce(self) -> None:
        """Write the ``<req_addr, batch_size>`` endpoint entry (Fig. 6 step 2)."""
        if self._crashed or not self.qp.is_ready:
            return
        batch = [
            self._outstanding[req_id].request
            for req_id in sorted(self._outstanding)
        ]
        if not batch:
            return
        self.state = client_transition(self.state, ProtocolEvent.ANNOUNCE)
        self.machine.store(self.staging.range.base, batch)
        sizes = tuple(r.wire_bytes for r in batch)
        entry = EndpointEntry(
            client_id=self.client_id,
            req_addr=self.staging.range.base,
            batch_size=len(batch),
            total_bytes=sum(sizes),
            message_sizes=sizes,
        )
        post_write(
            self.qp,
            local_addr=self.staging.range.base,
            remote_addr=self.server.endpoint_addr(self.client_id),
            size=ENTRY_WIRE_BYTES,
            payload=entry,
            signaled=False,
        )
        self.announcements += 1

    #: Debounce before re-announcing after a context switch: responses for
    #: drained requests are still in flight and complete within ~an RTT.
    _REANNOUNCE_DELAY_NS = 3_000

    def _announce_proc(self) -> Generator:
        yield self.sim.timeout(self._REANNOUNCE_DELAY_NS)
        yield from self.machine.cpu.use(self._post_ns)
        self._announce_pending = False
        if self.state is not ClientState.PROCESS and self._outstanding:
            self._announce()

    def _repost_all(self) -> Generator:
        """Post every outstanding request directly (after activation)."""
        for req_id in sorted(self._outstanding):
            handle = self._outstanding.get(req_id)
            if handle is None or self.state is not ClientState.PROCESS:
                continue
            yield from self.machine.cpu.use(self._post_ns)
            self._post_direct(handle.request)
        return None

    def _repost_proc(self, request: RpcRequest) -> Generator:
        yield from self.machine.cpu.use(self._post_ns)
        if self.state is ClientState.PROCESS:
            self._post_direct(request)
        elif self._outstanding:
            self._announce()

    # -- inbound handling -------------------------------------------------

    def _on_response(self, event: InboundWrite) -> None:
        if self._stopped or self._crashed:
            # A stopped client's polling loop is gone (and a crashed
            # process reads nothing): the write lands in the response
            # ring and nobody ever reads it.
            return
        # The client's polling loop reads the arrived message, keeping the
        # response ring LLC-resident (promotes the lines out of the DDIO
        # write-allocate ways).
        self.machine.llc.cpu_access(event.addr, event.size)
        payload = event.payload
        if isinstance(payload, ContextSwitchNotice):
            self._enter_idle()
            return
        if isinstance(payload, ActivationNotice):
            if not self._bind(payload.binding):
                # Duplicate or stale activation (sequence number not
                # fresh): rebinding would reset the block cursor and a
                # second repost would overwrite requests the server has
                # not read yet.
                return
            if self._outstanding:
                self.sim.process(
                    self._repost_all(), name=f"c{self.client_id}.activate"
                )
            return
        if not isinstance(payload, RpcResponse):
            return
        if payload.binding is not None:
            self._bind(payload.binding)
        if payload.failed:
            self._handle_failed(payload)
        else:
            self._complete(payload)
        if payload.context_switch:
            self._enter_idle()

    def _bind(self, binding: PoolBinding) -> bool:
        """Accept a fresh activation (rebinding the block cursor) or drop
        a duplicate/stale one.  Returns True iff the binding was fresh."""
        if not fresh_activation(self._bound_seq, binding.seq):
            return False
        self._bound_seq = binding.seq
        self._binding = binding
        config = self.server.config
        self._cursor = BlockCursor(
            binding.slot_base, config.block_size, config.blocks_per_client
        )
        self.state = client_transition(self.state, ProtocolEvent.ACTIVATE)
        return True

    def _handle_failed(self, response: RpcResponse) -> None:
        """A long RPC was cut by a context switch; resend it (the server
        will run the retry in legacy mode)."""
        handle = self._outstanding.get(response.req_id)
        if handle is None:
            return
        self.failed_retries += 1
        self.sim.process(
            self._repost_proc(handle.request), name=f"c{self.client_id}.retry"
        )

    def _enter_idle(self) -> None:
        self.switch_events += 1
        self.state = client_transition(self.state, ProtocolEvent.CONTEXT_SWITCH)
        self._binding = None
        self._cursor = None
        if self._outstanding and not self._announce_pending:
            # Requests caught by the switch are re-announced so they are
            # fetched again when our group next warms up.
            self._announce_pending = True
            self.sim.process(
                self._announce_proc(), name=f"c{self.client_id}.reannounce"
            )
