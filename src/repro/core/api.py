"""The simulation driver of the RPC programming interface.

The backend-neutral contract — ``SyncCall`` / ``AsyncCall`` /
``PollCompletion`` and the :class:`CallHandle` state machine — lives in
:mod:`repro.core.interface`; this module is its *sim driver*: every RPC
stack on the simulated fabric — ScaleRPC, RawWrite, HERD, FaSST —
implements :class:`RpcClientApi` / :class:`RpcServerApi`, which is what
lets the distributed file system and the transaction system swap
transports with a constructor argument.  The real-process driver of the
same interface is :mod:`repro.net`.

All calls here are simulation generators: drive them with ``yield from``
inside a sim process.
"""

from __future__ import annotations

import abc
from typing import Any, Generator, Optional

from ..rdma.mr import Access
from ..rdma.node import Node
from ..sim.engine import Continuation, Event
from .interface import CallHandle, RpcCallerInterface, RpcServiceInterface
from .message import RpcRequest, RpcResponse

__all__ = ["QPC_SETUP_NS", "RECONNECT_BACKOFF_NS", "RECONNECT_MAX_ATTEMPTS", "CallHandle",
           "RpcClientApi", "RpcServerApi", "ServerWorker"]

# -- client recovery policy (DESIGN.md section 10) ---------------------------
#: Bounded reconnect: attempts per recovery, and the first backoff period
#: (it doubles per attempt).
RECONNECT_MAX_ATTEMPTS = 5
RECONNECT_BACKOFF_NS = 30_000
#: Control-plane cost of (re)establishing a connection: QPC exchange and
#: the modify-QP cycle (Swift, arXiv 2501.19051).
QPC_SETUP_NS = 30_000


class RpcClientApi(RpcCallerInterface):
    """Sim-driver client API: the paper's SyncCall / AsyncCall /
    PollCompletion as simulation generators.

    The transport-neutral half of every sim client lives here: request
    handles and their completion, the post / poll CPU costs, the request
    staging region, and the RPC-timeout watchdog.  A transport supplies
    ``_post`` (put one request on the wire, or hold it for ``flush``) and
    ``_recover`` (what the watchdog runs when progress stops), and calls
    :meth:`_complete` when a response arrives.
    """

    #: True for clients that receive responses via ``ibv_poll_cq`` on a UD
    #: queue pair (HERD, FaSST) — the expensive client mode of Figure 8;
    #: RC clients poll their local message pool.
    uses_cq_polling = False
    #: Failover escalation (DESIGN.md section 15): when set, ScaleRPC's
    #: recovery consults ``failover_fn(self)`` for a live replacement
    #: server before reconnecting to the same endpoint.  The membership
    #: runner points it at the current view's primary.
    failover_fn = None

    def __init__(self, server: Any, machine: Node, client_id: int):
        self.server = server
        self.machine = machine
        self.sim = machine.sim
        self.client_id = client_id
        config = server.config
        self._post_ns, self._poll_ns = config.costs.client_cost(self.uses_cq_polling)
        # Request staging: the source of every request write (and, on
        # ScaleRPC, the batch the server warmup-reads).
        self.staging = machine.register_memory(
            config.slot_bytes, access=Access.all_remote(), huge_pages=False
        )
        self._outstanding: dict[int, CallHandle] = {}
        # Recovery state (DESIGN.md section 10).
        self._recovering = False
        self._progress_ns = 0
        self.completed = 0
        self.timeouts = 0
        self.reconnects = 0
        # The watchdog only exists when a timeout is configured, so the
        # default (0) run has no extra process and stays byte-identical.
        if config.rpc_timeout_ns > 0:
            self.sim.process(self._watchdog(), name=f"c{client_id}.watchdog")

    # -- deferred CPU accounting ------------------------------------------
    #
    # Clients are coroutines multiplexed onto threads (paper Section
    # 3.6.1): the CPU work of polling completions overlaps with the wire
    # time of later operations, so it is charged to the machine's cores
    # asynchronously.  A bounded in-flight window provides backpressure:
    # when the machine's cores cannot keep up, the window fills and the
    # client's posting loop stalls, so throughput degrades to the
    # machine's CPU capacity — the effect that makes UD-based RPCs need
    # several physical client machines (Figure 8, right).

    _deferred_inflight: int = 0
    _deferred_window: int = 16
    _deferred_waiter: Optional[Event] = None
    #: Set by :meth:`stop_polling`: the client's completion path goes dead
    #: (responses are never consumed), modelling the misbehaving client of
    #: the fatal-overrun sweep.  Posting still works.
    _stopped: bool = False
    #: Set by :meth:`crash`: the whole client process is down — its QPs are
    #: errored, posts are swallowed, and deliveries are ignored until
    #: :meth:`restart` brings it back through the recovery path.
    _crashed: bool = False
    #: Fault-plane straggler: the client thread is descheduled until this
    #: instant; posting loops stall through :meth:`_cpu_backpressure`.
    _straggle_until_ns: int = 0
    #: Clients talking to several servers poll one completion source per
    #: server (round-robin over CQs / message regions); per completed op
    #: the thread pays ~that many poll sweeps.  Multi-participant
    #: deployments (ScaleTX) set this to the participant count.
    poll_cost_scale: int = 1

    def _defer_cpu(self, ns: int) -> None:
        """Charge ``ns`` of machine CPU without blocking the caller."""
        if ns <= 0:
            return
        self._deferred_inflight += 1
        _CpuCharge(self, ns)

    def _cpu_backpressure(self) -> Generator:
        """Stall while this client's deferred-CPU window is full (or the
        fault plane has descheduled the client thread)."""
        if self._straggle_until_ns > self.machine.sim.now:
            yield self.machine.sim.timeout(
                self._straggle_until_ns - self.machine.sim.now
            )
        while self._deferred_inflight >= self._deferred_window:
            if self._deferred_waiter is None or self._deferred_waiter.triggered:
                self._deferred_waiter = self.machine.sim.event()
            yield self._deferred_waiter
        return None

    def stop_polling(self) -> None:
        """Stop consuming completions (the client goes unresponsive).

        Models the failure mode behind ``CompletionQueue(overrun_fatal=
        True)``: a client that keeps a connection open but never polls,
        letting whatever queues back up behind it overflow.  Irreversible
        for the life of the client.
        """
        self._stopped = True

    # -- fault plane (DESIGN.md section 10) --------------------------------

    def _fault_qps(self) -> list:
        """The queue pairs that die with this client process (transports
        override; the base client owns none)."""
        return []

    def crash(self) -> None:
        """Fail-stop the client process: its local QPs (and their peers —
        the remote end sees the connection break) go to ERROR, in-flight
        responses are ignored, and posts are swallowed until restart."""
        self._crashed = True
        for qp in self._fault_qps():
            peer = qp.peer
            if peer is not None:
                peer.to_error()
            qp.to_error()

    def restart(self) -> None:
        """Bring a crashed client back; spawns the recovery process
        (reconnect at control-plane cost, then repost what was in
        flight)."""
        if not self._crashed:
            return
        self._crashed = False
        self.machine.sim.process(
            self._recover(), name=f"c{self.client_id}.recover"
        )

    @abc.abstractmethod
    def _recover(self) -> Generator:
        """Transport-specific recovery: reconnect, then repost what is
        outstanding (``yield from``)."""

    def _watchdog(self) -> Generator:
        """Detect a dead connection: no completion progress for
        ``rpc_timeout_ns`` with requests outstanding runs :meth:`_recover`."""
        timeout_ns = self.server.config.rpc_timeout_ns
        period = max(timeout_ns // 2, 1)
        while not self._stopped:
            yield self.sim.timeout(period)
            if self._crashed or self._recovering or not self._outstanding:
                continue
            if self.sim.now - self._progress_ns < timeout_ns:
                continue
            self.timeouts += 1
            yield from self._recover()

    # -- the call surface -------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Posted calls whose response has not arrived yet."""
        return len(self._outstanding)

    def async_call(
        self, rpc_type: str, payload: Any = None, data_bytes: int = 32
    ) -> Generator:
        """Post one request without waiting; returns a :class:`CallHandle`.

        Use as ``handle = yield from client.async_call(...)``.
        """
        request = RpcRequest(
            client_id=self.client_id,
            rpc_type=rpc_type,
            payload=payload,
            data_bytes=data_bytes,
            created_ns=self.sim.now,
        )
        handle = CallHandle(request, self.sim.event(), posted_ns=self.sim.now)
        self._outstanding[request.req_id] = handle
        obs = self.machine.fabric.obs
        if obs is not None:
            obs.rpc_stage(request.req_id, "post", self.sim.now)
        yield from self._cpu_backpressure()
        yield from self.machine.cpu.use(self._post_ns)
        self._progress_ns = self.sim.now
        self._post(request)
        return handle

    @abc.abstractmethod
    def _post(self, request: RpcRequest) -> None:
        """Put one freshly issued request on its way (or leave it for
        :meth:`flush`); it stays outstanding until :meth:`_complete`."""

    def flush(self) -> Generator:
        """Ensure all posted requests are on their way to the server.

        Batching clients call this once per batch (``yield from``); a
        client whose ``_post`` already sent them has nothing to do.
        """
        return None
        yield  # pragma: no cover - makes this a generator

    def poll_completions(self, handles: list[CallHandle]) -> Generator:
        """Wait for all ``handles`` (``yield from``); returns the responses."""
        responses = []
        for handle in handles:
            if not handle.event.triggered:
                yield handle.event
            # Poll CPU overlaps with the next op (coroutine multiplexing).
            self._defer_cpu(self._poll_ns * self.poll_cost_scale)
            if handle.completed_ns is None:
                handle.completed_ns = self.sim.now
            responses.append(handle.response)
        return responses

    def _complete(self, response: RpcResponse) -> None:
        """A response arrived: complete its handle (a duplicate or a
        response to a call no longer outstanding is ignored)."""
        handle = self._outstanding.pop(response.req_id, None)
        if handle is None:
            return
        handle.response = response
        handle.completed_ns = self.sim.now
        handle.event.succeed(response)
        self.completed += 1
        self._progress_ns = self.sim.now
        obs = self.machine.fabric.obs
        if obs is not None:
            # resp_rx coincides with complete: the simulated client
            # decodes for free (cf. the proc backend, where the two are
            # distinct instants).
            obs.rpc_stage(response.req_id, "resp_rx", self.sim.now)
            obs.rpc_stage(response.req_id, "complete", self.sim.now)

    def sync_call(
        self, rpc_type: str, payload: Any = None, data_bytes: int = 32
    ) -> Generator:
        """Post one request and wait for its response (``yield from``)."""
        handle = yield from self.async_call(rpc_type, payload, data_bytes)
        yield from self.flush()
        responses = yield from self.poll_completions([handle])
        return responses[0]


class _CpuCharge(Continuation):
    """One deferred CPU charge: start, a core's grant, the hold, then the
    release that frees a window slot and wakes a stalled posting loop."""

    __slots__ = ("client", "ns")

    def __init__(self, client: RpcClientApi, ns: int):
        self.sim = sim = client.machine.sim
        self.client, self.ns = client, ns
        self.step = _CpuCharge.acquire
        sim._schedule(sim.now, self)

    name = property(lambda self: f"c{self.client.client_id}.cpu")

    def acquire(self) -> None:
        self.step = _CpuCharge.hold
        self.client.machine.cpu.acquire(self)

    def hold(self) -> None:
        self.after(self.ns, _CpuCharge.release)

    def release(self) -> None:
        client = self.client
        client.machine.cpu.release()
        client._deferred_inflight -= 1
        waiter = client._deferred_waiter
        if waiter is not None and not waiter.triggered:
            waiter.succeed()
            client._deferred_waiter = None


class ServerWorker(Continuation):
    """A server working thread: takes the next item from its ``Store`` and
    steps through the subclass's ``execute`` and the steps it schedules."""

    __slots__ = ("server", "index", "store", "name", "item", "start")

    def __init__(self, server: Any, index: int, store: Any, name: str):
        self.sim = sim = server.sim
        self.server, self.index, self.store, self.name = server, index, store, name
        self.step = type(self).take
        sim._schedule(sim.now, self)

    def succeed(self, item: Any) -> None:
        """The store's hand-off: run ``execute`` on ``item`` next."""
        self.item = item
        self.sim._schedule(self.sim.now, self)

    def take(self) -> None:
        self.step = type(self).execute
        self.store.take(self)


class RpcServerApi(RpcServiceInterface):
    """Sim-driver server API: handler registration and client admission."""

    node: Node

    @abc.abstractmethod
    def connect(self, machine: Node) -> RpcClientApi:
        """Admit a new client running on ``machine``."""

    @abc.abstractmethod
    def start(self) -> None:
        """Spawn the server's simulation processes."""
