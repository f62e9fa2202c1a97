"""Shared machinery for the baseline RPC implementations (paper Table 2).

All three baselines use *static mapping*: the server allocates a dedicated
message region per connected client, so the server-side pool footprint
grows linearly with the client count — the property whose LLC consequences
ScaleRPC's virtualized mapping removes.

=========  =====================  =========================
RPC        requests               responses
=========  =====================  =========================
RawWrite   RC write               RC write   (FaRM-style)
HERD       UC write               UD send
FaSST      UD send                UD send
=========  =====================  =========================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from ..core.api import (
    QPC_SETUP_NS,
    RECONNECT_BACKOFF_NS,
    RECONNECT_MAX_ATTEMPTS,
    RpcClientApi,
    RpcServerApi,
    ServerWorker,
)
from ..core.config import CpuCostModel
from ..core.message import RpcRequest, RpcResponse
from ..core.msgpool import BlockCursor, SlotCursor
from ..rdma.mr import MemoryRegion
from ..rdma.node import InboundWrite, Node
from ..rdma.qp import QueuePair
from ..rdma.types import Transport
from ..rdma.verbs import VerbError, post_write
from ..sim.resources import Store

__all__ = ["BaselineConfig", "BaselineStats", "BaseRpcServer", "BaseRpcClient", "UdEndpoint",
           "UdResponseClient"]

Handler = Callable[[RpcRequest], Any]
CostFn = Callable[[RpcRequest], int]


@dataclass
class BaselineConfig:
    """Common knobs of the baseline servers (paper defaults)."""

    block_size: int = 4096
    blocks_per_client: int = 20
    n_server_threads: int = 10
    recv_depth: int = 512  # pre-posted receives per UD queue pair
    recv_buf_bytes: int = 256  # per-receive buffer (FaSST-style small SGEs)
    costs: CpuCostModel = field(default_factory=CpuCostModel)
    #: Give client-side UD endpoints a bounded receive CQ that raises
    #: IBV_EVENT_CQ_ERR on overrun (the fatal-overrun sweep): a client
    #: that stops polling kills its own response path instead of absorbing
    #: unbounded completions.
    cq_overrun_fatal: bool = False
    #: Client RPC-timeout watchdog (DESIGN.md section 10); 0 disables.
    rpc_timeout_ns: int = 0

    def __post_init__(self):
        if self.block_size < 64:
            raise ValueError("block_size must be at least one cacheline")
        if self.blocks_per_client < 1:
            raise ValueError("blocks_per_client must be >= 1")
        if self.n_server_threads < 1:
            raise ValueError("n_server_threads must be >= 1")
        if self.recv_depth < 1:
            raise ValueError("recv_depth must be >= 1")
        if self.recv_buf_bytes < 64:
            raise ValueError("recv_buf_bytes must be at least one cacheline")
        if self.rpc_timeout_ns < 0:
            raise ValueError("rpc_timeout_ns must be non-negative")

    @property
    def slot_bytes(self) -> int:
        return self.block_size * self.blocks_per_client


@dataclass
class BaselineStats:
    """Server-side accounting."""

    completed: int = 0
    dropped: int = 0


@dataclass
class _ClientBinding:
    """Server-side state for one connected client (static mapping)."""

    client_id: int
    request_region: Optional[MemoryRegion]  # on the server (RawWrite/HERD)
    send_ref: Any  # transport-specific response destination


class _Worker(ServerWorker):
    """A working thread executing the requests dispatched to its store."""

    __slots__ = ("binding", "obs", "response")

    def execute(self) -> None:
        server = self.server
        request, addr = self.item
        self.binding = server.bindings.get(request.client_id)
        if self.binding is None:
            server.stats.dropped += 1
            self.store.take(self)
            return
        self.obs = obs = server.node.fabric.obs
        self.start = now = self.sim.now
        if obs is not None:
            obs.rpc_stage(request.req_id, "exec", now)
        cost = server.config.costs.server_request_ns
        if addr is not None:
            cost += server.node.llc.cpu_access(addr, request.wire_bytes).cost_ns
        cost += server.handler_cost_fn(request)
        self.after(cost, _Worker.respond)

    def respond(self) -> None:
        server = self.server
        request = self.item[0]
        result = server.handler(request)
        data_bytes = server.response_bytes
        if callable(data_bytes):
            data_bytes = data_bytes(request, result)
        self.response = response = RpcResponse(
            req_id=request.req_id, client_id=request.client_id, payload=result,
            data_bytes=data_bytes)
        size = response.wire_bytes
        scratch = server._scratch_cursor.next(size)
        self.after(server.node.llc.cpu_access(scratch, size, write=True).cost_ns,
                   _Worker.send)

    def send(self) -> None:
        server = self.server
        server._send_response(self.binding, self.response)
        server.stats.completed += 1
        obs = self.obs
        if obs is not None:
            request = self.item[0]
            obs.rpc_stage(request.req_id, "done", self.sim.now)
            obs.span(f"server.{server.node.name}.worker{self.index}",
                     request.rpc_type, self.start, self.sim.now)
        self.take()


class BaseRpcServer(RpcServerApi):
    """Worker-thread scaffolding shared by all baselines.

    Subclasses implement ``_admit`` (create transport state for a client),
    ``_send_response`` (transport-specific response posting) and
    ``reestablish`` (rebuild it for a reconnecting client).
    """

    def __init__(
        self,
        node: Node,
        handler: Handler,
        config: Optional[BaselineConfig] = None,
        handler_cost_fn: Optional[CostFn] = None,
        response_bytes=32,
    ):
        self.node = node
        self.sim = node.sim
        self.handler = handler
        self.handler_cost_fn = handler_cost_fn or (lambda _req: 0)
        self.config = config or BaselineConfig()
        self.response_bytes = response_bytes
        self.stats = BaselineStats()
        self.bindings: dict[int, _ClientBinding] = {}
        self._stores = [Store(self.sim) for _ in range(self.config.n_server_threads)]
        self._next_client_id = 1
        self._scratch = node.register_memory(self.config.slot_bytes)
        self._scratch_cursor = SlotCursor(
            self._scratch.range.base, self._scratch.range.size
        )
        self._started = False

    # -- subclass hooks -------------------------------------------------------

    def _admit(self, machine: Node, client_id: int) -> "BaseRpcClient":
        raise NotImplementedError

    def _send_response(self, binding: _ClientBinding, response: RpcResponse) -> None:
        raise NotImplementedError

    def reestablish(self, client: "BaseRpcClient") -> None:
        """Rebuild the transport state for a reconnecting client (fresh
        QPs on the same identity and regions).  Each baseline overrides
        with its own connection shape."""
        raise NotImplementedError

    # -- admission -------------------------------------------------------------

    def connect(self, machine: Node) -> "BaseRpcClient":
        client_id = self._next_client_id
        self._next_client_id += 1
        return self._admit(machine, client_id)

    def start(self) -> None:
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        for i in range(self.config.n_server_threads):
            _Worker(self, i, self._stores[i], f"baseline.worker{i}")

    def worker_index(self, client_id: int) -> int:
        return client_id % self.config.n_server_threads

    def dispatch(self, request: RpcRequest, addr: Optional[int]) -> None:
        """Route an arrived request to its worker thread."""
        obs = self.node.fabric.obs
        if obs is not None:
            # req_rx == dispatch in the sim: no decode step (cf. proc).
            obs.rpc_stage(request.req_id, "req_rx", self.sim.now)
            obs.rpc_stage(request.req_id, "dispatch", self.sim.now)
        self._stores[self.worker_index(request.client_id)].put((request, addr))

    def _on_request(self, event: InboundWrite) -> None:
        """A request RDMA-written into a static per-client region."""
        if isinstance(event.payload, RpcRequest):
            self.dispatch(event.payload, event.addr)

    # -- execution ---------------------------------------------------------------

    def _response_scratch(self, size: int) -> int:
        return self._scratch_cursor.next(size)


class BaseRpcClient(RpcClientApi):
    """Static-mapping client: each request goes straight to the wire
    through ``_post_request``; responses come back through
    :meth:`deliver`.  Given a ``request_region`` (RawWrite, HERD), a
    request is written over ``qp`` into that dedicated server region."""

    def __init__(self, server: BaseRpcServer, machine: Node, client_id: int,
                 qp: Optional[QueuePair] = None,
                 request_region: Optional[MemoryRegion] = None):
        super().__init__(server, machine, client_id)
        self.qp = qp
        if request_region is not None:
            self._cursor = BlockCursor(
                request_region.range.base,
                server.config.block_size,
                server.config.blocks_per_client,
            )

    # -- transport hook ---------------------------------------------------------

    def _post_request(self, request: RpcRequest) -> None:
        size = request.wire_bytes
        post_write(
            self.qp,
            local_addr=self.staging.range.base,
            remote_addr=self._cursor.next(size),
            size=size,
            payload=request,
            signaled=False,
        )

    # -- RpcClientApi -------------------------------------------------------------

    def _post(self, request: RpcRequest) -> None:
        try:
            self._post_request(request)
        except VerbError:
            # A crashed client's post dies with the process; the request
            # stays outstanding and recovery reposts it after reconnect.
            # Any other VerbError (e.g. the zombie sweep posting on an
            # overrun-errored QP) keeps propagating.
            if not self._crashed:
                raise

    # -- response delivery (called by transport-specific receive paths) ------------

    def deliver(self, response: Any) -> None:
        if self._stopped or self._crashed:
            # The client's polling loop is dead; the response is never
            # consumed (its completion rots in whatever queue carried it).
            return
        self._complete(response)

    # -- fault recovery (DESIGN.md section 10) -----------------------------

    def _recover(self) -> Generator:
        """Bounded reconnect + repost with exponential backoff: pay the
        control-plane QPC setup cost, rebuild transport state through the
        server's ``reestablish`` hook, repost everything outstanding, and
        wait one backoff period for progress."""
        if self._recovering:
            return
        self._recovering = True
        try:
            backoff = RECONNECT_BACKOFF_NS
            for _attempt in range(RECONNECT_MAX_ATTEMPTS):
                if self._stopped or self._crashed:
                    return
                if any(not qp.is_ready for qp in self._fault_qps()):
                    yield self.sim.timeout(QPC_SETUP_NS)
                    if self._crashed:
                        return
                    self.server.reestablish(self)
                    self.reconnects += 1
                for req_id in sorted(self._outstanding):
                    handle = self._outstanding.get(req_id)
                    if handle is None or self._crashed:
                        continue
                    yield from self.machine.cpu.use(self._post_ns)
                    self._post(handle.request)
                completed_before = self.completed
                yield self.sim.timeout(backoff)
                if self.completed > completed_before or not self._outstanding:
                    self._progress_ns = self.sim.now
                    return
                backoff *= 2
        finally:
            self._recovering = False


class UdResponseClient(BaseRpcClient):
    """A client whose responses arrive as UD sends on its own
    :class:`UdEndpoint` and are read by polling its CQ (HERD, FaSST)."""

    uses_cq_polling = True

    def __init__(self, server: BaseRpcServer, machine: Node, client_id: int,
                 qp: Optional[QueuePair] = None,
                 request_region: Optional[MemoryRegion] = None):
        super().__init__(server, machine, client_id, qp, request_region)
        self.open_response_endpoint()

    def open_response_endpoint(self) -> Any:
        """Build a fresh UD response endpoint (at admission, and again on
        reconnect: the crashed process owned the old one's polling loop);
        returns the address handle the server responds to."""
        config = self.server.config
        self.ud = UdEndpoint(
            self.machine,
            depth=config.recv_depth,
            buf_bytes=config.recv_buf_bytes,
            on_receive=self._on_receive,
            overrun_fatal=config.cq_overrun_fatal,
        )
        return self.ud.handle()

    def crash(self) -> None:
        """A crash also kills the process polling the UD response CQ."""
        super().crash()
        self.ud.stop()

    def stop_polling(self) -> None:
        """Stop the UD listener too: responses pile up in the recv CQ
        (fatal under ``cq_overrun_fatal``)."""
        super().stop_polling()
        self.ud.stop()

    def _on_receive(self, completion) -> None:
        if isinstance(completion.payload, RpcResponse):
            self.deliver(completion.payload)


class UdEndpoint:
    """A UD queue pair with a ring of pre-posted receive buffers and a
    listener process that invokes ``on_receive(completion)`` per message,
    re-arming the consumed buffer.

    Used on the client side by HERD and FaSST (responses arrive as UD
    sends), and on the server side by FaSST (requests too).  The ring is a
    *shared, bounded* region — the design property that keeps FaSST's
    server-side footprint LLC-resident regardless of client count.
    """

    def __init__(self, node: Node, depth: int, buf_bytes: int, on_receive,
                 overrun_fatal: bool = False):
        self.node = node
        kwargs = {}
        if overrun_fatal:
            from ..rdma.cq import CompletionQueue

            kwargs["recv_cq"] = CompletionQueue(
                node.sim, name=f"{node.name}.ud.rcq", depth=depth,
                overrun_fatal=True,
            )
        self.qp = node.create_qp(Transport.UD, max_recv_wr=depth + 1, **kwargs)
        self.depth = depth
        self.buf_bytes = buf_bytes
        self.on_receive = on_receive
        self.region = node.register_memory(depth * buf_bytes)
        self._next_slot = 0
        self._stopped = False
        from ..rdma.verbs import post_recv

        for i in range(depth):
            post_recv(self.qp, self.region.range.base + i * buf_bytes, buf_bytes)
        self._next_slot = 0
        node.sim.process(self._listener(), name=f"{node.name}.ud{self.qp.qp_num}")

    def handle(self):
        """Address handle peers use to send to this endpoint."""
        return self.qp.address_handle()

    def stop(self) -> None:
        """Stop the listener: the endpoint's owner no longer polls its CQ.

        Takes effect at the listener's next wakeup (the flag is checked
        after each CQ event), after which completions pile up unconsumed —
        with ``overrun_fatal`` the recv CQ eventually overruns and errors
        out every attached QP.
        """
        self._stopped = True

    def _listener(self) -> Generator:
        from ..rdma.verbs import post_recv

        while True:
            completion = yield self.qp.recv_cq.get_event()
            if self._stopped:
                return
            post_recv(
                self.qp,
                self.region.range.base + self._next_slot * self.buf_bytes,
                self.buf_bytes,
            )
            self._next_slot = (self._next_slot + 1) % self.depth
            # Polling the CQ reads the landed message, keeping the recv
            # ring LLC-resident on this node.
            if completion.addr is not None and completion.byte_len > 0:
                self.node.llc.cpu_access(completion.addr, completion.byte_len)
            self.on_receive(completion)
