"""The real-process RPC service and client (asyncio driver of the API).

This is the second backend behind the registry's ``backend`` dimension:
the same call surface as the sim driver — ``async_call`` / ``flush`` /
``poll_completions`` / ``sync_call`` returning the same
:class:`~repro.core.interface.CallHandle` — but every method is an
asyncio coroutine, requests and responses are real bytes in the
deterministic wire format of :mod:`repro.core.message`, and the "fabric"
is a TCP stream per client (:mod:`repro.net.transport`).

Observability reuses :mod:`repro.obs` unchanged: the client emits the
``post`` / ``resp_rx`` / ``complete`` lifecycle stages and the server
emits ``req_rx`` / ``dispatch`` / ``exec`` / ``done`` plus per-RPC
server spans, exactly the stage names the sim path emits, so the
critical-path tooling reads both backends' artifacts.  While an observer
is installed, every request additionally carries the deterministic
trace-context wire extension (DESIGN.md section 14); the server echoes
it with its dispatch/done clock stamps, which feed the client's
:class:`~repro.net.clock.OffsetEstimator` so per-process shards can be
clock-aligned and merged into one distributed trace.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..core.interface import (
    NO_RESPONSE,
    CallHandle,
    RpcCallerInterface,
    RpcServiceInterface,
)
from ..core.message import (
    RpcRequest,
    RpcResponse,
    TraceContext,
    WireFormatError,
    decode_requests,
    decode_responses,
    encode_request_record,
    encode_response_record,
    next_request_id,
)
from ..obs import Observer
from ..obs.dist import rpc_trace_id, span_id
from ..transport.topology import Endpoint
from .clock import Clock, OffsetEstimator
from .framing import FramingError
from .transport import (
    FramedConnection,
    StreamClientTransport,
    StreamServerTransport,
    TransportClosed,
)

__all__ = ["ProcServerStats", "ProcRpcServer", "ProcRpcClient"]


@dataclass
class ProcServerStats:
    """Server-side accounting (mirrors the sim servers' stats objects)."""

    completed: int = 0
    failed: int = 0
    decode_errors: int = 0
    #: Handler returned NO_RESPONSE: the request was deliberately left
    #: unanswered (replica redirects, blocked heartbeats).
    suppressed: int = 0


class ProcRpcServer(RpcServiceInterface):
    """One RPC service as a real asyncio server.

    Constructed by the registry with the same shape as the sim servers —
    ``(where, handler, config=..., handler_cost_fn=..., response_bytes=...)``
    — except ``where`` is an :class:`Endpoint`, not a simulated node.
    ``config`` and ``handler_cost_fn`` are accepted for signature
    compatibility: the asyncio backend has no modeled costs (the handler's
    real execution time is the cost), and transport-specific sim knobs do
    not apply on a TCP stream.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        handler: Callable[[RpcRequest], Any],
        *,
        config: Any = None,
        handler_cost_fn: Optional[Callable] = None,
        response_bytes: Any = 32,
        transport: str = "scalerpc",
        obs: Optional[Observer] = None,
        clock: Optional[Clock] = None,
    ):
        self.endpoint = endpoint
        self.handler = handler
        self.config = config
        self.handler_cost_fn = handler_cost_fn  # unused: real time is the cost
        self.response_bytes = response_bytes
        self.transport_name = transport
        self.obs = obs
        self.clock = clock or Clock()
        self.stats = ProcServerStats()
        self._listener = StreamServerTransport(endpoint, self._on_frame)
        self._next_client_id = 1
        self._local_clients: list["ProcRpcClient"] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Endpoint:
        """Open the listener; returns the bound endpoint."""
        self.endpoint = await self._listener.start()
        return self.endpoint

    async def stop(self) -> None:
        """Close every in-process client, then the listener."""
        # Swap the list out before the first await: a connect() racing
        # with stop() must not land a client in a list that a stale
        # clear() then wipes (flowlint: yield-race).
        clients, self._local_clients = self._local_clients, []
        for client in clients:
            await client.close()
        await self._listener.stop()

    def connect(self, machine: Any = None) -> "ProcRpcClient":
        """An in-process client of this service (remote clients just dial
        the endpoint themselves — see :class:`ProcRpcClient`)."""
        client = ProcRpcClient(
            self.endpoint,
            client_id=self._next_client_id,
            obs=self.obs,
            clock=self.clock,
        )
        self._next_client_id += 1
        self._local_clients.append(client)
        return client

    # -- request path ------------------------------------------------------

    def _on_frame(self, connection: FramedConnection, body: memoryview) -> None:
        obs = self.obs
        # The clock is read only for someone who looks: the observer's
        # stages and span, or a traced request's echoed dispatch/done stamps.
        received = self.clock.now() if obs is not None else 0  # before decode
        try:
            requests = decode_requests(body)
        except WireFormatError:
            self.stats.decode_errors += 1
            return  # reject the frame; the stream itself is still framed
        for request in requests:
            trace = request.trace
            timed = obs is not None or trace is not None
            if timed:
                key = (request.client_id, request.req_id)
                dispatched = self.clock.now()
                if obs is not None:
                    if trace is not None:
                        obs.rpc_trace(key, trace.trace_id)
                    obs.rpc_stage(key, "req_rx", received)
                    obs.rpc_stage(key, "dispatch", dispatched)
                    obs.rpc_stage(key, "exec", dispatched)
            try:
                result = self.handler(request)
                failed = False
            except Exception as exc:  # the RPC failed, not the server
                result = f"{type(exc).__name__}: {exc}"
                failed = True
                self.stats.failed += 1
            if result is NO_RESPONSE:
                # The backend-neutral "stay silent" contract (replica
                # redirects, blocked heartbeats): no record goes back, and
                # the caller's own timeout machinery decides what silence means.
                self.stats.suppressed += 1
                continue
            data_bytes = self.response_bytes
            if callable(data_bytes):
                data_bytes = data_bytes(request, result)
            # Echo the trace context whenever the request carried one — even
            # with no server observer installed: the dispatch/done stamps are
            # what the *client's* OffsetEstimator feeds on, so clock sync
            # must not depend on server-side telemetry being enabled.
            echo = None
            if timed:
                done = self.clock.now()
                if trace is not None:
                    echo = TraceContext(trace.trace_id, span_id(trace.trace_id, "server"),
                                        dispatched, done)
                if obs is not None:
                    obs.rpc_stage(key, "done", done)
                    obs.span(f"server.{self.transport_name}", request.rpc_type,
                             dispatched, done, {"client": request.client_id})
            # Queued, not written: the connection seals every response of
            # this read into one frame when the read's last frame is handled.
            connection.send(encode_response_record(RpcResponse(
                request.req_id, request.client_id, result, data_bytes, failed,
                False, None, echo)))
            self.stats.completed += 1

    @property
    def connections(self) -> int:
        return self._listener.accepted


class ProcRpcClient(RpcCallerInterface):
    """Asyncio driver of the client API.

    The same calling convention as the sim driver, with ``await`` in
    place of ``yield from``::

        handle = await client.async_call("echo", payload="hi")
        await client.flush()
        (response,) = await client.poll_completions([handle])

    There is no receive task: the connection calls :meth:`_on_frame`
    for every response frame, which decodes it and resolves the matching
    handle's future on the spot.  When the server connection breaks,
    :meth:`_on_lost` starts the bounded reconnect-and-repost recovery
    (the proc analogue of the sim client's watchdog reconnect) as a task.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        *,
        client_id: int = 1,
        obs: Optional[Observer] = None,
        clock: Optional[Clock] = None,
        max_attempts: int = 5,
        backoff_s: float = 0.05,
    ):
        self.client_id = client_id
        self.obs = obs
        self.clock = clock or Clock()
        self.transport = StreamClientTransport(
            endpoint, self._on_frame, self._on_lost,
            max_attempts=max_attempts, backoff_s=backoff_s,
        )
        #: Four-timestamp clock-sync samples against the server (fed by
        #: traced responses); its summary goes into the shard meta so the
        #: merge collector can shift this process into the server domain.
        self.offset_estimator = OffsetEstimator()
        self._rtt_hist = (
            obs.metrics.histogram("rpc.rtt_ns") if obs is not None else None
        )
        self.completed = 0
        #: Response frames dropped as undecodable (mirrors
        #: :attr:`ProcServerStats.decode_errors`).
        self.decode_errors = 0
        self._outstanding: dict[int, CallHandle] = {}
        self._recovery: Optional[asyncio.Task] = None
        self._closing = False
        #: Per-transport failover hook (the proc analogue of the sim
        #: client's ``failover_fn``): called with this client when the
        #: connection is lost, returns the :class:`Endpoint` to re-home
        #: to (or None to keep hammering the current one).
        self.failover_fn: Optional[Callable[["ProcRpcClient"], Optional[Endpoint]]] = None
        self.failovers = 0

    @property
    def reconnects(self) -> int:
        return self.transport.reconnects

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)

    # -- lifecycle ---------------------------------------------------------

    async def connect(self) -> None:
        """Dial the server."""
        await self.transport.connect()

    async def close(self) -> None:
        self._closing = True
        recovery, self._recovery = self._recovery, None
        if recovery is not None and not recovery.done():
            recovery.cancel()
            try:
                await recovery
            except asyncio.CancelledError:
                pass
        await self.transport.close()

    # -- the RPC API (coroutines) ------------------------------------------

    async def async_call(
        self, rpc_type: str, payload: Any = None, data_bytes: int = 32
    ) -> CallHandle:
        """Post one request without waiting; returns its handle."""
        now = self.clock.now()
        request = RpcRequest(self.client_id, rpc_type, payload, data_bytes,
                             next_request_id(), now)
        if self.obs is not None:
            # Trace context is strictly observer-gated: with obs off the
            # request encodes byte-identically to the pre-extension wire
            # format (zero overhead; the CI guard asserts this).
            trace_id = rpc_trace_id(self.client_id, request.req_id)
            request.trace = TraceContext(
                trace_id=trace_id, span_id=span_id(trace_id, "client")
            )
        # Encode before registering: an unencodable post raises here, leaving no handle.
        record = encode_request_record(request)
        handle = CallHandle(request, asyncio.get_running_loop().create_future(), now)
        self._outstanding[request.req_id] = handle
        if self.obs is not None:
            self.obs.rpc_trace(request.req_id, trace_id)
            self.obs.rpc_stage(request.req_id, "post", now)
        connection = self.transport.connection
        if connection is not None and connection.is_open:
            connection.send(record)
        elif not self._recovery_pending():
            self._outstanding.pop(request.req_id, None)
            raise TransportClosed(f"not connected to {self.transport.endpoint}")
        # else mid-reconnect: the handle is already registered, and _recover
        # reposts every outstanding request once the new connection is up.
        return handle

    async def flush(self) -> None:
        """Push everything posted out to the kernel, in one write."""
        connection = self.transport.connection
        if connection is not None and connection.is_open:
            paused = connection.flush()
            if paused is not None:
                await asyncio.shield(paused)
        elif not self._recovery_pending():
            raise TransportClosed(f"not connected to {self.transport.endpoint}")
        # else mid-reconnect: _recover flushes after it reposts.

    async def poll_completions(self, handles: list[CallHandle]) -> list[RpcResponse]:
        """Flush what is posted, then wait for ``handles``; returns their responses in order."""
        connection = self.transport.connection
        if connection is not None:
            connection.flush()  # a no-op once the caller has flushed
        try:
            return [await handle.event for handle in handles]
        except BaseException:
            # One failure is raised; mark the others retrieved, or every
            # sibling failed with it logs "exception was never retrieved".
            for handle in handles:
                if handle.event.done() and not handle.event.cancelled():
                    handle.event.exception()
            raise

    async def sync_call(
        self, rpc_type: str, payload: Any = None, data_bytes: int = 32
    ) -> RpcResponse:
        """Post one request and wait for its response (the wait flushes)."""
        handle = await self.async_call(rpc_type, payload, data_bytes)
        responses = await self.poll_completions([handle])
        return responses[0]

    # -- receive / recovery ------------------------------------------------

    def _on_frame(self, _connection: FramedConnection, body: memoryview) -> None:
        obs = self.obs
        received = self.clock.now() if obs is not None else 0  # before decode
        try:
            responses = decode_responses(body)
        except WireFormatError:
            # Which requests it answered is unknowable and the stream is still
            # framed, so nothing reconnects: those handles stay outstanding
            # until their callers give up or a later connection loss reposts them.
            self.decode_errors += 1
            return
        for response in responses:
            handle = self._outstanding.pop(response.req_id, None)
            if handle is None:
                continue
            handle.response = response
            handle.completed_ns = self.clock.now()
            if not handle.event.done():
                handle.event.set_result(response)
            self.completed += 1
            trace = response.trace
            if trace is not None and trace.has_ts:
                # The full NTP four-timestamp exchange: (post, dispatch,
                # done, complete), the middle pair in the server's clock.
                self.offset_estimator.add_sample(
                    handle.posted_ns, trace.ts_a, trace.ts_b, handle.completed_ns)
            if obs is not None:
                obs.rpc_stage(response.req_id, "resp_rx", received)
                obs.rpc_stage(response.req_id, "complete", handle.completed_ns)
                if self._rtt_hist is not None:
                    self._rtt_hist.record(handle.completed_ns - handle.posted_ns)

    def _on_lost(self, connection: FramedConnection, exc: Optional[Exception]) -> None:
        """The connection is gone.  A broken stream (``FramingError`` on
        a corrupt length prefix) fails every outstanding handle *now*;
        anything else — EOF, a socket error — starts recovery."""
        if self._closing or connection is not self.transport.connection:
            return  # our own close(), or a connection already replaced
        if isinstance(exc, FramingError):
            self._fail_outstanding(exc)
        elif not self._recovery_pending():
            self._recovery = asyncio.ensure_future(self._recover())
            self._recovery.add_done_callback(self._on_recovery_done)

    def _on_recovery_done(self, task: "asyncio.Task") -> None:
        """Recovery fails the handles itself when it is exhausted; if it
        *crashed* instead, fail them here — without this, callers blocked
        in ``poll_completions`` hang forever on futures nobody will ever
        resolve, and the crash itself is swallowed until ``close()``."""
        if not task.cancelled() and task.exception() is not None:
            self._fail_outstanding(task.exception())

    def _fail_outstanding(self, exc: BaseException) -> None:
        outstanding, self._outstanding = self._outstanding, {}
        for handle in outstanding.values():
            if not handle.event.done():
                handle.event.set_exception(exc)

    def _recovery_pending(self) -> bool:
        """Is a recovery task alive to finish a reconnect?  While it is,
        a post that finds the transport down may simply stay registered:
        recovery either reposts it or fails its handle explicitly."""
        return self._recovery is not None and not self._recovery.done()

    def _consult_failover(self) -> None:
        """Ask the failover hook where to dial; retarget the transport
        when it names a different endpoint (membership promoted a
        backup).  Reposted requests keep their original req_ids, so the
        replica log's dedup makes the retry exactly-once visible."""
        if self.failover_fn is None:
            return
        target = self.failover_fn(self)
        if target is None or target == self.transport.endpoint:
            return
        self.transport.endpoint = target
        self.failovers += 1
        if self.obs is not None:
            now = self.clock.now()
            for req_id in sorted(self._outstanding):
                self.obs.rpc_stage(req_id, "failover", now)

    async def _recover(self) -> None:
        """The connection broke: reconnect (bounded) and repost what was
        in flight.  When recovery is exhausted, every outstanding handle
        is failed with :exc:`TransportClosed`.

        With a ``failover_fn`` installed the hook is consulted before
        each reconnect cycle, and a second cycle is granted after an
        exhausted one: the first cycle's backoff is usually what gives
        the membership service time to declare the old primary dead.
        """
        cycles = 2 if self.failover_fn is not None else 1
        exhausted: Optional[TransportClosed] = None
        for _cycle in range(cycles):
            self._consult_failover()
            try:
                await self.transport.reconnect()
            except TransportClosed as exc:
                exhausted = exc
                continue
            # No await from here on: the new connection's own loss
            # must find this task finished, so it starts the next one.
            for handle in self._outstanding.values():
                self.transport.connection.send(encode_request_record(handle.request))
            self.transport.connection.flush()
            return
        self._fail_outstanding(exhausted)
