"""Asyncio framed transports: connect, accept, reconnect.

The connection/control plane of the real-process backend, kept separate
from RPC semantics (Swift's argument in PAPERS.md: setup and teardown
deserve first-class treatment, not hidden constructor side effects).

- :class:`FramedConnection` — one TCP connection, either end, as an
  ``asyncio.BufferedProtocol``: the socket receives straight into the
  :class:`~repro.net.framing.FrameDecoder`'s reusable buffer, every
  complete frame goes to a *synchronous* callback as a view into that
  buffer (no copy; valid only during the call), and everything the
  callbacks (or a caller) :meth:`~FramedConnection.send` leaves as one
  frame at the read's end or on :meth:`~FramedConnection.flush`.
- :class:`StreamClientTransport` — one outgoing connection with explicit
  :meth:`connect` and bounded-retry :meth:`reconnect` (exponential
  backoff).
- :class:`StreamServerTransport` — a listener; every inbound frame is
  handed to the callback together with the connection it arrived on
  (which is how responses go back).

Both ends speak :mod:`repro.net.framing`; what the frames *mean* is the
next layer up (:mod:`repro.net.procserver`).
"""

from __future__ import annotations

import asyncio
import zlib
from typing import Callable, Optional

from ..core.message import (
    KIND_REQUEST, KIND_RESPONSE, ONE_RECORD, ONE_RECORD_OVERHEAD, pack_crc, seal)
from ..transport.topology import Endpoint
from .framing import FrameDecoder, FramingError, encode_frame, pack_length

__all__ = [
    "TransportClosed",
    "FramedConnection",
    "StreamClientTransport",
    "StreamServerTransport",
]


class TransportClosed(ConnectionError):
    """The peer went away and (for clients) reconnection was exhausted."""


#: Synchronous callback invoked per inbound frame: (connection, frame body).
#: The body is a ``memoryview`` into the connection's receive buffer, valid
#: only until the callback returns: decode it there, or copy what outlives it.
FrameHandler = Callable[["FramedConnection", memoryview], None]
#: Invoked once when a connection is gone: (connection, reason) — None for
#: EOF or a local close, else the socket error or :class:`FramingError`.
LostHandler = Callable[["FramedConnection", Optional[Exception]], None]


class FramedConnection(asyncio.BufferedProtocol):
    """One framed TCP connection, as either end sees it.

    The records :meth:`send` queues leave as one frame (more only past a
    frame's bound) at the end of the read that produced them (a server
    answering a batch) or on an explicit :meth:`flush` (a client posting
    one, or waiting), with no callback scheduled per record or batch.
    The dialling end sends requests; the accepting end, responses.
    """

    def __init__(self, on_frame: FrameHandler, on_lost: LostHandler, *,
                 accepting: bool = False):
        self._on_frame = on_frame
        self._on_lost = on_lost
        self._kind = KIND_RESPONSE if accepting else KIND_REQUEST
        self._envelope, self._envelope_crc = ONE_RECORD[self._kind]
        #: The accepting end stops *reading* while its writes are paused
        #: (every frame read queues one to write, so a peer that does not
        #: read would grow this process without bound).  The dialling end
        #: keeps reading — two paused peers would deadlock — and its
        #: writers wait in :meth:`flush` instead.
        self._throttle_reads = accepting
        self._loop = asyncio.get_running_loop()
        self._decoder = FrameDecoder()
        self._transport: Optional[asyncio.Transport] = None
        #: True from connection_made until a close starts or the peer is lost.
        self.is_open = False
        self._queued: list[bytes] = []
        self._resumed: Optional[asyncio.Future] = None
        self._error: Optional[Exception] = None
        #: Resolved once the connection is fully gone.
        self.closed: asyncio.Future = self._loop.create_future()

    # -- asyncio protocol callbacks ----------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        if self.closed.done():  # close() came first: hang up
            transport.close()
        else:
            self.is_open = True

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._decoder.writable()

    def buffer_updated(self, nbytes: int) -> None:
        try:
            self._decoder.commit(nbytes, self._deliver)
        except FramingError as exc:
            # A hostile or corrupt length prefix: the stream can never
            # be re-framed, so this connection (only) is dropped.
            self._error = exc
            self.is_open = False
            self._transport.abort()
        if self._queued:  # what the callbacks sent leaves as one frame
            self.flush()

    def _deliver(self, body: memoryview) -> None:
        if self.is_open:  # a callback may have closed us mid-batch
            self._on_frame(self, body)

    def pause_writing(self) -> None:
        self._resumed = self._loop.create_future()
        if self._throttle_reads:
            self._transport.pause_reading()

    def resume_writing(self) -> None:
        resumed, self._resumed = self._resumed, None
        if resumed is not None and not resumed.done():
            resumed.set_result(None)
        if self._throttle_reads:
            self._transport.resume_reading()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.is_open = False
        self.resume_writing()  # a dead connection must not strand writers
        if not self.closed.done():
            self.closed.set_result(None)
        self._on_lost(self, exc or self._error)

    # -- the API the layers above use --------------------------------------

    def send(self, record: bytes) -> None:
        """Queue one record (see the class docstring for when it leaves)."""
        if not self.is_open:
            raise TransportClosed("connection is closed")
        self._queued.append(record)

    def flush(self) -> Optional[asyncio.Future]:
        """Write everything queued, one call per frame.  Returns None, or —
        while the transport has asked writers to pause — the future to
        wait on (through ``asyncio.shield``: every waiter shares it)."""
        queued = self._queued
        if queued and self.is_open:
            self._queued = []
            if len(queued) == 1:  # seal's bytes, the envelope's CRC continued
                (record,) = queued
                self._transport.write(b"".join((
                    pack_length(len(record) + ONE_RECORD_OVERHEAD), self._envelope, record,
                    pack_crc(zlib.crc32(record, self._envelope_crc)))))
            else:
                for frame in seal(self._kind, queued):
                    self._transport.write(encode_frame(frame))
        return self._resumed

    def close(self) -> asyncio.Future:
        """Start a graceful close (queued frames are written first);
        returns the awaitable :attr:`closed`."""
        if self.is_open:
            self.flush()
            self.is_open = False
            self._transport.close()
        elif self._transport is None and not self.closed.done():
            # Accepted but not yet given its transport: nothing to wait
            # for, and connection_made hangs up when it arrives.
            self.closed.set_result(None)
        return self.closed


class StreamClientTransport:
    """One framed client connection with bounded reconnect."""

    def __init__(
        self,
        endpoint: Endpoint,
        on_frame: FrameHandler,
        on_lost: LostHandler,
        *,
        max_attempts: int = 5,
        backoff_s: float = 0.05,
        connect_timeout_s: float = 5.0,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.endpoint = endpoint
        self.on_frame = on_frame
        self.on_lost = on_lost
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.connect_timeout_s = connect_timeout_s
        self.reconnects = 0
        #: The live connection (the owner sends and flushes on it); ``on_lost``
        #: callers compare against it to tell its loss from a replaced one's.
        self.connection: Optional[FramedConnection] = None

    async def connect(self) -> None:
        """Establish the connection, retrying with exponential backoff."""
        loop = asyncio.get_running_loop()
        last: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            try:
                # A peer that accepts the SYN but never completes the
                # handshake would otherwise stall this attempt forever;
                # the timeout folds into the ordinary retry/backoff path.
                _, connection = await asyncio.wait_for(
                    loop.create_connection(
                        lambda: FramedConnection(self.on_frame, self.on_lost),
                        self.endpoint.host, self.endpoint.port,
                    ),
                    timeout=self.connect_timeout_s,
                )
                if not connection.is_open:
                    # Lost again before this task resumed; on_lost could
                    # not yet recognise it as ours, so retry from here.
                    raise ConnectionResetError("closed during connect")
                self.connection = connection
                return
            except (OSError, asyncio.TimeoutError) as exc:
                last = exc
                await asyncio.sleep(self.backoff_s * (2 ** attempt))
        raise TransportClosed(
            f"could not connect to {self.endpoint} after "
            f"{self.max_attempts} attempts: {last}"
        )

    async def reconnect(self) -> None:
        """Drop the current connection (if any) and establish a new one."""
        await self.close()
        await self.connect()
        self.reconnects += 1

    async def close(self) -> None:
        connection, self.connection = self.connection, None
        if connection is not None:
            await connection.close()


class StreamServerTransport:
    """A framed listener: every accepted connection is a
    :class:`FramedConnection` feeding one frame callback."""

    def __init__(self, endpoint: Endpoint, on_frame: FrameHandler):
        self.endpoint = endpoint
        self.on_frame = on_frame
        self.accepted = 0
        self._stopped = False
        self._server: Optional[asyncio.base_events.Server] = None
        # A dict, not a set: insertion order, so shutdown walks
        # connections oldest-first instead of in hash order.
        self._connections: dict[FramedConnection, None] = {}

    async def start(self) -> Endpoint:
        """Open the listener; returns the *bound* endpoint (resolving an
        ephemeral port 0 to the OS-assigned one)."""
        self._server = await asyncio.get_running_loop().create_server(
            self._accept, self.endpoint.host, self.endpoint.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        self.endpoint = Endpoint(host, port)
        return self.endpoint

    def _accept(self) -> FramedConnection:
        connection = FramedConnection(self.on_frame, self._forget, accepting=True)
        if self._stopped:
            connection.close()  # the kernel took it before stop(): hang up
        else:
            self.accepted += 1
            self._connections[connection] = None
        return connection

    def _forget(self, connection: FramedConnection, _exc: Optional[Exception]) -> None:
        self._connections.pop(connection, None)

    async def stop(self) -> None:
        """Close the listener and every live connection."""
        self._stopped = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # Connections before wait_closed(): from Python 3.12 on it waits
        # for every accepted connection, so the other order never
        # returns while a client is still connected.
        for connection in list(self._connections):
            await connection.close()
        if server is not None:
            await server.wait_closed()
