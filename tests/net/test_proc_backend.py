"""The real-process backend: registry dispatch, echo RPCs over asyncio
loopback sockets, reconnect recovery, and obs reuse.

There is no pytest-asyncio in the toolchain; each test drives its
scenario with ``asyncio.run`` directly.
"""

import asyncio
import socket
import struct
import zlib

import pytest

from repro.core.message import (
    MAX_WIRE_BYTES,
    WIRE_VERSION,
    RpcRequest,
    RpcResponse,
    WireFormatError,
    decode_request,
    decode_requests,
    decode_response,
    encode_request,
    encode_response,
    encode_response_record,
)
from repro.net import (
    FrameDecoder,
    FramingError,
    ProcRpcClient,
    ProcRpcServer,
    StreamServerTransport,
    TransportClosed,
    encode_frame,
)
from repro.net.framing import MAX_FRAME_BYTES
from repro.obs import Observer
from repro.transport import (
    BACKENDS,
    Endpoint,
    Topology,
    TransportError,
    get,
)

LOOPBACK = Endpoint("127.0.0.1", 0)


def _echo(request):
    return request.payload


class TestRegistryBackendDimension:
    def test_backend_names(self):
        assert BACKENDS == ("sim", "proc")

    def test_unknown_backend_lists_available(self):
        with pytest.raises(TransportError, match="sim.*proc"):
            get("scalerpc").build_server(LOOPBACK, _echo, backend="bogus")

    def test_every_transport_builds_a_proc_server(self):
        from repro.transport import names

        for name in names():
            server = get(name).build_server(LOOPBACK, _echo, backend="proc")
            assert isinstance(server, ProcRpcServer)
            assert server.transport_name == name

    def test_topology_rejects_unknown_backend(self):
        with pytest.raises(TransportError, match="backend"):
            Topology.build(backend="bogus")

    def test_proc_topology_has_endpoints_not_sim(self):
        topo = Topology.build(backend="proc")
        assert topo.backend == "proc"
        assert topo.sim is None
        assert topo.endpoint.host == "127.0.0.1"

    def test_proc_topology_base_port(self):
        topo = Topology.build(backend="proc", base_port=9000)
        assert topo.endpoint.port == 9000


class TestEchoOverLoopback:
    def test_sync_call_round_trips(self):
        async def scenario():
            server = ProcRpcServer(LOOPBACK, _echo)
            await server.start()
            client = server.connect()
            await client.connect()
            response = await client.sync_call("echo", payload={"n": [1, 2]})
            await client.close()
            await server.stop()
            return response, server.stats

        response, stats = asyncio.run(scenario())
        assert response.payload == {"n": [1, 2]}
        assert not response.failed
        assert stats.completed == 1 and stats.failed == 0

    def test_batched_calls_complete_in_order(self):
        async def scenario():
            server = ProcRpcServer(LOOPBACK, _echo)
            await server.start()
            client = server.connect()
            await client.connect()
            handles = [
                await client.async_call("echo", payload=i) for i in range(8)
            ]
            await client.flush()
            responses = await client.poll_completions(handles)
            await client.close()
            await server.stop()
            return responses, client.completed

        responses, completed = asyncio.run(scenario())
        assert [r.payload for r in responses] == list(range(8))
        assert completed == 8

    def test_handler_exception_fails_the_rpc_not_the_server(self):
        def handler(request):
            if request.payload == "bad":
                raise ValueError("no")
            return "ok"

        async def scenario():
            server = ProcRpcServer(LOOPBACK, handler)
            await server.start()
            client = server.connect()
            await client.connect()
            bad = await client.sync_call("op", payload="bad")
            good = await client.sync_call("op", payload="fine")
            await client.close()
            await server.stop()
            return bad, good, server.stats

        bad, good, stats = asyncio.run(scenario())
        assert bad.failed and "ValueError" in bad.payload
        assert not good.failed and good.payload == "ok"
        assert stats.failed == 1 and stats.completed == 2

    def test_registry_built_server_serves(self):
        async def scenario():
            server = get("scalerpc").build_server(LOOPBACK, _echo, backend="proc")
            await server.start()
            client = server.connect()
            await client.connect()
            response = await client.sync_call("echo", payload="via-registry")
            await client.close()
            await server.stop()
            return response

        assert asyncio.run(scenario()).payload == "via-registry"


class TestReconnectRecovery:
    def test_dropped_connection_reposts_in_flight(self):
        # A flaky server: drops the connection on the first request, then
        # serves normally.  The client must reconnect and repost.
        seen = []

        def flaky(connection, body):
            request = decode_request(body)
            seen.append(request.req_id)
            if len(seen) == 1:
                connection.close()  # starts the close; nothing to await here
                return
            connection.send(encode_response_record(RpcResponse(
                req_id=request.req_id, client_id=request.client_id,
                payload="recovered",
            )))

        async def scenario():
            listener = StreamServerTransport(LOOPBACK, flaky)
            endpoint = await listener.start()
            client = ProcRpcClient(endpoint, backoff_s=0.01)
            await client.connect()
            response = await client.sync_call("echo", payload="x")
            reconnects = client.reconnects
            await client.close()
            await listener.stop()
            return response, reconnects

        response, reconnects = asyncio.run(scenario())
        assert response.payload == "recovered"
        assert reconnects == 1
        assert len(seen) == 2 and seen[0] == seen[1]  # same req_id reposted

    def test_a_post_that_cannot_be_encoded_leaves_nothing_to_repost(self):
        # The post raises, and no handle stays behind: had one stayed, the
        # recovery after the drop below would re-encode it, crash, and
        # fail every in-flight call with its WireFormatError.
        dropped = []

        def flaky(connection, body):
            if not dropped:
                dropped.append(True)
                connection.close()
                return
            for request in decode_requests(body):
                connection.send(encode_response_record(RpcResponse(
                    request.req_id, request.client_id, request.payload)))

        async def scenario():
            listener = StreamServerTransport(LOOPBACK, flaky)
            client = ProcRpcClient(await listener.start(), backoff_s=0.01)
            await client.connect()
            try:
                with pytest.raises(WireFormatError):
                    await client.async_call("echo", payload=object())
                leaked = client.outstanding
                handles = [await client.async_call("echo", payload=i) for i in range(3)]
                await client.flush()
                responses = await asyncio.wait_for(client.poll_completions(handles), 5)
                return leaked, [r.payload for r in responses], client.reconnects
            finally:
                await client.close()
                await listener.stop()

        assert asyncio.run(scenario()) == (0, [0, 1, 2], 1)

    def test_exhausted_reconnect_fails_outstanding_calls(self):
        async def scenario():
            listener = StreamServerTransport(LOOPBACK, lambda connection, body: None)
            endpoint = await listener.start()
            client = ProcRpcClient(endpoint, max_attempts=1, backoff_s=0.01)
            await client.connect()
            await listener.stop()  # the server is gone for good
            try:
                with pytest.raises(TransportClosed):
                    await client.sync_call("echo", payload="x")
            finally:
                await client.close()
            return client.outstanding

        assert asyncio.run(scenario()) == 0


    def test_stop_returns_while_a_client_is_still_connected(self):
        # Python >= 3.12's Server.wait_closed() waits for every accepted
        # connection: stop() must close those first or it never returns.
        async def scenario():
            server = ProcRpcServer(LOOPBACK, _echo)
            await server.start()
            client = ProcRpcClient(server.endpoint, max_attempts=1, backoff_s=0.01)
            await client.connect()
            await client.sync_call("echo", payload="x")
            await asyncio.wait_for(server.stop(), 5)
            await asyncio.wait_for(client.close(), 5)

        asyncio.run(scenario())

    def test_stop_hangs_up_on_accepts_it_races(self):
        # The kernel completes handshakes ahead of the loop, so stop()
        # can meet a connection asyncio has accepted (protocol built)
        # but not yet given its transport, or see one accepted after it.
        class Transport:
            closed = False

            def close(self):
                self.closed = True

        async def scenario():
            listener = StreamServerTransport(LOOPBACK, lambda connection, body: None)
            await listener.start()
            early = listener._accept()  # what asyncio calls per accept
            await asyncio.wait_for(listener.stop(), 5)  # nothing to wait for
            late = listener._accept()
            transports = Transport(), Transport()
            early.connection_made(transports[0])
            late.connection_made(transports[1])
            return [t.closed for t in transports], early.is_open, late.is_open

        assert asyncio.run(scenario()) == ([True, True], False, False)

    def test_corrupt_stream_fails_outstanding_calls_at_once(self):
        # A server whose bytes stop being frames: nothing can re-frame
        # the stream, so the pending call fails now — no reconnect.
        def garbage(connection, body):
            connection._transport.write(struct.pack("!I", MAX_FRAME_BYTES + 1))

        async def scenario():
            listener = StreamServerTransport(LOOPBACK, garbage)
            endpoint = await listener.start()
            client = ProcRpcClient(endpoint, backoff_s=0.01)
            await client.connect()
            try:
                with pytest.raises(FramingError):
                    await asyncio.wait_for(client.sync_call("echo", payload="x"), 5)
            finally:
                await client.close()
                await listener.stop()
            return client.outstanding, client.reconnects

        assert asyncio.run(scenario()) == (0, 0)

    def test_corrupt_response_frame_is_counted_and_its_call_left_pending(self):
        # Well framed but CRC-corrupt: the stream survives, so nothing
        # reconnects, and the call it answered cannot be identified.
        def corrupting(connection, body):
            request = decode_request(body)
            wire = bytearray(encode_response(RpcResponse(
                request.req_id, request.client_id, request.payload)))
            if request.payload == "corrupt":
                wire[-1] ^= 0xFF
            connection._transport.write(encode_frame(bytes(wire)))  # as framed

        async def scenario():
            listener = StreamServerTransport(LOOPBACK, corrupting)
            endpoint = await listener.start()
            client = ProcRpcClient(endpoint, backoff_s=0.01)
            await client.connect()
            try:
                lost = await client.async_call("echo", payload="corrupt")
                after = await asyncio.wait_for(client.sync_call("echo", payload="ok"), 5)
                return (after.payload, lost.done, client.outstanding,
                        client.decode_errors, client.reconnects)
            finally:
                await client.close()
                await listener.stop()

        assert asyncio.run(scenario()) == ("ok", False, 1, 1, 0)


def _count_writes(connection) -> list:
    """Wrap the asyncio transport's ``write`` under ``connection``; the
    returned list grows by one length per call."""
    sizes: list = []
    transport = connection._transport
    write = transport.write

    def counted(data):
        sizes.append(len(data))
        write(data)

    transport.write = counted
    return sizes


def _server_connection(server: ProcRpcServer):
    (connection,) = server._listener._connections
    return connection


class TestDataPath:
    """The event-driven path: one write per batch, flush on demand or per
    loop turn, frames larger than the receive buffer, backpressure."""

    def test_a_batch_is_one_write_each_way(self):
        async def scenario():
            server = ProcRpcServer(LOOPBACK, _echo)
            await server.start()
            client = server.connect()
            await client.connect()
            await client.sync_call("echo", payload="warm")  # connection is up
            sent = _count_writes(client.transport.connection)
            answered = _count_writes(_server_connection(server))
            handles = [
                await client.async_call("echo", payload=i) for i in range(16)
            ]
            await client.flush()
            responses = await asyncio.wait_for(client.poll_completions(handles), 5)
            await client.close()
            await server.stop()
            return responses, sent, answered

        responses, sent, answered = asyncio.run(scenario())
        assert [r.payload for r in responses] == list(range(16))
        assert len(sent) == 1  # 16 request frames, one transport.write
        assert len(answered) == 1  # read together, answered together

    def test_posts_without_flush_still_complete(self):
        async def scenario():
            server = ProcRpcServer(LOOPBACK, _echo)
            await server.start()
            client = server.connect()
            await client.connect()
            sent = _count_writes(client.transport.connection)
            handles = [
                await client.async_call("echo", payload=i) for i in range(5)
            ]
            responses = await asyncio.wait_for(client.poll_completions(handles), 5)
            await client.close()
            await server.stop()
            return responses, sent

        responses, sent = asyncio.run(scenario())
        assert [r.payload for r in responses] == list(range(5))
        assert len(sent) == 1  # the loop turn's single deferred flush

    def test_a_flush_over_the_frame_bound_crosses_as_several_frames(self):
        n_calls, payload = 300, "q" * 4096  # ~1.2 MB: more than one frame holds

        async def scenario():
            server = ProcRpcServer(LOOPBACK, _echo)
            await server.start()
            client = server.connect()
            await client.connect()
            await client.sync_call("echo", payload="warm")
            connection = client.transport.connection
            write, written = connection._transport.write, []
            connection._transport.write = lambda data: (written.append(bytes(data)),
                                                        write(data))
            try:
                with pytest.raises(WireFormatError, match="limit"):
                    await client.async_call("echo", payload="x" * MAX_WIRE_BYTES)
                handles = [await client.async_call("echo", payload=payload)
                           for _ in range(n_calls)]
                await client.flush()
                responses = await asyncio.wait_for(client.poll_completions(handles), 20)
            finally:
                await client.close()
                await server.stop()
            return written, responses

        written, responses = asyncio.run(scenario())
        frames = FrameDecoder().feed(b"".join(written))
        assert len(frames) >= 2  # one flush, several frames, each within the bound
        assert all(len(frame) <= MAX_WIRE_BYTES for frame in frames)
        assert sum(len(decode_requests(frame)) for frame in frames) == n_calls
        assert [r.payload for r in responses] == [payload] * n_calls

    @pytest.mark.parametrize("size", [70_000, 300_000, 1_000_000])
    def test_payloads_larger_than_the_receive_buffer_round_trip(self, size):
        async def scenario():
            server = ProcRpcServer(LOOPBACK, _echo)
            await server.start()
            client = server.connect()
            await client.connect()
            payload = "p" * size
            big = await asyncio.wait_for(client.sync_call("echo", payload=payload), 10)
            small = await asyncio.wait_for(client.sync_call("echo", payload="after"), 10)
            reconnects = client.reconnects
            await client.close()
            await server.stop()
            return big.payload == payload, small.payload, reconnects, server.stats

        intact, after, reconnects, stats = asyncio.run(scenario())
        assert intact and after == "after"
        assert reconnects == 0 and stats.completed == 2 and stats.decode_errors == 0

    def test_peer_that_stops_reading_pauses_the_server_connection(self):
        n_calls, payload = 400, "b" * 16384  # ~6.5 MB each way

        async def until(condition):
            while not condition():
                await asyncio.sleep(0.005)

        async def scenario():
            server = ProcRpcServer(LOOPBACK, _echo)
            await server.start()
            client = ProcRpcClient(server.endpoint)
            await client.connect()
            await client.sync_call("echo", payload="warm")
            # Fixed kernel buffers between server and client (autotuning
            # would absorb megabytes), so a client that stops reading
            # backs up into the server quickly.  Not below loopback's
            # 64 KiB MSS: TCP then crawls on zero-window probe timers.
            client_side = client.transport.connection._transport
            server_side = _server_connection(server)._transport
            client_side.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, 131072)
            server_side.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 131072)
            server_side.set_write_buffer_limits(high=4096)
            client_side.pause_reading()  # the peer stops reading

            handles: list = []

            async def post_all():
                for _ in range(n_calls):
                    handles.append(await client.async_call("echo", payload=payload))
                    await client.flush()

            poster = asyncio.ensure_future(post_all())
            try:
                await asyncio.wait_for(until(lambda: not server_side.is_reading()), 10)
                await asyncio.sleep(0.05)  # paused means paused: nothing grows now
                stalled = (server.stats.completed, server_side.get_write_buffer_size())
                client_side.resume_reading()  # ...and reads again
                await asyncio.wait_for(poster, 20)
                responses = await asyncio.wait_for(client.poll_completions(handles), 20)
            finally:
                poster.cancel()
                await client.close()
                await server.stop()
            return stalled, responses, server.stats.completed

        (completed, queued), responses, total = asyncio.run(scenario())
        # Stopped early, holding about one read's worth of answers — not
        # the whole 6.5 MB a server that kept reading would have queued.
        assert completed < n_calls // 2
        assert queued < 256 * 1024
        assert total == n_calls + 1
        assert len(responses) == n_calls
        assert all(r.payload == payload and not r.failed for r in responses)

    def test_hostile_bytes_cost_one_connection_not_the_server(self):
        async def read_frames(loop, sock, decoder, count):
            frames: list = []
            while len(frames) < count:
                data = await asyncio.wait_for(loop.sock_recv(sock, 65536), 5)
                assert data, "server closed a well-framed connection"
                frames.extend(decoder.feed(data))
            return frames

        async def raw_peer(loop, endpoint):
            sock = socket.socket()
            sock.setblocking(False)
            await asyncio.wait_for(
                loop.sock_connect(sock, (endpoint.host, endpoint.port)), 5)
            return sock

        def sealed(tail, flags, version=WIRE_VERSION):
            # A one-record request frame the CRC check accepts, so the
            # record parser is what has to refuse the body.
            body = (struct.pack("!BBH", 1, version, 1)
                    + struct.pack("!HIQII", flags, 7, 1, 0, len(tail)) + tail)
            return body + struct.pack("<I", zlib.crc32(body))

        echo_fixed = struct.pack("!qH", 0, 4) + b"echo"
        v1_tail = b'{"created_ns":0,"payload":null,"rpc_type":"echo"}'
        malformed = [
            sealed(echo_fixed + b"[" * 200_000, 2 << 5),  # deep-nested json payload
            sealed(echo_fixed + b"\x00" * 15, 1 << 2),    # truncated trace section
            sealed(struct.pack("!qH", 0, 9) + b"echo", 0),  # rpc_type_len overrun
            struct.pack("!BBHIQIII", 1, 1, 0, 7, 1, 0, len(v1_tail),
                        zlib.crc32(v1_tail)) + v1_tail,    # a version-1 frame
        ]
        loop_errors: list = []

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, context: loop_errors.append(context))
            server = ProcRpcServer(LOOPBACK, _echo)
            endpoint = await server.start()
            good = ProcRpcClient(endpoint, client_id=1)
            await good.connect()
            before = await good.sync_call("echo", payload="before")

            # Peer 1: a length prefix over the bound -> connection dropped.
            hostile = await raw_peer(loop, endpoint)
            corrupt = await raw_peer(loop, endpoint)
            try:
                await loop.sock_sendall(hostile, struct.pack("!I", MAX_FRAME_BYTES + 1))
                try:
                    dropped = await asyncio.wait_for(loop.sock_recv(hostile, 1), 5) == b""
                except ConnectionResetError:
                    dropped = True

                # Peer 2: well framed, CRC-corrupt body -> counted and
                # skipped; the same connection still gets answers after.
                request = RpcRequest(client_id=7, rpc_type="echo", payload="raw")
                wire = bytearray(encode_request(request))
                wire[-1] ^= 0xFF
                await loop.sock_sendall(corrupt, encode_frame(bytes(wire)))
                await loop.sock_sendall(corrupt, encode_frame(encode_request(request)))
                decoder = FrameDecoder()
                (answer,) = await read_frames(loop, corrupt, decoder, 1)

                # Same peer: well framed, CRC-valid, malformed inside.  Each
                # costs one decode error — no exception reaches the loop —
                # and the good request behind it is still answered, while
                # the other client keeps completing calls.
                errors_after = []
                for body in malformed:
                    await loop.sock_sendall(corrupt, encode_frame(body))
                    await loop.sock_sendall(corrupt, encode_frame(encode_request(request)))
                    (again,) = await read_frames(loop, corrupt, decoder, 1)
                    assert decode_response(again).payload == "raw"
                    errors_after.append(server.stats.decode_errors)
                    during = await asyncio.wait_for(
                        good.sync_call("echo", payload="during"), 5)
                    assert during.payload == "during"
            finally:
                hostile.close()
                corrupt.close()

            after = await asyncio.wait_for(good.sync_call("echo", payload="after"), 5)
            reconnects = good.reconnects
            await good.close()
            await server.stop()
            return (dropped, decode_response(answer), before, after, reconnects,
                    server.stats, errors_after)

        dropped, answer, before, after, reconnects, stats, errors_after = (
            asyncio.run(scenario()))
        assert dropped
        assert answer.payload == "raw" and answer.client_id == 7
        assert errors_after == [2, 3, 4, 5]  # the CRC-corrupt body was the first
        assert stats.decode_errors == 1 + len(malformed) and stats.failed == 0
        assert (before.payload, after.payload) == ("before", "after")
        assert reconnects == 0 and stats.completed == 3 + 2 * len(malformed)
        assert loop_errors == []


class TestObsReuse:
    def test_proc_path_emits_sim_stage_names(self):
        obs = Observer(meta={"backend": "proc"})

        async def scenario():
            server = ProcRpcServer(LOOPBACK, _echo, obs=obs)
            await server.start()
            client = server.connect()
            await client.connect()
            await client.sync_call("echo", payload="traced")
            await client.close()
            await server.stop()

        asyncio.run(scenario())
        artifact = obs.finish()
        stages = {
            stage[0] for rpc in artifact["rpcs"] for stage in rpc["stages"]
        }
        # The same lifecycle vocabulary the sim backend emits.
        assert {"post", "dispatch", "exec", "done", "complete"} <= stages
        tracks = {span["track"] for span in artifact["spans"]}
        assert "server.scalerpc" in tracks


class TestSubprocessSmoke:
    def test_one_server_two_client_processes(self):
        from repro.net import ProcWorkload, run_proc_workload

        workload = ProcWorkload(n_clients=2, ops_per_client=6, batch_size=3)
        result = run_proc_workload(workload)
        assert result.completed_ops == workload.requested_ops == 12
        assert result.server["completed"] == 12
        assert result.obs_spans > 0 and result.obs_rpcs > 0
        assert result.wall_ns > 0
