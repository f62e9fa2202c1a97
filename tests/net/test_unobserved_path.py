"""An unobserved proc RPC does only the work its checks require.

With no observer installed and untraced requests, the server reads no
clock at all, and a client reads it twice per RPC: at post
(``posted_ns``) and at completion (``completed_ns``, which ``CallHandle``
latency and the benchmark's round trips use).  A flushed batch crosses as
one frame each way, and every frame body reaches its decoder as a view
into the connection's receive buffer, never as a copy.  Counted, not
timed, like ``tests/sim/test_no_frozen_records.py``: one echo batch runs
under ``sys.setprofile`` after a warm-up call.
"""

import asyncio
import sys
from collections import Counter

from repro.net import ProcRpcClient, ProcRpcServer, procserver
from repro.net.clock import Clock
from repro.transport import Endpoint

BATCH = 16


def test_unobserved_echo_batch_reads_clocks_only_for_the_handle(monkeypatch):
    bodies = []  # (type of the body, type of the memory it views)
    for name in ("decode_requests", "decode_responses"):
        def recording(body, decode=getattr(procserver, name)):
            bodies.append((type(body), type(getattr(body, "obj", None))))
            return decode(body)
        monkeypatch.setattr(procserver, name, recording)

    reads = Counter()
    copies = 0

    def profiler(frame, event, arg):
        nonlocal copies
        if event == "call" and frame.f_code is Clock.now.__code__:
            reads[frame.f_locals["self"]] += 1
        elif event == "c_call" and getattr(arg, "__name__", None) == "tobytes":
            copies += 1

    async def scenario():
        server = ProcRpcServer(Endpoint("127.0.0.1", 0), lambda request: request.payload)
        client = ProcRpcClient(await server.start(), client_id=1)
        await client.connect()
        try:
            await asyncio.wait_for(client.sync_call("echo", payload="warm-up"), 5)
            del bodies[:]
            previous = sys.getprofile()
            sys.setprofile(profiler)
            try:
                handles = [await client.async_call("echo", payload=f"p{i}")
                           for i in range(BATCH)]
                await client.flush()
                responses = await asyncio.wait_for(client.poll_completions(handles), 5)
            finally:
                sys.setprofile(previous)
        finally:
            await client.close()
            await server.stop()
        return server.clock, client.clock, responses

    server_clock, client_clock, responses = asyncio.run(scenario())
    assert [r.payload for r in responses] == [f"p{i}" for i in range(BATCH)]
    assert reads[server_clock] == 0
    assert reads[client_clock] == 2 * BATCH
    # One request frame and one response frame for the whole batch.
    assert bodies == [(memoryview, bytearray)] * 2
    assert copies == 0
