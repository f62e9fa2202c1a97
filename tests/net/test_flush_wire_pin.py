"""The bytes a flush writes, pinned.

Every case queues records on a :class:`FramedConnection` over a fake
transport, flushes once and pins what ``transport.write`` received: the
size of each write and the SHA-256 of all of them joined.  The values were
captured before the flush path was rewritten, so any rewrite of it (one
record or many, either end, past the frame bound) must write the same
bytes in the same writes.  ``tests/core/test_wire.py`` pins the layout of
a record; this pins what a connection makes of a batch of them.
"""

import asyncio
import hashlib

import pytest

from repro.core.message import (
    PoolBinding,
    RpcRequest,
    RpcResponse,
    TraceContext,
    encode_request_record,
    encode_response_record,
)
from repro.net.transport import FramedConnection

_PAYLOADS = (None, "text", {"k": [1, 2.5, "v"]}, "ü" * 3)


def _stamps(i: int) -> tuple:
    """Odd records carry clock stamps; even ones only the two ids."""
    return (i * 1_000, i * 1_000 + 7) if i % 2 else (0, 0)


def _request(i: int, variant: str) -> bytes:
    trace = None
    if variant == "traced":
        trace = TraceContext(0x1234_5678 + i, 0x9ABC + i, *_stamps(i))
    return encode_request_record(RpcRequest(
        client_id=3, rpc_type="echo" if i % 2 else "op", payload=_PAYLOADS[i % 4],
        data_bytes=32 + i, req_id=1_000 + i, created_ns=5_000 + i, trace=trace))


def _response(i: int, variant: str) -> bytes:
    trace = binding = None
    if variant == "traced":
        trace = TraceContext(0x1234_5678 + i, 0x9ABC + i, *_stamps(i))
    elif variant == "binding":
        binding = PoolBinding(0x10_0000, 0x10_0000 + 64 * i, 64, 2, i)
    return encode_response_record(RpcResponse(
        req_id=1_000 + i, client_id=3, payload=_PAYLOADS[i % 4], data_bytes=32 + i,
        failed=i % 5 == 4, context_switch=i % 3 == 2, binding=binding, trace=trace))


class _Transport:
    def __init__(self):
        self.writes: list = []

    def write(self, data) -> None:
        self.writes.append(bytes(data))


def _flushed(accepting: bool, records: list) -> list:
    async def scenario():
        connection = FramedConnection(lambda *_: None, lambda *_: None,
                                      accepting=accepting)
        transport = _Transport()
        connection.connection_made(transport)
        for record in records:
            connection.send(record)
        connection.flush()
        return transport.writes

    return asyncio.run(scenario())


def _digest(writes: list) -> tuple:
    return [len(w) for w in writes], hashlib.sha256(b"".join(writes)).hexdigest()[:32]


#: (kind, variant, records) -> (size of each write, SHA-256 prefix of them joined).
PINNED = {
    ("request", "plain", 1): ([46], "3b24f68fb0af02a10f64ccb0e1bcb7ff"),
    ("request", "plain", 2): ([86], "f14fa457412625e328725ad0a1eae394"),
    ("request", "plain", 16): ([680], "985383286d48ae62dd35ec8bcd27504a"),
    ("request", "traced", 1): ([62], "2aaf1124f7c88ff565101a2cdeabcfa2"),
    ("request", "traced", 2): ([134], "f55e2295eceb6bbee702be7f48381467"),
    ("request", "traced", 16): ([1064], "36b5af5893a5edb633a59f4b0fbea250"),
    ("response", "binding", 1): ([70], "e72ecca0a88ceec89b19762b63f33ebd"),
    ("response", "binding", 2): ([132], "aa35cfd75402a8369de8902fa6bc3cf9"),
    ("response", "binding", 16): ([1048], "cfd71d79be772fb142701601e8586ea4"),
    ("response", "plain", 1): ([34], "eff1dcecaf6751018a4a34ac271053e1"),
    ("response", "plain", 2): ([60], "50151a0d56791b916287f9f907fd48aa"),
    ("response", "plain", 16): ([472], "b2c6607f4aaa735a83ed2fb413c75773"),
    ("response", "traced", 1): ([50], "9eaf664f75c4b1bb74a1fc2198b26cf3"),
    ("response", "traced", 2): ([108], "acd90510f5b30557010e0a4e3adc715d"),
    ("response", "traced", 16): ([856], "fb9b86a99b7edb0c3aaabbe9d9325e90"),
}


@pytest.mark.parametrize("kind, variant, count", sorted(PINNED))
def test_a_flush_writes_the_pinned_bytes(kind, variant, count):
    make = _request if kind == "request" else _response
    writes = _flushed(kind == "response", [make(i, variant) for i in range(count)])
    assert _digest(writes) == PINNED[kind, variant, count]


#: 300 records of 4 KiB in one flush: more than one frame's bound.
PINNED_OVER_BOUND = ([1045408, 194216], "2b7aec851039bbebe92a14894a5da9d8")


def test_a_flush_over_the_frame_bound_writes_the_pinned_frames():
    records = [encode_request_record(RpcRequest(
        client_id=3, rpc_type="echo", payload=f"{i:04d}" * 1_024, data_bytes=4_096,
        req_id=1_000 + i, created_ns=5_000 + i)) for i in range(300)]
    writes = _flushed(False, records)
    assert len(writes) >= 2
    assert _digest(writes) == PINNED_OVER_BOUND
