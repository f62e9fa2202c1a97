"""The deterministic wire format (repro.core.message encode/decode).

The real-byte backends (repro.net) depend on three properties tested
here: round-trips are lossless, encoding is deterministic byte-for-byte,
and corrupt, malformed or oversized frames raise WireFormatError — and
nothing else — instead of being silently misparsed.  Each holds for a
frame of one record (the ``encode_*`` / ``decode_*`` singulars) and for a
frame of a batch (``seal`` / ``decode_requests`` / ``decode_responses``).

Frames are hand-built here from the layout comment in
``repro/core/message.py`` (``_frame`` / ``_seal``), not from its private
constants: the bits ARE the format.
"""

import struct
import zlib

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.message import (
    KIND_REQUEST,
    KIND_RESPONSE,
    MAX_WIRE_BYTES,
    TRACE_EXT_BYTES,
    TRACE_TS_BYTES,
    WIRE_VERSION,
    PoolBinding,
    RpcRequest,
    RpcResponse,
    TraceContext,
    WireFormatError,
    decode_message,
    decode_request,
    decode_requests,
    decode_response,
    decode_responses,
    encode_request,
    encode_request_record,
    encode_response,
    encode_response_record,
    seal,
)

_ENVELOPE = struct.Struct("!BBH")  # kind | version | record count
_RECORD = struct.Struct("!HIQII")  # flags | client_id | req_id | data_bytes | tail_len
_CRC = struct.Struct("<I")
_HEAD = _ENVELOPE.size + _RECORD.size  # a one-record frame's bytes before its tail
_V2_HEADER = struct.Struct("!BBHIQII")  # versions 1 and 2: one message per frame

_REQUEST, _RESPONSE = 1, 2
_FLAG_FAILED = 1 << 0
_FLAG_CONTEXT_SWITCH = 1 << 1
_FLAG_TRACE = 1 << 2
_FLAG_TRACE_TS = 1 << 3
_FLAG_BINDING = 1 << 4
_TEXT, _JSON = 1 << 5, 2 << 5  # payload tags; 0 is *none*, 3 is unassigned

U32, U64, I64 = 2**32 - 1, 2**64 - 1, 2**63 - 1


def _frame(kind, records, *, version=WIRE_VERSION, count=None) -> bytes:
    """An envelope and a right CRC around any record bytes."""
    body = _ENVELOPE.pack(kind, version, len(records) if count is None else count)
    body += b"".join(records)
    return body + _CRC.pack(zlib.crc32(body))


def _seal(kind, flags, tail, *, version=WIRE_VERSION, client_id=1, req_id=1,
          data_bytes=0) -> bytes:
    """A well-formed one-record frame (right tail length, right CRC)
    around any tail."""
    record = _RECORD.pack(flags, client_id, req_id, data_bytes, len(tail)) + tail
    return _frame(kind, [record], version=version)


def _v2_frame(kind, flags, tail, *, version=2, crc=None) -> bytes:
    """A frame of the one-message layout versions 1 and 2 used."""
    header = _V2_HEADER.pack(kind, version, flags, 1, 1, 0, len(tail))
    if crc is None:
        crc = zlib.crc32(tail, zlib.crc32(header))
    return header + struct.pack("!I", crc) + tail


def _tail(frame: bytes) -> bytes:
    """The tail of a one-record frame."""
    return frame[_HEAD:-_CRC.size]


def _request_tail(rpc_type=b"echo", created_ns=0, rest=b"") -> bytes:
    return struct.pack("!qH", created_ns, len(rpc_type)) + rpc_type + rest


def _request(**overrides) -> RpcRequest:
    defaults = dict(client_id=7, rpc_type="echo", payload={"k": [1, 2]},
                    data_bytes=64, req_id=1234, created_ns=5_000)
    defaults.update(overrides)
    return RpcRequest(**defaults)


def _flags(frame: bytes) -> int:
    """The flags of a frame's first record."""
    return _RECORD.unpack_from(frame, _ENVELOPE.size)[0]


def _encode(message) -> bytes:
    if isinstance(message, RpcRequest):
        return encode_request(message)
    return encode_response(message)


def _normalize(payload):
    """What a payload looks like after the wire — the JSON normalisation
    version 1 applied to everything: tuples become lists, and a high
    surrogate directly followed by a low one becomes the code point the
    pair spells (keys that then collide keep the later in sorted order)."""
    if isinstance(payload, (list, tuple)):
        return [_normalize(item) for item in payload]
    if isinstance(payload, dict):
        return {_normalize(key): _normalize(payload[key]) for key in sorted(payload)}
    if isinstance(payload, str):
        return payload.encode("utf-16", "surrogatepass").decode("utf-16", "surrogatepass")
    return payload


def _normalized(message):
    fields = dict(vars(message), payload=_normalize(message.payload))
    return type(message)(**fields)


class TestRequestRoundTrip:
    def test_all_fields_survive(self):
        request = _request()
        decoded = decode_request(encode_request(request))
        assert decoded == request

    def test_empty_payload(self):
        decoded = decode_request(encode_request(_request(payload=None)))
        assert decoded.payload is None

    def test_empty_string_payload(self):
        decoded = decode_request(encode_request(_request(payload="")))
        assert decoded.payload == ""

    def test_tuple_payload_normalizes_to_list(self):
        decoded = decode_request(encode_request(_request(payload=(1, "a"))))
        assert decoded.payload == [1, "a"]

    def test_encoding_is_deterministic(self):
        # Same message, two dict insertion orders -> identical bytes.
        a = _request(payload={"x": 1, "y": 2})
        b = _request(payload={"y": 2, "x": 1})
        assert encode_request(a) == encode_request(b)

    def test_max_size_payload(self):
        # The largest payload that still encodes: fill the frame right up
        # to MAX_WIRE_BYTES.  A text payload is its own UTF-8 bytes, so the
        # headroom over an empty-string frame is exactly the payload size.
        probe = encode_request(_request(payload=""))
        headroom = MAX_WIRE_BYTES - len(probe)
        payload = "x" * headroom
        frame = encode_request(_request(payload=payload))
        assert len(frame) == MAX_WIRE_BYTES
        assert decode_request(frame).payload == payload
        with pytest.raises(WireFormatError, match="limit"):
            encode_request(_request(payload=payload + "x"))

    def test_oversize_payload_rejected_on_encode(self):
        with pytest.raises(WireFormatError, match="limit"):
            encode_request(_request(payload="x" * MAX_WIRE_BYTES))

    def test_non_json_payload_rejected_on_encode(self):
        with pytest.raises(WireFormatError, match="wire-encodable"):
            encode_request(_request(payload=object()))
        with pytest.raises(WireFormatError, match="wire-encodable"):
            encode_request(_request(payload=[1.0, float("nan")]))

    def test_accepts_any_bytes_like_frame(self):
        frame = encode_request(_request())
        for data in (frame, bytearray(frame), memoryview(frame),
                     memoryview(b"junk" + frame)[4:]):
            assert decode_request(data) == _request()
            assert decode_message(data) == _request()

    def test_negative_clock_readings_round_trip(self):
        # A Clock(skew_ns=-...) reading is a legitimate negative instant.
        request = _request(created_ns=-123_456_789)
        assert decode_request(encode_request(request)).created_ns == -123_456_789
        stamps = TraceContext(1, 2, ts_a=-5_000, ts_b=-4_000)
        response = RpcResponse(req_id=9, client_id=3, trace=stamps)
        assert decode_response(encode_response(response)).trace == stamps


class TestResponseRoundTrip:
    def test_plain_response(self):
        response = RpcResponse(req_id=9, client_id=3, payload=[1, None, "z"],
                               data_bytes=48)
        assert decode_response(encode_response(response)) == response

    def test_flags_survive(self):
        response = RpcResponse(req_id=9, client_id=3, payload="boom",
                               failed=True, context_switch=True)
        decoded = decode_response(encode_response(response))
        assert decoded.failed and decoded.context_switch

    def test_binding_survives(self):
        binding = PoolBinding(pool_base=4096, slot_base=8192,
                              slot_bytes=1024, epoch=3, seq=7)
        response = RpcResponse(req_id=9, client_id=3, binding=binding)
        assert decode_response(encode_response(response)).binding == binding

    def test_no_binding_decodes_to_none(self):
        response = RpcResponse(req_id=9, client_id=3)
        assert decode_response(encode_response(response)).binding is None


class TestCorruptFrames:
    def test_truncated_header(self):
        with pytest.raises(WireFormatError, match="truncated"):
            decode_request(encode_request(_request())[: _HEAD - 1])

    def test_flipped_tail_byte_fails_crc(self):
        frame = bytearray(encode_request(_request()))
        frame[-1] ^= 0xFF
        with pytest.raises(WireFormatError, match="CRC"):
            decode_request(bytes(frame))

    def test_flipped_header_bit_fails_crc(self):
        # The CRC covers the header too: a flipped req_id bit must not
        # decode cleanly as a different message.
        frame = bytearray(encode_request(_request()))
        frame[17] ^= 0x01  # lowest bit of req_id
        with pytest.raises(WireFormatError, match="CRC"):
            decode_request(bytes(frame))

    def test_truncated_tail_rejected(self):
        # No field gives a frame's total length (the stream framing does),
        # so what refuses a cut frame is the CRC that must end it.
        frame = encode_request(_request())
        with pytest.raises(WireFormatError, match="CRC"):
            decode_request(frame[:-1])

    def test_unknown_version_rejected(self):
        frame = bytearray(encode_request(_request()))
        frame[1] = WIRE_VERSION + 1
        with pytest.raises(WireFormatError, match="version"):
            decode_request(bytes(frame))

    def test_version_1_frame_rejected(self):
        # The canonical-JSON format this one replaced; there is no second
        # decoder.  (Version 1's CRC covered the tail only.)
        tail = b'{"created_ns":0,"payload":null,"rpc_type":"echo"}'
        frame = _v2_frame(_REQUEST, 0, tail, version=1, crc=zlib.crc32(tail))
        for decode in (decode_request, decode_message):
            with pytest.raises(WireFormatError, match="unknown wire version 1"):
                decode(frame)

    def test_version_2_frame_rejected(self):
        # One message per frame, its CRC after the header: the layout
        # version 3 replaced.  Kind and version still lead, so it is named.
        request = _v2_frame(_REQUEST, _TEXT, _request_tail(rest=b"hi"))
        response = _v2_frame(_RESPONSE, _TEXT, b"hi")
        for decode, frame in ((decode_request, request), (decode_requests, request),
                              (decode_message, request), (decode_response, response),
                              (decode_responses, response), (decode_message, response)):
            with pytest.raises(WireFormatError, match="unknown wire version 2"):
                decode(frame)

    def test_unknown_kind_rejected(self):
        frame = _seal(99, 0, _request_tail())
        for decode in (decode_message, decode_request, decode_response):
            with pytest.raises(WireFormatError, match="unknown message kind 99"):
                decode(frame)

    def test_request_frame_is_not_a_response(self):
        with pytest.raises(WireFormatError, match="expected a response"):
            decode_response(encode_request(_request()))
        with pytest.raises(WireFormatError, match="expected a request"):
            decode_request(encode_response(RpcResponse(req_id=9, client_id=3)))

    def test_oversized_frame_rejected_before_parse(self):
        with pytest.raises(WireFormatError, match="limit"):
            decode_request(b"\x01" * (MAX_WIRE_BYTES + 1))

    def test_empty_frame(self):
        with pytest.raises(WireFormatError, match="empty"):
            decode_message(b"")

    def test_malformed_tail_shape(self):
        # Valid envelope, wrong schema: a tail too short to hold the
        # request's fixed fields, and an rpc_type that is not UTF-8.
        with pytest.raises(WireFormatError, match="malformed request"):
            decode_request(_seal(_REQUEST, 0, b"\x00" * 9))
        with pytest.raises(WireFormatError, match="malformed request"):
            decode_request(_seal(_REQUEST, 0, _request_tail(rpc_type=b"\xff\xfe")))

    def test_rpc_type_len_overrun_rejected(self):
        tail = struct.pack("!qH", 0, 5) + b"echo"  # says 5, holds 4
        with pytest.raises(WireFormatError, match="rpc_type_len 5 overruns"):
            decode_request(_seal(_REQUEST, 0, tail))

    def test_unknown_flag_bits_rejected(self):
        for bit in range(7, 16):
            with pytest.raises(WireFormatError, match="flag bits"):
                decode_request(_seal(_REQUEST, 1 << bit, _request_tail()))
            with pytest.raises(WireFormatError, match="flag bits"):
                decode_response(_seal(_RESPONSE, 1 << bit, b""))

    def test_response_only_flags_rejected_on_a_request(self):
        for flag in (_FLAG_FAILED, _FLAG_CONTEXT_SWITCH, _FLAG_BINDING):
            frame = _seal(_REQUEST, flag, _request_tail(rest=b"\x00" * 36))
            with pytest.raises(WireFormatError, match="not valid on a request"):
                decode_request(frame)

    def test_unknown_payload_tag_rejected(self):
        with pytest.raises(WireFormatError, match="payload tag 3"):
            decode_request(_seal(_REQUEST, _TEXT | _JSON, _request_tail(rest=b"x")))
        with pytest.raises(WireFormatError, match="payload tag 3"):
            decode_response(_seal(_RESPONSE, _TEXT | _JSON, b"x"))

    def test_trailing_bytes_after_a_none_payload_rejected(self):
        with pytest.raises(WireFormatError, match="trail"):
            decode_request(_seal(_REQUEST, 0, _request_tail(rest=b"\x00")))
        with pytest.raises(WireFormatError, match="trail"):
            decode_response(_seal(_RESPONSE, 0, b"\x00"))

    def test_truncated_binding_section_rejected(self):
        with pytest.raises(WireFormatError, match="malformed response"):
            decode_response(_seal(_RESPONSE, _FLAG_BINDING, b"\x00" * 35))

    def test_undecodable_text_payload_rejected(self):
        with pytest.raises(WireFormatError, match="undecodable payload"):
            decode_response(_seal(_RESPONSE, _TEXT, b"\xff"))


class TestHostileTails:
    """CRC-valid frames that version 1 let through, or let escape as a
    different exception (each named after what it used to do)."""

    def _json_request(self, text: bytes) -> bytes:
        return _seal(_REQUEST, _JSON, _request_tail(rest=text))

    def test_deep_nesting_is_not_a_recursion_error(self):
        for text in (b"[" * 200_000, b'{"a":' * 100_000):
            with pytest.raises(WireFormatError, match="undecodable payload"):
                decode_request(self._json_request(text))
            with pytest.raises(WireFormatError, match="undecodable payload"):
                decode_response(_seal(_RESPONSE, _JSON, text))
        with pytest.raises(WireFormatError, match="wire-encodable"):
            nested: list = []
            for _ in range(100_000):
                nested = [nested]
            encode_request(_request(payload=nested))

    def test_rpc_type_and_created_ns_are_typed(self):
        # v1 decoded {"rpc_type":5,"payload":1,"created_ns":"x"} to an
        # RpcRequest with an int rpc_type and a str created_ns.  v2 and v3
        # have no frame that says that, and refuse to encode one.
        with pytest.raises(WireFormatError, match="rpc_type must be a str"):
            encode_request(_request(rpc_type=5))
        with pytest.raises(WireFormatError, match="out of range"):
            encode_request(_request(created_ns="x"))
        with pytest.raises(WireFormatError, match="out of range"):
            encode_request(_request(rpc_type="\ud800"))
        decoded = decode_request(self._json_request(b'{"rpc_type":5,"created_ns":"x"}'))
        assert (decoded.rpc_type, decoded.created_ns) == ("echo", 0)
        assert decoded.payload == {"rpc_type": 5, "created_ns": "x"}

    def test_binding_is_five_integers_not_a_string(self):
        # v1 decoded "binding":"abcde" to PoolBinding('a','b','c','d','e').
        decoded = decode_response(_seal(_RESPONSE, _FLAG_BINDING, (b"abcde" * 8)[:36]))
        assert all(type(v) is int for v in vars(decoded.binding).values())
        with pytest.raises(WireFormatError, match="out of range"):
            encode_response(RpcResponse(1, 1, binding=PoolBinding(*"abcde")))

    def test_nan_payload_rejected_on_decode(self):
        for text in (b"NaN", b"[Infinity]", b'{"a":-Infinity}', b"1e999", b"[-1E400]"):
            with pytest.raises(WireFormatError, match="non-finite"):
                decode_request(self._json_request(text))

    def test_oversized_integer_literal_rejected(self):
        # int() refuses > 4300 digits with a plain ValueError.
        with pytest.raises(WireFormatError, match="undecodable payload"):
            decode_request(self._json_request(b"1" * 5000))


class TestTraceExtension:
    def test_request_round_trip(self):
        trace = TraceContext(trace_id=0xABCDEF, span_id=0x123456)
        request = _request(trace=trace)
        decoded = decode_request(encode_request(request))
        assert decoded.trace == trace
        assert not decoded.trace.has_ts

    def test_response_round_trip_with_server_stamps(self):
        trace = TraceContext(trace_id=7, span_id=9, ts_a=1_000, ts_b=2_000)
        response = RpcResponse(req_id=9, client_id=3, trace=trace)
        decoded = decode_response(encode_response(response))
        assert decoded.trace == trace
        assert decoded.trace.has_ts

    def test_flag_bit_set_only_when_traced(self):
        assert not _flags(encode_request(_request())) & _FLAG_TRACE
        traced = _request(trace=TraceContext(trace_id=1, span_id=2))
        assert _flags(encode_request(traced)) & _FLAG_TRACE

    def test_untraced_bytes_unchanged_by_extension(self):
        # The zero-cost-when-off contract at the byte level: an untraced
        # frame has neither trace flag and not one byte of the section —
        # it is exactly the fixed fields plus the payload.
        frame = encode_request(_request(payload="pay"))
        assert not _flags(frame) & (_FLAG_TRACE | _FLAG_TRACE_TS)
        assert _tail(frame) == _request_tail(created_ns=5_000, rest=b"pay")
        assert decode_request(frame).trace is None

    def test_extension_size_on_the_wire_is_what_wire_bytes_charges(self):
        untraced = len(encode_request(_request()))
        traced = _request(trace=TraceContext(trace_id=1, span_id=2))
        assert len(encode_request(traced)) - untraced == TRACE_EXT_BYTES
        assert traced.wire_bytes - _request().wire_bytes == TRACE_EXT_BYTES
        plain = RpcResponse(req_id=9, client_id=3, payload="r")
        stamped = RpcResponse(req_id=9, client_id=3, payload="r",
                              trace=TraceContext(1, 2, ts_a=3, ts_b=4))
        grown = len(encode_response(stamped)) - len(encode_response(plain))
        assert grown == TRACE_EXT_BYTES + TRACE_TS_BYTES
        assert stamped.wire_bytes - plain.wire_bytes == grown

    def test_wire_bytes_charged_only_when_present(self):
        base = _request().wire_bytes
        traced = _request(trace=TraceContext(trace_id=1, span_id=2))
        stamped = _request(trace=TraceContext(1, 2, ts_a=3, ts_b=4))
        assert traced.wire_bytes == base + TRACE_EXT_BYTES
        assert stamped.wire_bytes == base + TRACE_EXT_BYTES + TRACE_TS_BYTES

    def test_corrupt_extension_rejected(self):
        # A trace section cut short (ids, then ids + stamps), and stamps
        # flagged with no trace section to belong to.
        ids = struct.pack("!QQ", 1, 2)
        for flags, section in ((_FLAG_TRACE, ids[:-1]),
                               (_FLAG_TRACE | _FLAG_TRACE_TS, ids),
                               (_FLAG_TRACE | _FLAG_TRACE_TS, ids + b"\x00" * 15)):
            with pytest.raises(WireFormatError, match="malformed request"):
                decode_request(_seal(_REQUEST, flags, _request_tail(rest=section)))
            with pytest.raises(WireFormatError, match="malformed response"):
                decode_response(_seal(_RESPONSE, flags, section))
        with pytest.raises(WireFormatError, match="stamps flagged without a trace"):
            decode_response(_seal(_RESPONSE, _FLAG_TRACE_TS, ids + ids))

    def test_flag_without_extension_rejected(self):
        # Setting the flag on an untraced frame (envelope re-sealed, so the
        # CRC is not what catches it): the section it promises is missing.
        frame = encode_request(_request(payload=None))
        with pytest.raises(WireFormatError, match="malformed request"):
            decode_request(_seal(_REQUEST, _flags(frame) | _FLAG_TRACE, _tail(frame)))
        # Un-resealed, the frame's CRC refuses it first.
        forged = bytearray(frame)
        struct.pack_into("!H", forged, _ENVELOPE.size, _flags(frame) | _FLAG_TRACE)
        with pytest.raises(WireFormatError, match="CRC"):
            decode_request(bytes(forged))

    def test_deterministic_ids_on_wire(self):
        from repro.obs.dist import rpc_trace_id, span_id

        trace_id = rpc_trace_id(7, 1234)
        request = _request(trace=TraceContext(
            trace_id=trace_id, span_id=span_id(trace_id, "client")))
        decoded = decode_request(encode_request(request))
        assert decoded.trace.trace_id == rpc_trace_id(7, 1234)


class TestDecodeMessageDispatch:
    def test_dispatches_on_kind_byte(self):
        request = _request()
        response = RpcResponse(req_id=9, client_id=3)
        assert decode_message(encode_request(request)) == request
        assert decode_message(encode_response(response)) == response


# A change to any of these bytes is a change of wire format: bump
# WIRE_VERSION (and re-pin) rather than editing the expectation.  Each row
# is envelope | record fixed fields | tail | CRC (little-endian).
_PINNED = [
    (RpcRequest(client_id=7, rpc_type="echo", payload=None, data_bytes=32,
                req_id=1234, created_ns=5000),
     "01030001" "00000000000700000000000004d2000000200000000e"
     "000000000000138800046563686f"
     "5d6b32f7"),
    (RpcRequest(client_id=7, rpc_type="echo", payload="héllo", data_bytes=32,
                req_id=1234, created_ns=-5000),
     "01030001" "00200000000700000000000004d20000002000000014"
     "ffffffffffffec7800046563686f68c3a96c6c6f"
     "06e54ed1"),
    (RpcRequest(client_id=7, rpc_type="kv.put", payload={"k": (1, 2.5), "a": None},
                data_bytes=64, req_id=U64, created_ns=0,
                trace=TraceContext(0xABCDEF, 0x123456)),
     "01030001" "004400000007ffffffffffffffff0000004000000036"
     "000000000000000000066b762e707574"
     "0000000000abcdef0000000000123456"
     "7b2261223a6e756c6c2c226b223a5b312c322e355d7d"
     "a0e2d488"),
    (RpcResponse(req_id=9, client_id=3, payload="ok", data_bytes=48),
     "02030001" "00200000000300000000000000090000003000000002"
     "6f6b"
     "2e3a18dc"),
    (RpcResponse(req_id=9, client_id=3, payload=[True, "\ud800"], data_bytes=0,
                 failed=True, context_switch=True,
                 binding=PoolBinding(4096, 8192, 1024, 3, 7),
                 trace=TraceContext(7, 9, ts_a=-1000, ts_b=2000)),
     "02030001" "005f0000000300000000000000090000000000000053"
     "000000000000100000000000000020000000040000000000000000030000000000000007"
     "00000000000000070000000000000009fffffffffffffc1800000000000007d0"
     "5b747275652c225c7564383030225d"
     "046b45ab"),
]
_PINNED_BATCH = (
    [RpcRequest(client_id=1, rpc_type="a", payload="x", data_bytes=8, req_id=1,
                created_ns=10),
     RpcRequest(client_id=2, rpc_type="bc", payload=None, data_bytes=16, req_id=2,
                created_ns=-1),
     RpcRequest(client_id=3, rpc_type="d", payload=[1], data_bytes=0, req_id=3,
                created_ns=0, trace=TraceContext(5, 6))],
    "01030003"
    "0020000000010000000000000001000000080000000c" "000000000000000a00016178"
    "0000000000020000000000000002000000100000000c" "ffffffffffffffff00026263"
    "0044000000030000000000000003000000000000001e" "0000000000000000000164"
    "00000000000000050000000000000006" "5b315d"
    "1cf6d596",
)


class TestPinnedFrames:
    @pytest.mark.parametrize("message, frame_hex", _PINNED)
    def test_layout_is_pinned_bump_WIRE_VERSION_to_change_it(self, message, frame_hex):
        assert WIRE_VERSION == 3
        assert _encode(message).hex() == frame_hex
        assert decode_message(bytes.fromhex(frame_hex)) == _normalized(message)

    def test_a_three_record_frame_is_pinned(self):
        batch, frame_hex = _PINNED_BATCH
        assert _seal_batch(batch).hex() == frame_hex
        assert decode_requests(bytes.fromhex(frame_hex)) == [_normalized(r) for r in batch]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def _reordered(payload):
    """The same payload with every dict built in reverse insertion order."""
    if isinstance(payload, (list, tuple)):
        return type(payload)(_reordered(item) for item in payload)
    if isinstance(payload, dict):
        return {key: _reordered(payload[key]) for key in reversed(payload)}
    return payload


# Text as Python allows it: any code point, lone surrogates included (the
# default alphabet leaves category Cs out).
_any_text = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=24)
_payloads = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | _any_text,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(_any_text, inner, max_size=4)),
    max_leaves=12,
)
_u32, _u64 = st.integers(0, U32), st.integers(0, U64)
_i64 = st.integers(-I64 - 1, I64)
_traces = st.none() | st.builds(
    TraceContext, _u64, _u64, st.just(0) | _i64, st.just(0) | _i64)
_bindings = st.none() | st.builds(PoolBinding, _u64, _u64, _u32, _u64, _u64)
_requests = st.builds(
    RpcRequest, client_id=_u32, rpc_type=st.text(max_size=24), payload=_payloads,
    data_bytes=_u32, req_id=_u64, created_ns=_i64, trace=_traces)
_responses = st.builds(
    RpcResponse, req_id=_u64, client_id=_u32, payload=_payloads, data_bytes=_u32,
    failed=st.booleans(), context_switch=st.booleans(), binding=_bindings,
    trace=_traces)
_messages = _requests | _responses
# Small messages — every payload tag (*none*, *text*, *json*), traces with
# and without stamps, bindings — for the properties that decode once per
# bit and for batches: what one flush seals into one frame, of one kind.
_small_payloads = st.none() | st.text(max_size=6) | st.lists(st.integers(), max_size=2)
_small_requests = st.builds(
    RpcRequest, client_id=_u32, rpc_type=st.text(max_size=4), payload=_small_payloads,
    data_bytes=_u32, req_id=_u64, created_ns=_i64, trace=_traces)
_small_responses = st.builds(
    RpcResponse, req_id=_u64, client_id=_u32, payload=_small_payloads, data_bytes=_u32,
    failed=st.booleans(), binding=_bindings, trace=_traces)
_small_messages = _small_requests | _small_responses
_batches = (st.lists(_small_requests, min_size=1, max_size=4)
            | st.lists(_small_responses, min_size=1, max_size=4))
_small_batches = (st.lists(_small_requests, min_size=2, max_size=3)
                  | st.lists(_small_responses, min_size=2, max_size=3))

_DECODERS = (decode_message, decode_request, decode_response)
_BATCH_DECODERS = (decode_requests, decode_responses)


def _seal_batch(batch: list) -> bytes:
    if isinstance(batch[0], RpcRequest):
        [frame] = seal(KIND_REQUEST, [encode_request_record(m) for m in batch])
    else:
        [frame] = seal(KIND_RESPONSE, [encode_response_record(m) for m in batch])
    return frame


def _batch_decoder(batch: list):
    return decode_requests if isinstance(batch[0], RpcRequest) else decode_responses


def _refuses_or_round_trips(frame: bytes) -> None:
    """The decode contract on arbitrary bytes: WireFormatError, or
    messages that the codec maps to themselves — no other exception, ever."""
    for decode in _DECODERS:
        try:
            message = decode(frame)
        except WireFormatError:
            continue
        again = decode(_encode(message))
        assert again == message
        assert _encode(again) == _encode(message)
    for decode in _BATCH_DECODERS:
        try:
            batch = decode(frame)
        except WireFormatError:
            continue
        again = decode(_seal_batch(batch))
        assert again == batch
        assert _seal_batch(again) == _seal_batch(batch)


def _refused(decode, data) -> bool:
    """Did ``decode`` raise WireFormatError (and nothing else) on ``data``?
    The bit-flip properties decode thousands of times per example, which
    pytest.raises would make several times slower."""
    try:
        decode(data)
    except WireFormatError:
        return True
    return False


def _resealed(frame: bytes) -> bytes:
    """``frame`` with its CRC made right again, so what was spliced in
    reaches the record parser instead of dying at the CRC."""
    body = frame[:-_CRC.size]
    return body + _CRC.pack(zlib.crc32(body))


def _tail_len_offsets(frame: bytes) -> list:
    """Where each record of a well-formed frame keeps its tail length."""
    offsets, start = [], _ENVELOPE.size
    while start < len(frame) - _CRC.size:
        offsets.append(start + _RECORD.size - 4)
        start += _RECORD.size + _RECORD.unpack_from(frame, start)[-1]
    return offsets


class TestWireProperties:
    @given(_messages)
    def test_round_trip_equals_tuples_to_lists(self, message):
        frame = _encode(message)
        assert decode_message(frame) == _normalized(message)
        decode = decode_request if isinstance(message, RpcRequest) else decode_response
        assert decode(memoryview(frame)) == _normalized(message)

    @given(_messages)
    def test_same_message_same_bytes(self, message):
        fields = dict(vars(message), payload=_reordered(message.payload))
        assert _encode(type(message)(**fields)) == _encode(message) == _encode(message)

    @given(
        _messages,
        st.sampled_from(["client_id", "req_id", "data_bytes", "created_ns",
                         "trace_id", "span_id", "ts_a", "ts_b", "pool_base",
                         "slot_base", "slot_bytes", "epoch", "seq"]),
        st.booleans(), st.integers(1, 2**70),
    )
    def test_out_of_range_field_raises_on_encode(self, message, name, above, by):
        if name in ("created_ns", "ts_a", "ts_b"):
            low, high = -I64 - 1, I64
        else:
            low, high = 0, U32 if name in ("client_id", "data_bytes", "slot_bytes") else U64
        value = high + by if above else low - by
        fields = vars(message)
        if name in ("trace_id", "span_id", "ts_a", "ts_b"):
            ids = dict(trace_id=1, span_id=2, ts_a=3, ts_b=4)
            fields = dict(fields, trace=TraceContext(**dict(ids, **{name: value})))
        elif name in ("pool_base", "slot_base", "slot_bytes", "epoch", "seq"):
            assume(isinstance(message, RpcResponse))
            slot = dict(pool_base=1, slot_base=2, slot_bytes=3, epoch=4, seq=5)
            fields = dict(fields, binding=PoolBinding(**dict(slot, **{name: value})))
        else:
            assume(name in fields)
            fields = dict(fields, **{name: value})
        with pytest.raises(WireFormatError, match="out of range"):
            _encode(type(message)(**fields))

    @given(_small_messages, st.booleans())
    def test_every_bit_flip_and_truncation_raises(self, message, in_a_view):
        frame = _encode(message)
        # The frame in a bytearray of its own, or as the socket path hands
        # it over: a memoryview slice in the middle of a larger buffer.
        held = bytearray(frame)
        if in_a_view:
            held = memoryview(bytearray(b"\xa5" * 7) + held + b"\x5a" * 9)[7:-9]
        assert all(_refused(decode_message, held[:cut]) for cut in range(len(frame)))
        for bit in range(8 * len(frame)):
            held[bit >> 3] ^= 1 << (bit & 7)
            assert all(_refused(decode, held) for decode in _DECODERS), bit
            held[bit >> 3] ^= 1 << (bit & 7)
        assert held == frame

    @given(st.binary(max_size=4096))
    def test_arbitrary_bytes_never_escape_as_another_exception(self, data):
        _refuses_or_round_trips(data)

    @given(st.sampled_from([_REQUEST, _RESPONSE]), st.integers(0, 0xFFFF),
           st.binary(max_size=256), st.sampled_from([0, 2, WIRE_VERSION, 4]))
    def test_arbitrary_tail_in_a_valid_envelope(self, kind, flags, tail, version):
        _refuses_or_round_trips(_seal(kind, flags, tail, version=version))
        # The interesting flag space is seven bits wide; stay inside it too.
        _refuses_or_round_trips(_seal(kind, flags & 0x7F, tail))

    @given(_messages, st.data())
    def test_arbitrary_splice_into_a_valid_frame(self, message, data):
        frame = _encode(message)
        start = data.draw(st.integers(0, len(frame)))
        end = data.draw(st.integers(start, min(len(frame), start + 16)))
        spliced = frame[:start] + data.draw(st.binary(max_size=16)) + frame[end:]
        _refuses_or_round_trips(spliced)
        if len(spliced) >= _ENVELOPE.size + _CRC.size:
            _refuses_or_round_trips(_resealed(spliced))


class TestBatchProperties:
    """The same contract for a frame of many records: one flush's batch."""

    @given(_batches)
    def test_round_trip_equals_tuples_to_lists(self, batch):
        frame = _seal_batch(batch)
        decoded = [_normalized(message) for message in batch]
        assert _batch_decoder(batch)(frame) == decoded
        held = memoryview(bytearray(b"\xa5" * 3) + frame + b"\x5a" * 5)[3:-5]
        assert _batch_decoder(batch)(held) == decoded

    @given(_batches)
    def test_same_batch_same_bytes(self, batch):
        reordered = [type(m)(**dict(vars(m), payload=_reordered(m.payload))) for m in batch]
        assert _seal_batch(reordered) == _seal_batch(batch) == _seal_batch(batch)

    @given(_small_batches, st.booleans())
    def test_every_bit_flip_and_truncation_raises(self, batch, in_a_view):
        frame, decode = _seal_batch(batch), _batch_decoder(batch)
        held = bytearray(frame)
        if in_a_view:
            held = memoryview(bytearray(b"\xa5" * 7) + held + b"\x5a" * 9)[7:-9]
        assert all(_refused(decode, held[:cut]) for cut in range(len(frame)))
        for bit in range(8 * len(frame)):
            held[bit >> 3] ^= 1 << (bit & 7)
            assert _refused(decode, held), bit
            held[bit >> 3] ^= 1 << (bit & 7)
        assert held == frame

    @given(_batches, st.data())
    def test_arbitrary_splice_into_a_batch(self, batch, data):
        frame = _seal_batch(batch)
        start = data.draw(st.integers(0, len(frame)))
        end = data.draw(st.integers(start, min(len(frame), start + 16)))
        spliced = frame[:start] + data.draw(st.binary(max_size=16)) + frame[end:]
        _refuses_or_round_trips(spliced)
        if len(spliced) >= _ENVELOPE.size + _CRC.size:
            _refuses_or_round_trips(_resealed(spliced))

    @given(_batches, st.data())
    def test_record_count_or_length_that_disagrees_raises(self, batch, data):
        frame, count = _seal_batch(batch), len(batch)
        forged = bytearray(frame)
        struct.pack_into("!H", forged, 2, data.draw(  # often one off, either way
            (st.integers(0, count + 1) | st.integers(0, 0xFFFF)).filter(lambda n: n != count)))
        with pytest.raises(WireFormatError):
            _batch_decoder(batch)(_resealed(bytes(forged)))
        # A record's tail length: the last one can only overrun the frame
        # or leave bytes after itself; an earlier one shifts every record
        # after it, which must still decode to messages or be refused.
        offsets = _tail_len_offsets(frame)
        for offset in (offsets[-1], data.draw(st.sampled_from(offsets))):
            (tail_len,) = struct.unpack_from("!I", frame, offset)
            forged = bytearray(frame)
            struct.pack_into("!I", forged, offset, data.draw(
                (st.integers(0, tail_len + 1) | st.integers(0, U32))
                .filter(lambda n: n != tail_len)))
            if offset == offsets[-1]:
                with pytest.raises(WireFormatError):
                    _batch_decoder(batch)(_resealed(bytes(forged)))
            _refuses_or_round_trips(_resealed(bytes(forged)))

    @given(st.sampled_from([_REQUEST, _RESPONSE]), st.integers(0, 0x7F),
           st.binary(max_size=64))
    def test_a_version_2_frame_is_refused(self, kind, flags, tail):
        frame = _v2_frame(kind, flags, tail)
        for decode in (*_DECODERS, *_BATCH_DECODERS):
            with pytest.raises(WireFormatError, match="unknown wire version 2"):
                decode(frame)


class TestSealSplitsAtTheFrameBounds:
    """A batch past one frame's bounds is sealed into several, in order."""

    @staticmethod
    def _unsealed(frames):
        assert all(len(frame) <= MAX_WIRE_BYTES for frame in frames)
        return [r.req_id for frame in frames for r in decode_responses(frame)]

    def test_past_the_byte_bound(self):
        records = [encode_response_record(RpcResponse(i, 1, "r" * 100_000)) for i in range(25)]
        frames = seal(KIND_RESPONSE, records)
        assert len(frames) == 3 and self._unsealed(frames) == list(range(25))

    def test_the_byte_bound_keeps_the_u16_record_count(self):
        records = [encode_response_record(RpcResponse(i, 1)) for i in range(0x10000)]
        frames = seal(KIND_RESPONSE, records)  # the smallest records there are
        assert len(frames) == 2 and self._unsealed(frames) == list(range(0x10000))

    def test_a_record_no_frame_can_carry_is_refused(self):
        for records in ([b"x" * MAX_WIRE_BYTES, b"y"], [b"y", b"x" * MAX_WIRE_BYTES]):
            with pytest.raises(WireFormatError, match="limit"):
                seal(KIND_REQUEST, records)
