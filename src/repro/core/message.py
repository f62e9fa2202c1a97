"""RPC message formats and the right-aligned on-wire layout.

The paper lays each message out *right-aligned* in its block with three
fields — ``| Data | MsgLen | Valid |`` — exploiting the fact that RDMA
updates memory in increasing address order: once the trailing ``Valid``
byte is set, the earlier fields are guaranteed complete, so the server
detects arrival by polling ``Valid`` alone (Section 3.1).

On the simulated fabric, requests and responses travel as payload objects
and :func:`wire_size` accounts for the header fields when charging the NIC
and caches.  For backends that move real bytes (:mod:`repro.net`), the
same dataclasses have a deterministic, round-trippable binary encoding: a
frame (:func:`seal`, :func:`decode_requests`, :func:`decode_responses`) is
a batch of records (ids, modeled data size, ``struct``-packed fixed-shape
sections, the payload as UTF-8 text or, only when free-form, canonical
JSON) ended by one CRC-32.  Corrupt, malformed or oversized frames raise
:exc:`WireFormatError` — and nothing else — at decode, never silently
misparsed.
"""

from __future__ import annotations

import itertools
import json
import struct
import zlib
from dataclasses import dataclass, field
from math import isfinite
from typing import Any, Optional

__all__ = [
    "MSG_LEN_BYTES",
    "VALID_BYTES",
    "HEADER_BYTES",
    "MAX_WIRE_BYTES",
    "WIRE_VERSION",
    "TRACE_EXT_BYTES",
    "TRACE_TS_BYTES",
    "TraceContext",
    "RpcRequest",
    "RpcResponse",
    "PoolBinding",
    "EndpointEntry",
    "ContextSwitchNotice",
    "ActivationNotice",
    "WireFormatError",
    "wire_size",
    "layout_in_block",
    "KIND_REQUEST", "KIND_RESPONSE", "seal",
    "ONE_RECORD", "ONE_RECORD_OVERHEAD", "pack_crc",
    "encode_request_record", "encode_response_record",
    "decode_requests", "decode_responses",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "decode_message",
]

MSG_LEN_BYTES = 4
VALID_BYTES = 4
HEADER_BYTES = MSG_LEN_BYTES + VALID_BYTES

_request_ids = itertools.count(1)


def next_request_id() -> int:
    """Globally unique request id."""
    return next(_request_ids)


def wire_size(data_bytes: int) -> int:
    """On-wire bytes of a message: data plus MsgLen and Valid fields."""
    if data_bytes < 0:
        raise ValueError("data size must be non-negative")
    return data_bytes + HEADER_BYTES


#: On-wire bytes of the trace-context extension: trace id + span id, two
#: u64s.  Responses that echo the server's clock stamps for offset
#: estimation carry :data:`TRACE_TS_BYTES` more.
TRACE_EXT_BYTES = 16
TRACE_TS_BYTES = 16


@dataclass(frozen=True)
class TraceContext:
    """The optional trace-context wire extension (DESIGN.md section 14).

    Carried behind a flag bit, so it costs exactly :attr:`wire_bytes` on
    the wire and untraced messages pay nothing.  The two ids are
    *deterministic* — derived from ``(client_id, req_id)`` by
    :func:`repro.obs.dist.rpc_trace_id`, never from wall clock or
    ``os.urandom`` — so two runs with the same inputs mint the same ids.

    On responses, ``ts_a``/``ts_b`` echo the server's dispatch/done clock
    readings (server clock domain, integer ns): the four-timestamp NTP
    exchange the client's :class:`repro.net.clock.OffsetEstimator` feeds
    on, which is what lets the merge collector align per-process shards.
    """

    trace_id: int
    span_id: int
    ts_a: int = 0  #: responses: server clock at dispatch
    ts_b: int = 0  #: responses: server clock at done

    @property
    def has_ts(self) -> bool:
        return bool(self.ts_a or self.ts_b)

    @property
    def wire_bytes(self) -> int:
        return TRACE_EXT_BYTES + (TRACE_TS_BYTES if self.has_ts else 0)


def layout_in_block(block_base: int, block_size: int, data_bytes: int) -> tuple[int, int]:
    """Right-aligned placement of a message inside its block.

    Returns ``(write_addr, valid_addr)``: the address the RDMA write
    targets and the address of the trailing Valid field the server polls.
    """
    total = wire_size(data_bytes)
    if total > block_size:
        raise ValueError(
            f"{data_bytes}-byte message (+{HEADER_BYTES} header) exceeds "
            f"{block_size}-byte block"
        )
    write_addr = block_base + block_size - total
    valid_addr = block_base + block_size - VALID_BYTES
    return write_addr, valid_addr


@dataclass
class RpcRequest:
    """One RPC request."""

    client_id: int
    rpc_type: str
    payload: Any = None
    data_bytes: int = 32
    req_id: int = field(default_factory=next_request_id)
    created_ns: int = 0
    #: Optional trace-context extension.  Strictly opt-in: the sim path
    #: never sets it (fixed-seed baselines stay byte-identical), the proc
    #: path attaches it only while an observer is installed, and
    #: ``wire_bytes`` charges the extension only when it is present.
    trace: Optional[TraceContext] = None

    @property
    def wire_bytes(self) -> int:
        base = wire_size(self.data_bytes)
        return base if self.trace is None else base + self.trace.wire_bytes


@dataclass(frozen=True)
class PoolBinding:
    """Where a PROCESS-state client writes directly: its slot in the
    currently-processing physical pool, valid for one epoch."""

    pool_base: int
    slot_base: int
    slot_bytes: int
    epoch: int
    #: Per-client activation sequence number (monotone; bumped once per
    #: fresh slice grant).  The client rebinds its block cursor only on a
    #: strictly greater value (:func:`repro.core.protocol.fresh_activation`),
    #: which makes duplicate/stale activations idempotent on the wire.
    seq: int = 0


@dataclass
class RpcResponse:
    """One RPC response (written back into the client's response region)."""

    req_id: int
    client_id: int
    payload: Any = None
    data_bytes: int = 32
    failed: bool = False
    # Piggybacked control information (paper Section 3.3/3.4):
    context_switch: bool = False
    binding: Optional[PoolBinding] = None
    #: Optional trace-context extension (see :class:`RpcRequest.trace`);
    #: responses additionally echo the server's clock stamps.
    trace: Optional[TraceContext] = None

    @property
    def wire_bytes(self) -> int:
        base = wire_size(self.data_bytes)
        return base if self.trace is None else base + self.trace.wire_bytes


@dataclass(frozen=True)
class ActivationNotice:
    """Sent at slice start to group members when requests warmup is
    disabled: carries the pool binding so the client can repost its
    outstanding requests directly.  (With warmup enabled the binding
    rides on the first response instead, and there is no gap to fill.)"""

    binding: "PoolBinding"
    epoch: int
    data_bytes: int = 24

    @property
    def wire_bytes(self) -> int:
        return wire_size(self.data_bytes)


@dataclass(frozen=True)
class ContextSwitchNotice:
    """Explicit context-switch notification written to clients that had no
    response to piggyback the event on (paper Section 3.3)."""

    epoch: int
    data_bytes: int = 8

    @property
    def wire_bytes(self) -> int:
        return wire_size(self.data_bytes)


# ---------------------------------------------------------------------------
# Deterministic wire format (the real-byte backends' encoding), version 3
# ---------------------------------------------------------------------------
#
# One frame carries the batch of one kind that one flush sends (all
# integers big-endian, except the CRC):
#
#   | kind u8 | version u8 | count u16 | record * count | crc32 u32 |
#   record:         flags u16 | client_id u32 | req_id u64 | data_bytes u32
#                   | tail_len u32 | tail
#   request tail:   created_ns i64 | rpc_type_len u16 | rpc_type utf-8
#                   | [trace] | payload
#   response tail:  [pool_base u64 | slot_base u64 | slot_bytes u32
#                    | epoch u64 | seq u64] | [trace] | payload
#   trace:          trace_id u64 | span_id u64 [| ts_a i64 | ts_b i64]
#
# Like the paper's Valid field the CRC comes last (little-endian, so a
# whole frame's CRC-32 is _CRC_RESIDUE).  A bracketed section is present
# exactly when its flag bit is set, so the trace extension costs exactly
# TRACE_EXT_BYTES (+ TRACE_TS_BYTES).  Two more flag bits tag the payload,
# which runs to the end of its record: *none* (``None``, zero bytes), *text*
# (a ``str``, as UTF-8) or *json* (anything else, as canonical JSON — sorted
# keys, tight separators, ASCII, no NaN — so equal messages yield equal
# bytes); payloads crossing a process boundary must be JSON-representable.
# Decoding checks the bound, version, kind and CRC, then each record's
# flags, lengths and UTF-8, and that ``count`` records fill the frame —
# raising WireFormatError and no other exception, whatever the bytes.

WIRE_VERSION = 3
#: Hard bound on one frame; larger frames are rejected on both encode and
#: decode (a corrupted length prefix must not allocate unbounded memory).
MAX_WIRE_BYTES = 1 << 20
KIND_REQUEST, KIND_RESPONSE = 1, 2
_KIND_NAMES = {KIND_REQUEST: "request", KIND_RESPONSE: "response"}

_ENVELOPE = struct.Struct("!BBH")  # kind | version | count
_CRC = struct.Struct("<I")
_CRC_RESIDUE = 0x2144DF1C  # crc32(m + crc32(m) as little-endian u32), any m
_RECORD = struct.Struct("!HIQII")
_REQUEST_RECORD = struct.Struct("!HIQIIqH")  # record + created_ns | rpc_type_len
# The envelope and the first record's fixed fields, in one unpack.
_REQUEST_HEAD = struct.Struct("!BBH" + _REQUEST_RECORD.format[1:])
_RESPONSE_HEAD = struct.Struct("!BBH" + _RECORD.format[1:])
_ENVELOPE_BYTES, _CRC_BYTES, _RECORD_BYTES, _REQUEST_RECORD_BYTES = (  # as plain ints
    _ENVELOPE.size, _CRC.size, _RECORD.size, _REQUEST_RECORD.size)
_MAX_BODY = MAX_WIRE_BYTES - _ENVELOPE_BYTES - _CRC_BYTES  # < 2**16 records of 22+ bytes
_MAX_TAIL = _MAX_BODY - _RECORD_BYTES  # a record alone in a frame
_BINDING = struct.Struct("!QQIQQ")
_TRACE_IDS = struct.Struct("!QQ")  # TRACE_EXT_BYTES
_TRACE_STAMPED = struct.Struct("!QQqq")  # + TRACE_TS_BYTES

_FLAG_FAILED = 1 << 0  # response only
_FLAG_CONTEXT_SWITCH = 1 << 1  # response only
_FLAG_TRACE = 1 << 2
_FLAG_TRACE_TS = 1 << 3  # only with _FLAG_TRACE
_TRACE_BITS = _FLAG_TRACE | _FLAG_TRACE_TS
_FLAG_BINDING = 1 << 4  # response only
_PAYLOAD_NONE, _PAYLOAD_TEXT, _PAYLOAD_JSON = 0 << 5, 1 << 5, 2 << 5
_PAYLOAD_MASK = 3 << 5
_REQUEST_FLAGS = _TRACE_BITS | _PAYLOAD_MASK
_RESPONSE_FLAGS = (_REQUEST_FLAGS | _FLAG_FAILED | _FLAG_CONTEXT_SWITCH
                   | _FLAG_BINDING)
_REQUEST_FLAG_VALUES, _RESPONSE_FLAG_VALUES = (frozenset(  # all a record may carry
    f for f in range(a + 1) if not f & ~a and f & _TRACE_BITS != _FLAG_TRACE_TS)
    for a in (_REQUEST_FLAGS, _RESPONSE_FLAGS))


class WireFormatError(ValueError):
    """A message failed to encode for, or decode from, the wire."""


#: The canonical *json*-payload encoder, built once: ``json.dumps`` with
#: any non-default argument constructs a fresh ``JSONEncoder`` per call.
_encode_canonical = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
).encode


def _finite_float(text: str) -> float:
    value = float(text)
    if not isfinite(value):  # "NaN", "-Infinity"; "1e999" overflows to inf
        raise ValueError(f"non-finite number {text}")
    return value


#: Its mirror, accepting only numbers the encoder would produce again.
_decode_json = json.JSONDecoder(parse_constant=_finite_float,
                                parse_float=_finite_float).decode


def _encode_payload(payload: Any) -> tuple[int, bytes]:
    if payload is None:
        return _PAYLOAD_NONE, b""
    if type(payload) is str:
        try:
            return _PAYLOAD_TEXT, payload.encode()
        except UnicodeEncodeError:
            pass  # lone surrogates: JSON escapes them
    try:
        return _PAYLOAD_JSON, _encode_canonical(payload).encode("ascii")
    except (TypeError, ValueError, RecursionError) as exc:
        raise WireFormatError(
            f"payload is not wire-encodable (JSON-representable): {exc}"
        ) from None


def _trace_section(trace: TraceContext) -> tuple[int, bytes]:
    """The trace extension's flag bits and bytes (``struct.error`` on an
    out-of-range field is the encoder's to report)."""
    if trace.has_ts:
        return _TRACE_BITS, _TRACE_STAMPED.pack(
            trace.trace_id, trace.span_id, trace.ts_a, trace.ts_b)
    return _FLAG_TRACE, _TRACE_IDS.pack(trace.trace_id, trace.span_id)


def _too_large(tail_len: int) -> WireFormatError:
    return WireFormatError(f"a frame of this one record is {tail_len + MAX_WIRE_BYTES - _MAX_TAIL}"
                           f" bytes; limit {MAX_WIRE_BYTES}")


def _refusal(data, want_kind: int) -> WireFormatError:
    """Why a decoder refused ``data``: the first frame-level fault, in the
    order the layout comment lists the checks.  Decoders test all of them
    at once and come here only to name the one that failed."""
    size = len(data)
    if size > MAX_WIRE_BYTES:
        return WireFormatError(f"frame is {size} bytes; limit {MAX_WIRE_BYTES}")
    if size < _ENVELOPE_BYTES:
        return WireFormatError(f"truncated frame ({size} bytes)")
    kind, version, count = _ENVELOPE.unpack_from(data)
    if version != WIRE_VERSION:
        return WireFormatError(f"unknown wire version {version}")
    if kind not in _KIND_NAMES:
        return WireFormatError(f"unknown message kind {kind}")
    name = _KIND_NAMES[want_kind]
    if kind != want_kind:
        return WireFormatError(f"expected a {name} frame, got kind {kind}")
    if size < (_REQUEST_HEAD if kind == KIND_REQUEST else _RESPONSE_HEAD).size + _CRC_BYTES:
        return WireFormatError(f"malformed {name} frame: truncated to {size} bytes")
    if zlib.crc32(data) != _CRC_RESIDUE:
        return WireFormatError("CRC mismatch (corrupt frame)")
    return WireFormatError(f"empty {name} frame: record count {count}")


def _record_refusal(kind: int, flags: int, overrun: int) -> WireFormatError:
    """Why a record was refused: its flags, or a tail overrunning the frame."""
    allowed, name = _REQUEST_FLAGS if kind == KIND_REQUEST else _RESPONSE_FLAGS, _KIND_NAMES[kind]
    if flags & ~allowed:
        return WireFormatError(f"flag bits {flags & ~allowed:#x} are not valid on a {name} record")
    if flags & _TRACE_BITS == _FLAG_TRACE_TS:
        return WireFormatError("trace stamps flagged without a trace section")
    return WireFormatError(f"malformed {name} record: its tail overruns the frame by {overrun}")


def _untext_payload(tag: int, body):
    """A payload whose tag is not *text*: *none*, *json*, or refused."""
    if tag == _PAYLOAD_JSON:
        try:
            return _decode_json(str(body, "ascii"))
        except (ValueError, RecursionError) as exc:  # bad JSON, deep nesting
            raise WireFormatError(f"undecodable payload: {exc}") from None
    if tag != _PAYLOAD_NONE:
        raise WireFormatError(f"unknown payload tag {tag >> 5}")
    if len(body):
        raise WireFormatError(f"{len(body)} bytes trail an empty payload")
    return None


def seal(kind: int, records: list) -> list[bytes]:
    """The frames of ``kind`` that carry ``records`` (from the
    ``encode_*_record`` functions), in order: one frame, or — past
    MAX_WIRE_BYTES — as many as it takes, each filled in turn."""
    body = b"".join(records)
    if len(body) <= _MAX_BODY:
        frame = _ENVELOPE.pack(kind, WIRE_VERSION, len(records)) + body
        return [frame + _CRC.pack(zlib.crc32(frame))]
    frames, first, size = [], 0, 0
    for index, record in enumerate(records):
        size += len(record)
        if size > _MAX_BODY:
            frames += seal(kind, records[first:index])
            first, size = index, len(record)
    return frames + seal(kind, records[first:])


def encode_request_record(request: RpcRequest) -> bytes:
    """Encode one :class:`RpcRequest` to its deterministic record; raises
    :exc:`WireFormatError` if it cannot be, or could not fit a frame alone."""
    rpc_type = request.rpc_type
    if type(rpc_type) is not str:
        raise WireFormatError(f"rpc_type must be a str, got {rpc_type!r}")
    flags, payload = _encode_payload(request.payload)
    trace = request.trace
    try:
        name = rpc_type.encode()
        if trace is not None:
            trace_flags, section = _trace_section(trace)
            flags |= trace_flags
            payload = section + payload  # the sections precede the payload
        tail_len = _REQUEST_RECORD_BYTES - _RECORD_BYTES + len(name) + len(payload)
        if tail_len > _MAX_TAIL:
            raise _too_large(tail_len)
        head = _REQUEST_RECORD.pack(flags, request.client_id, request.req_id, request.data_bytes,
                                    tail_len, request.created_ns, len(name))
    except (struct.error, UnicodeEncodeError) as exc:
        raise WireFormatError(f"request field out of range: {exc}") from None
    return head + name + payload


def encode_response_record(response: RpcResponse) -> bytes:
    """Encode one :class:`RpcResponse` to its deterministic record (see
    :func:`encode_request_record`)."""
    flags, payload = _encode_payload(response.payload)
    flags |= (_FLAG_FAILED if response.failed else 0) | (
        _FLAG_CONTEXT_SWITCH if response.context_switch else 0)
    binding, trace = response.binding, response.trace
    try:  # the sections precede the payload: the binding, then the trace
        if trace is not None:
            trace_flags, section = _trace_section(trace)
            flags |= trace_flags
            payload = section + payload
        if binding is not None:
            flags |= _FLAG_BINDING
            payload = _BINDING.pack(binding.pool_base, binding.slot_base, binding.slot_bytes,
                                    binding.epoch, binding.seq) + payload
        if len(payload) > _MAX_TAIL:
            raise _too_large(len(payload))
        head = _RECORD.pack(flags, response.client_id, response.req_id,
                            response.data_bytes, len(payload))
    except struct.error as exc:
        raise WireFormatError(f"response field out of range: {exc}") from None
    return head + payload


def decode_requests(data) -> list[RpcRequest]:
    """Decode a request frame (``bytes``, ``bytearray`` or a ``memoryview``,
    sliced in place) to its requests, in order; :exc:`WireFormatError` if invalid."""
    size = len(data)
    if not _REQUEST_HEAD.size + _CRC_BYTES <= size <= MAX_WIRE_BYTES:
        raise _refusal(data, KIND_REQUEST)
    (kind, version, count, flags, client_id, req_id, data_bytes, tail_len,
     created_ns, name_len) = _REQUEST_HEAD.unpack_from(data)
    if (kind != KIND_REQUEST or version != WIRE_VERSION or not count
            or zlib.crc32(data) != _CRC_RESIDUE):
        raise _refusal(data, KIND_REQUEST)
    end, start, requests = size - _CRC_BYTES, _ENVELOPE_BYTES, []
    for index in range(count):
        trace = None
        try:  # a record past the frame's last byte is a struct.error
            if index:  # the first record's fixed fields came with the envelope
                (flags, client_id, req_id, data_bytes, tail_len, created_ns,
                 name_len) = _REQUEST_RECORD.unpack_from(data, start)
            offset = start + _REQUEST_RECORD_BYTES
            stop = start + _RECORD_BYTES + tail_len
            if flags not in _REQUEST_FLAG_VALUES or stop > end:
                raise _record_refusal(KIND_REQUEST, flags, stop - end)
            if offset + name_len > stop:  # rpc_type, [trace], payload must fit the record
                raise WireFormatError(f"malformed request record: rpc_type_len {name_len}"
                                      f" overruns its {tail_len}-byte tail")
            rpc_type = str(data[offset:offset + name_len], "utf-8")
            offset += name_len
            if flags & _FLAG_TRACE:
                layout = _TRACE_STAMPED if flags & _FLAG_TRACE_TS else _TRACE_IDS
                trace = TraceContext(*layout.unpack_from(data[offset:stop]))
                offset += layout.size
            payload = (str(data[offset:stop], "utf-8") if flags & _PAYLOAD_MASK == _PAYLOAD_TEXT
                       else _untext_payload(flags & _PAYLOAD_MASK, data[offset:stop]))
        except (struct.error, UnicodeDecodeError) as exc:
            raise WireFormatError(f"malformed request record: {exc}") from None
        requests.append(RpcRequest(
            client_id, rpc_type, payload, data_bytes, req_id, created_ns, trace))
        start = stop
    if start != end:
        raise WireFormatError(f"{end - start} bytes trail the last of {count} records")
    return requests


def decode_responses(data) -> list[RpcResponse]:
    """Decode a response frame to its responses, in order (see
    :func:`decode_requests`)."""
    size = len(data)
    if not _RESPONSE_HEAD.size + _CRC_BYTES <= size <= MAX_WIRE_BYTES:
        raise _refusal(data, KIND_RESPONSE)
    (kind, version, count, flags, client_id, req_id, data_bytes,
     tail_len) = _RESPONSE_HEAD.unpack_from(data)
    if (kind != KIND_RESPONSE or version != WIRE_VERSION or not count
            or zlib.crc32(data) != _CRC_RESIDUE):
        raise _refusal(data, KIND_RESPONSE)
    end, stop, responses = size - _CRC_BYTES, _ENVELOPE_BYTES, []
    for index in range(count):
        binding = trace = None
        try:  # a record past the frame's last byte is a struct.error
            if index:  # the first record's fixed fields came with the envelope
                flags, client_id, req_id, data_bytes, tail_len = _RECORD.unpack_from(data, stop)
            offset = stop + _RECORD_BYTES
            stop = offset + tail_len
            if flags not in _RESPONSE_FLAG_VALUES or stop > end:
                raise _record_refusal(KIND_RESPONSE, flags, stop - end)
            # [binding], [trace], payload; a section must fit its record
            if flags & _FLAG_BINDING:
                binding = PoolBinding(*_BINDING.unpack_from(data[offset:stop]))
                offset += _BINDING.size
            if flags & _FLAG_TRACE:
                layout = _TRACE_STAMPED if flags & _FLAG_TRACE_TS else _TRACE_IDS
                trace = TraceContext(*layout.unpack_from(data[offset:stop]))
                offset += layout.size
            payload = (str(data[offset:stop], "utf-8") if flags & _PAYLOAD_MASK == _PAYLOAD_TEXT
                       else _untext_payload(flags & _PAYLOAD_MASK, data[offset:stop]))
        except struct.error as exc:
            raise WireFormatError(f"malformed response record: {exc}") from None
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"undecodable payload: {exc}") from None
        responses.append(RpcResponse(
            req_id, client_id, payload, data_bytes, flags & _FLAG_FAILED != 0,
            flags & _FLAG_CONTEXT_SWITCH != 0, binding, trace))
    if stop != end:
        raise WireFormatError(f"{end - stop} bytes trail the last of {count} records")
    return responses


_ONE_REQUEST = _ENVELOPE.pack(KIND_REQUEST, WIRE_VERSION, 1)
_ONE_RESPONSE = _ENVELOPE.pack(KIND_RESPONSE, WIRE_VERSION, 1)
#: Per kind, a one-record frame's envelope and its CRC-32: :func:`seal` makes one
#: record the frame ``envelope | record | pack_crc(crc32(record, crc))``.
ONE_RECORD = {kind: (envelope, zlib.crc32(envelope)) for kind, envelope in (
    (KIND_REQUEST, _ONE_REQUEST), (KIND_RESPONSE, _ONE_RESPONSE))}
ONE_RECORD_OVERHEAD = _ENVELOPE_BYTES + _CRC_BYTES
pack_crc = _CRC.pack


def encode_request(request: RpcRequest) -> bytes:
    """One :class:`RpcRequest` as a one-record frame."""
    frame = _ONE_REQUEST + encode_request_record(request)
    return frame + _CRC.pack(zlib.crc32(frame))


def encode_response(response: RpcResponse) -> bytes:
    """One :class:`RpcResponse` as a one-record frame."""
    frame = _ONE_RESPONSE + encode_response_record(response)
    return frame + _CRC.pack(zlib.crc32(frame))


def _only(messages: list):
    if len(messages) != 1:
        raise WireFormatError(f"expected a one-record frame, got {len(messages)} records")
    return messages[0]


def decode_request(data) -> RpcRequest:
    """Decode a one-record request frame (see :func:`decode_requests`)."""
    return _only(decode_requests(data))


def decode_response(data) -> RpcResponse:
    """Decode a one-record response frame (see :func:`decode_requests`)."""
    return _only(decode_responses(data))


def decode_message(data):
    """Decode a one-record frame of either kind (dispatch on the kind byte)."""
    if not data:
        raise WireFormatError("empty frame")
    if data[0] == KIND_RESPONSE:
        return decode_response(data)
    return decode_request(data)  # which rejects any third kind


@dataclass(frozen=True)
class EndpointEntry:
    """The ``<req_addr, batch_size>`` tuple a warming-up client RDMA-writes
    to its endpoint entry (paper Figure 6, step 2).

    ``message_sizes`` carries the wire size of each staged request so the
    server can build the scatter list for its warmup READ.
    """

    client_id: int
    req_addr: int
    batch_size: int
    total_bytes: int
    message_sizes: tuple = ()
