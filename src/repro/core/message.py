"""RPC message formats and the right-aligned on-wire layout.

The paper lays each message out *right-aligned* in its block with three
fields — ``| Data | MsgLen | Valid |`` — exploiting the fact that RDMA
updates memory in increasing address order: once the trailing ``Valid``
byte is set, the earlier fields are guaranteed complete, so the server
detects arrival by polling ``Valid`` alone (Section 3.1).

On the simulated fabric, requests and responses travel as payload objects
and :func:`wire_size` accounts for the header fields when charging the NIC
and caches.  For backends that move real bytes (:mod:`repro.net`), the
same dataclasses have a deterministic, round-trippable wire encoding —
:func:`encode_request` / :func:`decode_request` and
:func:`encode_response` / :func:`decode_response`: a fixed binary header
(kind, version, flags, ids, modeled data size), a CRC-32 of the tail, and
a canonical-JSON tail for the variable-length fields.  Corrupt or
oversized frames are rejected with :exc:`WireFormatError` at decode, never
silently misparsed.
"""

from __future__ import annotations

import itertools
import json
import struct
import zlib
from dataclasses import dataclass, field
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

    Carried behind a flag bit so untraced messages encode byte-identically
    to builds without the extension.  ``trace_id`` and ``span_id`` are
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

    def as_wire(self) -> list:
        if self.has_ts:
            return [self.trace_id, self.span_id, self.ts_a, self.ts_b]
        return [self.trace_id, self.span_id]

    @classmethod
    def from_wire(cls, raw) -> "TraceContext":
        if (
            not isinstance(raw, list)
            or len(raw) not in (2, 4)
            or not all(isinstance(v, int) for v in raw)
        ):
            raise WireFormatError(f"malformed trace extension: {raw!r}")
        if len(raw) == 2:
            return cls(raw[0], raw[1])
        return cls(raw[0], raw[1], raw[2], raw[3])


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
# Deterministic wire format (the real-byte backends' encoding)
# ---------------------------------------------------------------------------
#
# Layout of one encoded message (all integers big-endian):
#
#   | kind u8 | version u8 | flags u16 | client_id u32 | req_id u64 |
#   | data_bytes u32 | tail_len u32 | tail_crc32 u32 | tail bytes   |
#
# The tail is canonical JSON (sorted keys, tight separators, ASCII-only)
# of the message's variable-length fields, so encoding the same message
# twice yields identical bytes.  Payloads crossing a process boundary must
# therefore be JSON-representable (None/bool/int/float/str/list/dict);
# tuples are normalized to lists.  Sim-only runs keep passing arbitrary
# in-memory payloads — they never hit this encoder.

WIRE_VERSION = 1
#: Hard bound on one encoded message; larger frames are rejected on both
#: encode and decode (a corrupted length prefix must not allocate
#: unbounded memory).
MAX_WIRE_BYTES = 1 << 20

_KIND_REQUEST = 1
_KIND_RESPONSE = 2

_WIRE_HEADER = struct.Struct("!BBHIQII")
_WIRE_CRC = struct.Struct("!I")

_FLAG_FAILED = 1 << 0
_FLAG_CONTEXT_SWITCH = 1 << 1
#: The trace-context extension rides in the tail behind this bit; frames
#: without it are byte-identical to builds that predate the extension.
_FLAG_TRACE = 1 << 2


class WireFormatError(ValueError):
    """A message failed to encode for, or decode from, the wire."""


#: The canonical tail encoder, built once: ``json.dumps`` with any
#: non-default argument constructs a fresh ``JSONEncoder`` per call.
_encode_canonical = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
).encode


def _canonical_json(obj: Any) -> bytes:
    try:
        text = _encode_canonical(obj)
    except (TypeError, ValueError) as exc:
        raise WireFormatError(
            f"payload is not wire-encodable (JSON-representable): {exc}"
        ) from None
    return text.encode("ascii")


def _pack(kind: int, flags: int, client_id: int, req_id: int,
          data_bytes: int, tail_obj: Any) -> bytes:
    tail = _canonical_json(tail_obj)
    try:
        header = _WIRE_HEADER.pack(kind, WIRE_VERSION, flags, client_id,
                                   req_id, data_bytes, len(tail))
    except struct.error as exc:
        raise WireFormatError(f"header field out of range: {exc}") from None
    frame = header + _WIRE_CRC.pack(zlib.crc32(tail)) + tail
    if len(frame) > MAX_WIRE_BYTES:
        raise WireFormatError(
            f"encoded message is {len(frame)} bytes; limit {MAX_WIRE_BYTES}"
        )
    return frame


def _unpack(data: bytes) -> tuple[int, int, int, int, int, Any]:
    if len(data) > MAX_WIRE_BYTES:
        raise WireFormatError(
            f"frame is {len(data)} bytes; limit {MAX_WIRE_BYTES}"
        )
    base = _WIRE_HEADER.size
    if len(data) < base + _WIRE_CRC.size:
        raise WireFormatError(f"truncated header ({len(data)} bytes)")
    kind, version, flags, client_id, req_id, data_bytes, tail_len = (
        _WIRE_HEADER.unpack_from(data)
    )
    if version != WIRE_VERSION:
        raise WireFormatError(f"unknown wire version {version}")
    if kind not in (_KIND_REQUEST, _KIND_RESPONSE):
        raise WireFormatError(f"unknown message kind {kind}")
    (crc,) = _WIRE_CRC.unpack_from(data, base)
    tail = data[base + _WIRE_CRC.size:]
    if len(tail) != tail_len:
        raise WireFormatError(
            f"tail length mismatch: header says {tail_len}, got {len(tail)}"
        )
    if zlib.crc32(tail) != crc:
        raise WireFormatError("tail CRC mismatch (corrupt frame)")
    try:
        tail_obj = json.loads(tail.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"undecodable tail: {exc}") from None
    return kind, flags, client_id, req_id, data_bytes, tail_obj


def _trace_from_tail(flags: int, tail: dict) -> Optional[TraceContext]:
    if not flags & _FLAG_TRACE:
        return None
    if "trace" not in tail:
        raise WireFormatError("trace flag set but no trace extension in tail")
    return TraceContext.from_wire(tail["trace"])


def encode_request(request: RpcRequest) -> bytes:
    """Encode one :class:`RpcRequest` to its deterministic wire form."""
    flags = _FLAG_TRACE if request.trace is not None else 0
    tail: dict[str, Any] = {
        "rpc_type": request.rpc_type, "payload": request.payload,
        "created_ns": request.created_ns,
    }
    if request.trace is not None:
        tail["trace"] = request.trace.as_wire()
    return _pack(
        _KIND_REQUEST, flags, request.client_id, request.req_id,
        request.data_bytes, tail,
    )


def decode_request(data: bytes) -> RpcRequest:
    """Decode a request frame; raises :exc:`WireFormatError` if invalid."""
    kind, flags, client_id, req_id, data_bytes, tail = _unpack(data)
    if kind != _KIND_REQUEST:
        raise WireFormatError(f"expected a request frame, got kind {kind}")
    try:
        return RpcRequest(
            client_id=client_id,
            rpc_type=tail["rpc_type"],
            payload=tail["payload"],
            data_bytes=data_bytes,
            req_id=req_id,
            created_ns=tail["created_ns"],
            trace=_trace_from_tail(flags, tail),
        )
    except (KeyError, TypeError) as exc:
        raise WireFormatError(f"malformed request tail: {exc}") from None


def encode_response(response: RpcResponse) -> bytes:
    """Encode one :class:`RpcResponse` to its deterministic wire form."""
    flags = (_FLAG_FAILED if response.failed else 0) | (
        _FLAG_CONTEXT_SWITCH if response.context_switch else 0
    )
    binding = response.binding
    tail: dict[str, Any] = {"payload": response.payload}
    if binding is not None:
        tail["binding"] = [binding.pool_base, binding.slot_base,
                           binding.slot_bytes, binding.epoch, binding.seq]
    if response.trace is not None:
        flags |= _FLAG_TRACE
        tail["trace"] = response.trace.as_wire()
    return _pack(_KIND_RESPONSE, flags, response.client_id,
                 response.req_id, response.data_bytes, tail)


def decode_response(data: bytes) -> RpcResponse:
    """Decode a response frame; raises :exc:`WireFormatError` if invalid."""
    kind, flags, client_id, req_id, data_bytes, tail = _unpack(data)
    if kind != _KIND_RESPONSE:
        raise WireFormatError(f"expected a response frame, got kind {kind}")
    try:
        binding = None
        if "binding" in tail:
            binding = PoolBinding(*tail["binding"])
        return RpcResponse(
            req_id=req_id,
            client_id=client_id,
            payload=tail["payload"],
            data_bytes=data_bytes,
            failed=bool(flags & _FLAG_FAILED),
            context_switch=bool(flags & _FLAG_CONTEXT_SWITCH),
            binding=binding,
            trace=_trace_from_tail(flags, tail),
        )
    except (KeyError, TypeError) as exc:
        raise WireFormatError(f"malformed response tail: {exc}") from None


def decode_message(data: bytes):
    """Decode either kind of frame (dispatch on the kind byte)."""
    if not data:
        raise WireFormatError("empty frame")
    kind = data[0]
    if kind == _KIND_REQUEST:
        return decode_request(data)
    if kind == _KIND_RESPONSE:
        return decode_response(data)
    raise WireFormatError(f"unknown message kind {kind}")


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
