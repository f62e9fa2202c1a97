"""Length-prefixed stream framing for the real-process backend.

TCP is a byte stream; messages need boundaries.  Every frame is a 4-byte
big-endian length prefix followed by that many body bytes (the body being
one :mod:`repro.core.message` frame: every record one flush sent).  The
:class:`FrameDecoder` is incremental — whatever chunks the socket yields,
it returns complete frames — and bounded: a corrupted or hostile length
prefix is rejected before any oversized allocation.  It owns the receive
buffer, so the socket path (:mod:`repro.net.transport`) reads straight
into it and :meth:`FrameDecoder.feed` is the same parser behind a copy.

:meth:`FrameDecoder.commit` passes each body on as a ``memoryview`` into
that buffer, with no copy and valid only during the callback: a consumer
that keeps a body copies it, as ``feed`` does.  Outgoing,
:func:`encode_frame` prefixes each sealed batch.
"""

from __future__ import annotations

import struct
from typing import Callable

from ..core.message import MAX_WIRE_BYTES

__all__ = [
    "FramingError",
    "LENGTH_PREFIX_BYTES",
    "MAX_FRAME_BYTES",
    "RECV_BUFFER_BYTES",
    "encode_frame",
    "pack_length",
    "FrameDecoder",
]

_LENGTH = struct.Struct("!I")
LENGTH_PREFIX_BYTES = _LENGTH.size
pack_length = _LENGTH.pack
#: A frame body is one sealed batch, so the wire format's bound applies.
MAX_FRAME_BYTES = MAX_WIRE_BYTES
#: Initial size of a decoder's receive buffer; it is replaced by a larger
#: one only when a single (bounds-checked) frame does not fit.
RECV_BUFFER_BYTES = 64 * 1024


class FramingError(ValueError):
    """The byte stream violated the framing protocol."""


def encode_frame(body: bytes) -> bytes:
    """Prefix ``body`` with its length."""
    if len(body) > MAX_FRAME_BYTES:
        raise FramingError(
            f"frame body is {len(body)} bytes; limit {MAX_FRAME_BYTES}"
        )
    return _LENGTH.pack(len(body)) + body


class FrameDecoder:
    """Incremental frame extraction from an arbitrary chunking of the
    stream, over one reusable receive buffer.

    A reader that can receive *into* memory (asyncio's
    ``BufferedProtocol``) asks :meth:`writable` for the free tail of the
    buffer and reports what landed there with :meth:`commit`; ``feed``
    copies bytes the caller already holds through the same two steps
    (and may receive one byte or one megabyte at a time).
    """

    def __init__(self) -> None:
        self._buffer = bytearray(RECV_BUFFER_BYTES)
        self._view = memoryview(self._buffer)
        self._start = 0  # first byte not yet returned as part of a frame
        self._end = 0    # one past the last byte received

    def writable(self) -> memoryview:
        """The free tail of the receive buffer (never empty)."""
        return self._view[self._end:]

    def commit(self, nbytes: int, on_frame: Callable[[memoryview], object]) -> None:
        """``nbytes`` were written at the start of :meth:`writable`: call
        ``on_frame(body)`` for every frame they complete — ``body`` a
        view into the receive buffer, valid only during that call — then
        leave room for the rest of a partial one."""
        buffer, view = self._buffer, self._view
        start = self._start
        end = self._end = self._end + nbytes
        need = LENGTH_PREFIX_BYTES
        while end - start >= LENGTH_PREFIX_BYTES:
            (length,) = _LENGTH.unpack_from(buffer, start)
            if length > MAX_FRAME_BYTES:
                raise FramingError(
                    f"frame length {length} exceeds limit {MAX_FRAME_BYTES}"
                )
            body = start + LENGTH_PREFIX_BYTES
            if body + length > end:
                need = LENGTH_PREFIX_BYTES + length
                break
            start = self._start = body + length
            on_frame(view[body:start])
        if start == end:
            self._start = self._end = 0
            return
        target = buffer
        if need > len(buffer):
            # A new buffer, never a resize: the reader still holds the
            # view it got from writable(), and resizing a bytearray with
            # an exported view raises BufferError.  ``need`` passed the
            # bound above, so this allocation is capped too.
            target = self._buffer = bytearray(min(
                max(need, 2 * len(buffer)), LENGTH_PREFIX_BYTES + MAX_FRAME_BYTES
            ))
            self._view = memoryview(target)
        if start or target is not buffer:
            target[:end - start] = buffer[start:end]
            self._start, self._end = 0, end - start

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb ``data``; return every frame completed by it."""
        frames: list[bytes] = []
        offset = 0
        while offset < len(data):
            tail = self._end
            chunk = data[offset:offset + len(self._buffer) - tail]
            self._buffer[tail:tail + len(chunk)] = chunk
            offset += len(chunk)
            self.commit(len(chunk), lambda body: frames.append(bytes(body)))
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return self._end - self._start
