"""Length-prefixed stream framing (repro.net.framing)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.framing import (
    LENGTH_PREFIX_BYTES,
    MAX_FRAME_BYTES,
    RECV_BUFFER_BYTES,
    FrameDecoder,
    FramingError,
    encode_frame,
)


class TestEncodeFrame:
    def test_prefix_is_body_length(self):
        frame = encode_frame(b"abc")
        assert frame == struct.pack("!I", 3) + b"abc"

    def test_empty_body(self):
        assert encode_frame(b"") == struct.pack("!I", 0)

    def test_oversize_body_rejected(self):
        with pytest.raises(FramingError, match="limit"):
            encode_frame(b"x" * (MAX_FRAME_BYTES + 1))


class TestFrameDecoder:
    def test_round_trip_one_frame(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(b"hello")) == [b"hello"]
        assert decoder.pending_bytes == 0

    def test_byte_by_byte_feed(self):
        decoder = FrameDecoder()
        frame = encode_frame(b"hello")
        collected = []
        for index in range(len(frame)):
            collected.extend(decoder.feed(frame[index:index + 1]))
        assert collected == [b"hello"]

    def test_many_frames_in_one_feed(self):
        bodies = [b"a", b"", b"ccc", bytes(range(256))]
        stream = b"".join(encode_frame(b) for b in bodies)
        assert FrameDecoder().feed(stream) == bodies

    def test_split_across_feeds(self):
        frame = encode_frame(b"split me")
        decoder = FrameDecoder()
        assert decoder.feed(frame[:6]) == []
        assert decoder.pending_bytes == 6
        assert decoder.feed(frame[6:] + encode_frame(b"next")) == [
            b"split me", b"next",
        ]

    def test_hostile_length_rejected_before_allocation(self):
        decoder = FrameDecoder()
        with pytest.raises(FramingError, match="exceeds limit"):
            decoder.feed(struct.pack("!I", MAX_FRAME_BYTES + 1))

    def test_partial_prefix_is_not_a_frame(self):
        decoder = FrameDecoder()
        assert decoder.feed(b"\x00\x00") == []
        assert decoder.pending_bytes == 2

    def test_commit_delivers_views_of_its_own_buffer(self):
        decoder = FrameDecoder()
        stream = encode_frame(b"first") + encode_frame(b"second")
        free = decoder.writable()
        free[:len(stream)] = stream
        seen = []

        def on_frame(body):
            assert type(body) is memoryview and body.obj is free.obj  # no copy
            seen.append(bytes(body))

        decoder.commit(len(stream), on_frame)
        assert seen == [b"first", b"second"]


def _receive(decoder: FrameDecoder, data: bytes) -> list:
    """Deliver ``data`` the way the socket path does: ask for the free
    tail, write into it, commit — holding the view across ``commit``,
    as asyncio does (a resize under it would raise BufferError).  A body
    is valid only during its callback, so the callback copies it."""
    frames: list = []
    while data:
        view = decoder.writable()
        assert len(view) > 0
        count = min(len(view), len(data))
        view[:count] = data[:count]
        decoder.commit(count, lambda body: frames.append(bytes(body)))
        data = data[count:]
    return frames


# Mostly small frames, with the sizes that straddle the initial buffer
# and the one at the bound mixed in (repeated bytes: cheap to build).
_SMALL_BODIES = st.binary(max_size=200)
_LARGE_BODIES = st.builds(
    lambda fill, size: bytes([fill]) * size,
    st.integers(0, 255),
    st.sampled_from([
        RECV_BUFFER_BYTES - LENGTH_PREFIX_BYTES - 1,
        RECV_BUFFER_BYTES - LENGTH_PREFIX_BYTES,
        RECV_BUFFER_BYTES,
        70_000,
        300_000,
        MAX_FRAME_BYTES,
    ]),
)


class TestFrameDecoderProperties:
    @settings(max_examples=60)
    @given(st.lists(_SMALL_BODIES, max_size=12), st.data())
    def test_small_frames_survive_any_chunking(self, bodies, data):
        stream = b"".join(encode_frame(body) for body in bodies)
        sizes = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=5))
        chunks, offset, turn = [], 0, 0
        while offset < len(stream):  # cycles through sizes; [1] = 1-byte reads
            size = sizes[turn % len(sizes)]
            chunks.append(stream[offset:offset + size])
            offset, turn = offset + size, turn + 1
        fed, received = FrameDecoder(), FrameDecoder()
        assert [f for c in chunks for f in fed.feed(c)] == bodies
        assert [f for c in chunks for f in _receive(received, c)] == bodies
        assert fed.pending_bytes == received.pending_bytes == 0

    @settings(max_examples=25)
    @given(
        st.lists(st.one_of(_SMALL_BODIES, _LARGE_BODIES), min_size=1, max_size=4),
        st.data(),
    )
    def test_frames_beyond_the_initial_buffer_survive_any_cuts(self, bodies, data):
        stream = b"".join(encode_frame(body) for body in bodies)
        # Arbitrary cut points, plus one inside every length prefix.
        cuts = set(data.draw(st.lists(st.integers(0, len(stream)), max_size=8)))
        start = 0
        for body in bodies:
            cuts.add(start + data.draw(st.integers(1, LENGTH_PREFIX_BYTES - 1)))
            start += LENGTH_PREFIX_BYTES + len(body)
        edges = [0, *sorted(cuts), len(stream)]
        chunks = [stream[a:b] for a, b in zip(edges, edges[1:])]
        fed, received = FrameDecoder(), FrameDecoder()
        assert [f for c in chunks for f in fed.feed(c)] == bodies
        assert [f for c in chunks for f in _receive(received, c)] == bodies
        assert fed.pending_bytes == received.pending_bytes == 0

    @given(
        st.lists(_SMALL_BODIES, max_size=4),
        st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1),
    )
    def test_oversize_prefix_raises_before_any_allocation(self, bodies, length):
        decoder = FrameDecoder()
        delivered: list = []
        stream = b"".join(encode_frame(body) for body in bodies)
        view = decoder.writable()
        view[:len(stream) + LENGTH_PREFIX_BYTES] = stream + struct.pack("!I", length)
        with pytest.raises(FramingError, match="exceeds limit"):
            decoder.commit(len(stream) + LENGTH_PREFIX_BYTES, delivered.append)
        assert delivered == bodies  # frames ahead of the bad prefix still count
        # Still the initial buffer: nothing was sized from the hostile length.
        assert len(decoder.writable()) <= RECV_BUFFER_BYTES
