"""Shared wire plumbing: one frame codec and one retry policy.

Every protocol in this repo frames its messages the same way::

    +-------+---------+--------+------------+---------------+
    | magic | version | opcode | length u32 | payload bytes |
    +-------+---------+--------+------------+---------------+
       4B       u8       u8    little-endian    <length>

A :class:`FrameCodec` binds that layout to one protocol — its magic, its
one version byte, its payload bound and the typed error it raises — and
reads frames two ways: blocking (:meth:`FrameCodec.recv_frame`, for
clients and thread-per-peer servers) and incremental
(:class:`FrameBuffer`, for a selectors loop that cannot block).  Both go
through the same header validation, so they accept and reject exactly
the same byte streams.  The store's RSTP and the replication channel's
RPLC are the two instances.

A frame's bytes are copied at most once on each side.  A payload may be
sent as a list of buffers — a header and its parts go out in one
scatter ``sendmsg``, never joined — and a frame of :data:`BIG_FRAME`
bytes or more is received with ``recv_into`` straight into a
``bytearray`` of its length, which is the payload handed back.  Smaller
frames stay on plain ``recv``: at that size the extra buffer costs more
than the copy it saves.

:class:`RetryPolicy` is the one connect/send/receive retry loop: bounded
attempts with *full-jitter* exponential backoff — attempt ``n`` sleeps a
uniform random duration in ``[0, min(backoff * 2**(n-1), backoff_max)]``.
The jitter matters at fleet scale: N supervisors whose store node dies
all fail in the same instant, and a deterministic schedule would march
them back in lockstep, re-spiking the recovering node at every step.
"""

from __future__ import annotations

import json
import random
import socket
import struct
import time
from typing import Callable, Optional, TypeVar

T = TypeVar("T")

HEADER = struct.Struct("<4sBBI")

#: Frames whose payload is at least this long are sent as scatter lists
#: and received in place (see the module docstring).
BIG_FRAME = 64 * 1024

#: One non-blocking read of a :class:`FrameBuffer` between big frames.
_RECV_SIZE = 256 * 1024


def _sendmsg_all(sock, parts: list) -> None:
    """Send ``parts`` back to back: one ``sendmsg`` when the kernel takes
    them all, ``sendall`` for whatever it left."""
    sent = sock.sendmsg(parts)
    for part in parts:
        if sent >= len(part):
            sent -= len(part)
            continue
        sock.sendall(memoryview(part)[sent:])
        sent = 0


class FrameCodec:
    """The frame layout bound to one protocol's constants and error type."""

    def __init__(
        self,
        magic: bytes,
        version: int,
        max_frame: int,
        error: type[Exception],
    ) -> None:
        self.magic = magic
        self.version = version
        self.max_frame = max_frame
        self.error = error

    # -- encoding ----------------------------------------------------------

    def header(self, op: int, length: int) -> bytes:
        """The header of a frame whose payload is ``length`` bytes."""
        if length > self.max_frame:
            raise self.error(
                f"frame payload of {length} bytes exceeds MAX_FRAME"
            )
        return HEADER.pack(self.magic, self.version, op, length)

    def encode_frame(self, op: int, payload: bytes = b"") -> bytes:
        """One complete frame, ready for ``sendall``."""
        return self.header(op, len(payload)) + payload

    def send_frame(
        self, sock: socket.socket, op: int, payload: bytes | list = b""
    ) -> None:
        """Send one frame.  ``payload`` is one buffer, or a list of them
        that together are the payload — a big one goes out as one scatter
        send, its parts never joined."""
        if not isinstance(payload, list):
            sock.sendall(self.encode_frame(op, payload))
            return
        length = sum(map(len, payload))
        head = self.header(op, length)
        if length < BIG_FRAME:
            sock.sendall(head + b"".join(payload))
        else:
            _sendmsg_all(sock, [head, *payload])

    # -- decoding ----------------------------------------------------------

    def _parse_header(self, head) -> tuple[int, int]:
        """Validate one header; returns ``(opcode, length)``."""
        magic, version, op, length = HEADER.unpack_from(head)
        if magic != self.magic:
            raise self.error(f"bad frame magic {magic!r}")
        if version != self.version:
            raise self.error(f"unsupported protocol version {version}")
        if length > self.max_frame:
            raise self.error(f"frame length {length} exceeds MAX_FRAME")
        return op, length

    def _closed(self, got: int, n: int) -> Exception:
        return self.error(f"connection closed mid-frame ({got}/{n} bytes)")

    def _recv_exact(
        self, sock: socket.socket, n: int, allow_eof: bool = False
    ) -> Optional[bytes | bytearray]:
        if n >= BIG_FRAME:
            return self._recv_into(sock, n)
        buf = b""
        while len(buf) < n:
            try:
                part = sock.recv(n - len(buf))
            except ConnectionResetError:
                part = b""
            if not part:
                if allow_eof and not buf:
                    return None
                raise self._closed(len(buf), n)
            buf += part  # the first part is taken as it is
        return buf

    def _recv_into(self, sock: socket.socket, n: int) -> bytearray:
        """``n`` bytes, read straight into a buffer of that length."""
        buf = bytearray(n)
        got = 0
        with memoryview(buf) as view:
            while got < n:
                try:
                    k = sock.recv_into(view[got:])
                except ConnectionResetError:
                    k = 0
                if not k:
                    raise self._closed(got, n)
                got += k
        return buf

    def recv_frame(
        self, sock: socket.socket, allow_eof: bool = False
    ) -> Optional[tuple[int, bytes | bytearray]]:
        """Block for one frame: ``(opcode, payload)``.

        A payload of :data:`BIG_FRAME` bytes or more is the
        ``bytearray`` it was received into.  ``None`` on a clean EOF at
        a frame boundary when ``allow_eof``.  A socket timeout
        propagates as :class:`socket.timeout` — the replication failure
        detectors are built on exactly that signal.
        """
        head = self._recv_exact(sock, HEADER.size, allow_eof=allow_eof)
        if head is None:
            return None
        op, length = self._parse_header(head)
        payload = self._recv_exact(sock, length) if length else b""
        return op, payload

    def pop_frame(self, buf: bytearray) -> Optional[tuple[int, bytes]]:
        """Pop one complete frame off a connection buffer, if present.

        Returns ``(opcode, payload)`` and consumes the bytes — the
        payload copied out once — or ``None`` when the buffer does not
        yet hold a whole frame.  Garbage raises the protocol's error —
        the caller drops the connection, exactly like the blocking
        reader.
        """
        if len(buf) < HEADER.size:
            return None
        op, length = self._parse_header(buf)
        end = HEADER.size + length
        if len(buf) < end:
            return None
        with memoryview(buf) as view:
            payload = bytes(view[HEADER.size : end])
        del buf[:end]
        return op, payload

    # -- JSON payloads -----------------------------------------------------

    @staticmethod
    def encode_json(obj) -> bytes:
        return json.dumps(obj, sort_keys=True).encode()

    def decode_json(self, payload: bytes):
        """``payload`` may be any buffer: bytes, a received bytearray, or
        a memoryview slice of one."""
        try:
            return json.loads(str(payload, "utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise self.error(f"malformed JSON payload: {e}") from e


class FrameBuffer:
    """One connection's incoming frames, for a selectors loop.

    :meth:`fill` does one non-blocking read; :meth:`pop` hands back each
    complete frame as ``(opcode, payload)``.  Frames are read in bulk
    and popped off one shared buffer (:meth:`FrameCodec.pop_frame`, one
    copy each) — except that once the header of a :data:`BIG_FRAME`
    payload is in without the rest, the rest is read with ``recv_into``
    straight into a ``bytearray`` of its length: the payload
    :meth:`pop` returns, never copied.
    """

    __slots__ = ("codec", "buf", "big", "got", "op")

    def __init__(self, codec: FrameCodec) -> None:
        self.codec = codec
        self.buf = bytearray()
        #: The big frame being read in place, ``got`` bytes of it so far.
        self.big: Optional[bytearray] = None
        self.got = 0
        self.op = 0

    def fill(self, sock: socket.socket) -> bool:
        """One read off a non-blocking socket; False at end of stream.
        ``BlockingIOError`` and any other ``OSError`` propagate."""
        if self.big is None:
            data = sock.recv(_RECV_SIZE)
            self.buf += data
            return bool(data)
        with memoryview(self.big) as view:
            n = sock.recv_into(view[self.got:])
        self.got += n
        return bool(n)

    def pop(self) -> Optional[tuple[int, bytes | bytearray]]:
        """The next complete frame, or None; garbage raises the codec's
        error."""
        if self.big is None:
            frame = self.codec.pop_frame(self.buf)
            if frame is not None or len(self.buf) < HEADER.size:
                return frame
            op, length = self.codec._parse_header(self.buf)
            if length < BIG_FRAME:
                return None
            # Start the frame with what the bulk read already holds.
            self.op, self.big = op, bytearray(length)
            self.got = min(length, len(self.buf) - HEADER.size)
            end = HEADER.size + self.got
            self.big[: self.got] = memoryview(self.buf)[HEADER.size:end]
            del self.buf[:end]
        if self.got < len(self.big):
            return None
        frame, self.big = (self.op, self.big), None
        return frame


class RetryPolicy:
    """Bounded retries with full-jitter exponential backoff."""

    def __init__(
        self,
        retries: int,
        backoff: float,
        backoff_max: float,
        jitter: bool = True,
        seed: Optional[int] = None,
    ) -> None:
        self.retries = retries
        self.backoff = backoff
        self.backoff_max = backoff_max
        self._rng = random.Random(seed) if jitter else None

    def delay(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (1-based): uniform in [0, cap]."""
        cap = min(self.backoff * (2 ** (attempt - 1)), self.backoff_max)
        return self._rng.uniform(0.0, cap) if self._rng else cap

    def run(
        self,
        attempt_fn: Callable[[], T],
        transient: tuple[type[BaseException], ...],
        on_retry: Callable[[], None],
        exhausted: Callable[[int, BaseException], Exception],
    ) -> T:
        """Call ``attempt_fn`` until it returns or the budget is spent.

        Only ``transient`` errors are retried; anything else propagates
        at once.  ``on_retry`` runs before each retry's sleep;
        ``exhausted(attempts, last_error)`` builds the error raised when
        every attempt failed.
        """
        last: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            if attempt:
                on_retry()
                time.sleep(self.delay(attempt))
            try:
                return attempt_fn()
            except transient as e:
                last = e
        raise exhausted(self.retries + 1, last)
