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
(:meth:`FrameCodec.pop_frame`, for a selectors loop that cannot block).
Both go through the same header validation, so they accept and reject
exactly the same byte streams.  The store's RSTP and the replication
channel's RPLC are the two instances.

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

    def encode_frame(self, op: int, payload: bytes = b"") -> bytes:
        """One complete frame, ready for ``sendall``."""
        if len(payload) > self.max_frame:
            raise self.error(
                f"frame payload of {len(payload)} bytes exceeds MAX_FRAME"
            )
        return HEADER.pack(self.magic, self.version, op, len(payload)) + payload

    def send_frame(
        self, sock: socket.socket, op: int, payload: bytes = b""
    ) -> None:
        sock.sendall(self.encode_frame(op, payload))

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

    def _recv_exact(
        self, sock: socket.socket, n: int, allow_eof: bool = False
    ) -> Optional[bytes]:
        buf = bytearray()
        while len(buf) < n:
            try:
                part = sock.recv(n - len(buf))
            except ConnectionResetError:
                part = b""
            if not part:
                if allow_eof and not buf:
                    return None
                raise self.error(
                    f"connection closed mid-frame ({len(buf)}/{n} bytes)"
                )
            buf += part
        return bytes(buf)

    def recv_frame(
        self, sock: socket.socket, allow_eof: bool = False
    ) -> Optional[tuple[int, bytes]]:
        """Block for one frame: ``(opcode, payload)``.

        ``None`` on a clean EOF at a frame boundary when ``allow_eof``.
        A socket timeout propagates as :class:`socket.timeout` — the
        replication failure detectors are built on exactly that signal.
        """
        head = self._recv_exact(sock, HEADER.size, allow_eof=allow_eof)
        if head is None:
            return None
        op, length = self._parse_header(head)
        payload = self._recv_exact(sock, length) if length else b""
        return op, payload

    def pop_frame(self, buf: bytearray) -> Optional[tuple[int, bytes]]:
        """Pop one complete frame off a connection buffer, if present.

        Returns ``(opcode, payload)`` and consumes the bytes,
        or ``None`` when the buffer does not yet hold a whole frame.
        Garbage raises the protocol's error — the caller drops the
        connection, exactly like the blocking reader.
        """
        if len(buf) < HEADER.size:
            return None
        op, length = self._parse_header(buf)
        end = HEADER.size + length
        if len(buf) < end:
            return None
        payload = bytes(buf[HEADER.size : end])
        del buf[:end]
        return op, payload

    # -- JSON payloads -----------------------------------------------------

    @staticmethod
    def encode_json(obj) -> bytes:
        return json.dumps(obj, sort_keys=True).encode()

    def decode_json(self, payload: bytes):
        try:
            return json.loads(payload.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise self.error(f"malformed JSON payload: {e}") from e


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
