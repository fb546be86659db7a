"""RSTP/2 payload codecs and incremental frame decoding.

The frame *layout* is unchanged from revision 1 (see
:mod:`repro.store.protocol`); RSTP/2 is about what rides inside:

``BATCH``
    Many sub-operations in one frame, one round trip.  The payload is a
    u32 count followed by ``count`` sub-frames of ``u8 opcode / u32
    length / payload``.  The response is an ``OK`` frame whose payload
    uses the same encoding — one ``OK``/``ERR`` sub-frame per
    sub-operation, in order.  Sub-operation failures therefore do not
    fail the batch: callers check each slot.

``GET_MANY``
    A digest list up; a *stream* down — one ``CHUNK`` frame per present
    chunk, terminated by an ``END`` frame whose JSON carries the keys
    that were missing.  The daemon queues the whole answer on the
    connection's output buffer before its loop writes any of it, so it
    holds up to ``MAX_GET_MANY`` chunks per request (512 x 64 KiB =
    32 MiB at the default chunk size); the client never holds more than
    the window it asked for.

``HELLO``
    ``{"max_version": N}`` up; ``OK {"version": v, "node_id": ...,
    "epoch": e}`` down, where ``v`` is the highest revision both sides
    speak.  Any other answer is a protocol error on the client.

The selectors server cannot block in ``recv``; :func:`pop_frame` (the
RSTP binding of :meth:`repro.net.FrameCodec.pop_frame`) is the
incremental decoder over its per-connection byte buffer.
"""

from __future__ import annotations

import struct

from repro.errors import StoreError, StoreProtocolError
from repro.store import protocol as P

#: Most sub-operations one BATCH frame may carry; bounds server-side
#: work per round trip the same way MAX_FRAME bounds memory.
MAX_BATCH_OPS = 256

#: Most digests one GET_MANY request may carry; with the chunk size it
#: bounds what the daemon queues for one answer.
MAX_GET_MANY = 512

_SUB_HEADER = struct.Struct("<BI")
_COUNT = struct.Struct("<I")


def encode_ops(items: list[tuple[int, bytes]]) -> bytes:
    """Pack (opcode, payload) pairs into one BATCH payload."""
    if len(items) > MAX_BATCH_OPS:
        raise StoreProtocolError(
            f"batch of {len(items)} exceeds MAX_BATCH_OPS ({MAX_BATCH_OPS})"
        )
    out = bytearray(_COUNT.pack(len(items)))
    for op, payload in items:
        out += _SUB_HEADER.pack(op, len(payload))
        out += payload
    if len(out) > P.MAX_FRAME:
        raise StoreProtocolError("batch payload exceeds MAX_FRAME")
    return bytes(out)


def decode_ops(payload: bytes) -> list[tuple[int, bytes]]:
    """Inverse of :func:`encode_ops`; validates counts and lengths."""
    if len(payload) < _COUNT.size:
        raise StoreProtocolError("batch payload shorter than its count")
    (count,) = _COUNT.unpack_from(payload)
    if count > MAX_BATCH_OPS:
        raise StoreProtocolError(
            f"batch of {count} exceeds MAX_BATCH_OPS ({MAX_BATCH_OPS})"
        )
    off = _COUNT.size
    items: list[tuple[int, bytes]] = []
    for _ in range(count):
        try:
            op, length = _SUB_HEADER.unpack_from(payload, off)
        except struct.error as e:
            raise StoreProtocolError(f"truncated batch sub-frame: {e}") from e
        off += _SUB_HEADER.size
        sub = payload[off : off + length]
        if len(sub) != length:
            raise StoreProtocolError("truncated batch sub-frame payload")
        off += length
        items.append((op, sub))
    if off != len(payload):
        raise StoreProtocolError(
            f"{len(payload) - off} trailing bytes after batch sub-frames"
        )
    return items


pop_frame = P.pop_frame


def error_payload(exc: Exception) -> bytes:
    """The ERR-frame JSON for one exception."""
    if isinstance(exc, StoreError):
        return P.encode_json(
            {"error": type(exc).__name__, "message": str(exc)}
        )
    return P.encode_json({"error": "StoreError", "message": f"internal: {exc}"})
