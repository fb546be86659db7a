"""The store wire protocol: length-prefixed binary frames over TCP.

Every message is one frame::

    +------+---------+--------+-----------+---------------+
    | RSTP | version | opcode | length u32| payload bytes |
    +------+---------+--------+-----------+---------------+
      4B       u8       u8      little-endian   <length>

The framing is the shared :class:`repro.net.FrameCodec` bound to one
``VERSION``: a frame carrying any other version byte is rejected with
the same typed :class:`~repro.errors.StoreProtocolError` as bad magic.

Requests carry an operation opcode; the server answers every request
with exactly one ``OK`` or ``ERR`` frame — except ``GET_MANY``, whose
answer is a stream (below).  Chunk payloads are raw (uncompressed)
bytes prefixed by their 32-byte SHA-256, so both sides can verify
content addresses on the wire; structured payloads (manifest
operations, listings, stats) are UTF-8 JSON.

Uploads and downloads stream one chunk per frame — neither side ever
holds more than ``MAX_FRAME`` bytes of a checkpoint in a single message.

``HELLO``
    The connection handshake: an optional JSON object up; ``OK
    {"node_id": ..., "epoch": e}`` down.  Any other answer means the
    peer is not a store daemon — a protocol error on the client.

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
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.errors import StoreError, StoreProtocolError
from repro.net import HEADER, FrameCodec  # HEADER is re-exported

MAGIC = b"RSTP"
#: The one revision, stamped on every frame (2 is the byte every request
#: and reply after the handshake has always carried).
VERSION = 2

#: Upper bound on one frame's payload; protects both sides from a
#: corrupt or hostile length prefix.
MAX_FRAME = 64 * 1024 * 1024

#: Most sub-operations one BATCH frame may carry; bounds server-side
#: work per round trip the same way MAX_FRAME bounds memory.
MAX_BATCH_OPS = 256

#: Most digests one GET_MANY request may carry; with the chunk size it
#: bounds what the daemon queues for one answer.
MAX_GET_MANY = 512

CODEC = FrameCodec(MAGIC, VERSION, MAX_FRAME, StoreProtocolError)

# Request opcodes.
OP_PING = 0x01
OP_HAS_CHUNK = 0x02
OP_PUT_CHUNK = 0x03
OP_GET_CHUNK = 0x04
OP_PUT_MANIFEST = 0x05
OP_GET_MANIFEST = 0x06
OP_LS = 0x07
OP_GC = 0x08
OP_STAT = 0x09
OP_AUDIT = 0x0A
OP_HAS_MANY = 0x0B
OP_HELLO = 0x10
OP_BATCH = 0x11
OP_GET_MANY = 0x12
OP_EPOCH = 0x13
OP_DEL_MANIFEST = 0x14
OP_SWEEP = 0x15

# Response opcodes.
OP_OK = 0x80
OP_ERR = 0x81
# Streamed-response opcodes: a GET_MANY answer is zero or more CHUNK
# frames terminated by exactly one END frame.
OP_CHUNK = 0x82
OP_END = 0x83

OP_NAMES = {
    OP_PING: "PING",
    OP_HAS_CHUNK: "HAS_CHUNK",
    OP_PUT_CHUNK: "PUT_CHUNK",
    OP_GET_CHUNK: "GET_CHUNK",
    OP_PUT_MANIFEST: "PUT_MANIFEST",
    OP_GET_MANIFEST: "GET_MANIFEST",
    OP_LS: "LS",
    OP_GC: "GC",
    OP_STAT: "STAT",
    OP_AUDIT: "AUDIT",
    OP_HAS_MANY: "HAS_MANY",
    OP_HELLO: "HELLO",
    OP_BATCH: "BATCH",
    OP_GET_MANY: "GET_MANY",
    OP_EPOCH: "EPOCH",
    OP_DEL_MANIFEST: "DEL_MANIFEST",
    OP_SWEEP: "SWEEP",
    OP_OK: "OK",
    OP_ERR: "ERR",
    OP_CHUNK: "CHUNK",
    OP_END: "END",
}


encode_frame = CODEC.encode_frame
send_frame = CODEC.send_frame
recv_frame = CODEC.recv_frame
pop_frame = CODEC.pop_frame
encode_json = CODEC.encode_json
decode_json = CODEC.decode_json


def encode_chunk(key_raw: bytes, data: bytes) -> bytes:
    """A chunk frame payload: 32-byte digest then the raw chunk bytes."""
    if len(key_raw) != 32:
        raise StoreProtocolError("chunk key must be a 32-byte SHA-256 digest")
    return key_raw + data


def decode_chunk(payload: bytes) -> tuple[bytes, bytes]:
    if len(payload) < 32:
        raise StoreProtocolError("chunk payload shorter than its digest")
    return payload[:32], payload[32:]


def decode_request(
    op: int,
    payload: bytes,
    *,
    optional: Optional[dict[str, type]] = None,
    **required: type,
) -> dict:
    """A JSON-object request with its ``required`` fields, and whichever
    of its ``optional`` fields it carries, type-checked.

    An empty payload is the empty object.  Whatever else a damaged or
    hostile peer sends answers ``malformed <OP>: ...`` — never a raw
    ``KeyError``/``TypeError`` out of the handler.
    """
    req = decode_json(payload) if payload else {}
    if not isinstance(req, dict):
        raise StoreProtocolError(
            f"malformed {OP_NAMES[op]}: payload is not a JSON object"
        )
    checks = list(required.items())
    checks += [(n, k) for n, k in (optional or {}).items() if n in req]
    for name, kind in checks:
        if not isinstance(req.get(name), kind):
            raise StoreProtocolError(
                f"malformed {OP_NAMES[op]}: {name!r} must be {kind.__name__}"
            )
    return req


def error_payload(exc: Exception) -> bytes:
    """The ERR-frame JSON for one exception."""
    if isinstance(exc, StoreError):
        return encode_json({"error": type(exc).__name__, "message": str(exc)})
    return encode_json({"error": "StoreError", "message": f"internal: {exc}"})


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
    if len(out) > MAX_FRAME:
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
