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

A checkpoint crosses the wire a window at a time: an upload sends each
shard at most 1 MiB of chunks per ``BATCH`` frame, a download streams
one chunk per ``CHUNK`` frame.  Each side copies a byte at most once: a
``BATCH`` is sent as a scatter list of its sub-frame headers and the
chunk buffers themselves (:func:`batch_parts`, :func:`chunk_parts`), a
big frame is received into a buffer of its length, and
:func:`decode_ops` / :func:`decode_chunk` hand back ``memoryview``
slices of it, which hashing and compression consume in place.  The
bytes on the wire are exactly those of the joined encoders
(:func:`encode_ops`, :func:`encode_chunk`).

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
    that were missing.  The daemon pumps the answer: it reads the next
    chunk and queues its frame only while the connection's output
    buffer is under a 512 KiB watermark, and holds that connection's
    later requests until the stream has ended.  So one answer costs the
    daemon about one watermark of memory at any size up to
    ``MAX_GET_MANY`` chunks, and the client assembles what it asked for
    in place as the frames arrive.

``CLAIM``
    An epoch-lease claim, decided where the lease's records live: JSON
    ``{lease_id, holder, expected}`` up; the daemon folds the lease's
    claim records, commits this claim as generation latest + 1 under
    its commit lock and answers ``{epoch, valid, head: {epoch,
    holder}}`` — one round trip, no upload, no read-back.  Safe to
    resend: a claim whose record is already the newest is answered from
    the history, not committed twice.
"""

from __future__ import annotations

import struct
from typing import Optional, Sequence

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

#: Most digests one GET_MANY request may carry.
MAX_GET_MANY = 512

CODEC = FrameCodec(MAGIC, VERSION, MAX_FRAME, StoreProtocolError)

# Request opcodes.  ``HAS_CHUNK`` and ``GC`` are retired: no client sends
# them and the daemon answers them as unknown (a shard-local gc cannot
# see the other shards' manifests); their numbers stay reserved.
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
OP_CLAIM = 0x16

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
    OP_CLAIM: "CLAIM",
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


def chunk_parts(key_raw: bytes, data: bytes) -> list:
    """A chunk frame payload as its two buffers: the 32-byte digest, then
    the raw chunk bytes (uncopied)."""
    if len(key_raw) != 32:
        raise StoreProtocolError("chunk key must be a 32-byte SHA-256 digest")
    return [key_raw, data]


def encode_chunk(key_raw: bytes, data: bytes) -> bytes:
    """:func:`chunk_parts` joined: one chunk frame payload."""
    return b"".join(chunk_parts(key_raw, data))


def decode_chunk(payload: bytes) -> tuple[memoryview, memoryview]:
    """``(digest, chunk bytes)`` as read-only views of ``payload``."""
    if len(payload) < 32:
        raise StoreProtocolError("chunk payload shorter than its digest")
    view = memoryview(payload).toreadonly()
    return view[:32], view[32:]


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


def batch_parts(items: Sequence[tuple]) -> list:
    """One BATCH payload as the list of buffers it is made of: the count,
    then per item ``(opcode, *payload parts)`` its sub-frame header and
    its parts, uncopied — for a scatter send."""
    if len(items) > MAX_BATCH_OPS:
        raise StoreProtocolError(
            f"batch of {len(items)} exceeds MAX_BATCH_OPS ({MAX_BATCH_OPS})"
        )
    parts: list = [_COUNT.pack(len(items))]
    total = _COUNT.size
    for op, *payload in items:
        length = sum(map(len, payload))
        parts.append(_SUB_HEADER.pack(op, length))
        parts += payload
        total += _SUB_HEADER.size + length
    if total > MAX_FRAME:
        raise StoreProtocolError("batch payload exceeds MAX_FRAME")
    return parts


def encode_ops(items: Sequence[tuple]) -> bytes:
    """:func:`batch_parts` joined: one BATCH payload."""
    return b"".join(batch_parts(items))


def decode_ops(payload: bytes) -> list[tuple[int, memoryview]]:
    """Inverse of :func:`encode_ops`; validates counts and lengths.
    Each sub-payload is a read-only view of ``payload``."""
    if len(payload) < _COUNT.size:
        raise StoreProtocolError("batch payload shorter than its count")
    (count,) = _COUNT.unpack_from(payload)
    if count > MAX_BATCH_OPS:
        raise StoreProtocolError(
            f"batch of {count} exceeds MAX_BATCH_OPS ({MAX_BATCH_OPS})"
        )
    view = memoryview(payload).toreadonly()
    off = _COUNT.size
    items: list[tuple[int, memoryview]] = []
    for _ in range(count):
        try:
            op, length = _SUB_HEADER.unpack_from(view, off)
        except struct.error as e:
            raise StoreProtocolError(f"truncated batch sub-frame: {e}") from e
        off += _SUB_HEADER.size
        sub = view[off : off + length]
        if len(sub) != length:
            raise StoreProtocolError("truncated batch sub-frame payload")
        off += length
        items.append((op, sub))
    if off != len(payload):
        raise StoreProtocolError(
            f"{len(payload) - off} trailing bytes after batch sub-frames"
        )
    return items
