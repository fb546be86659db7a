"""The store wire protocol: length-prefixed binary frames over TCP.

Every message is one frame::

    +------+---------+--------+-----------+---------------+
    | RSTP | version | opcode | length u32| payload bytes |
    +------+---------+--------+-----------+---------------+
      4B       u8       u8      little-endian   <length>

Requests carry an operation opcode; the server answers every request
with exactly one ``OK`` or ``ERR`` frame.  Chunk payloads are raw
(uncompressed) bytes prefixed by their 32-byte SHA-256, so both sides
can verify content addresses on the wire; structured payloads (manifest
operations, listings, stats) are UTF-8 JSON.

Uploads and downloads stream one chunk per frame — neither side ever
holds more than ``MAX_FRAME`` bytes of a checkpoint in a single message.

RSTP/2
------

Revision 2 keeps the frame layout byte-for-byte and adds opcodes on
top: ``HELLO`` (version negotiation), ``BATCH`` (many sub-operations in
one round trip), ``GET_MANY`` (a streamed multi-chunk response:
``CHUNK`` frames followed by one ``END``), plus the fleet housekeeping
ops (``EPOCH``/``DEL_MANIFEST``/``SWEEP``).  Negotiation is one round
trip: a client sends ``HELLO`` in revision-1 framing and the daemon
answers ``OK`` with the agreed revision; any other answer is a protocol
error.  The daemon echoes each request's revision, so a raw revision-1
peer that never says ``HELLO`` is still served.  Frame codecs for the
new payloads live in :mod:`repro.store.fleet.wire`; the framing itself
is the shared :class:`repro.net.FrameCodec`.
"""

from __future__ import annotations

from repro.errors import StoreProtocolError
from repro.net import HEADER, FrameCodec  # HEADER is re-exported

MAGIC = b"RSTP"
VERSION = 1
#: Protocol revision 2 ("RSTP/2"): same frame layout, batched and
#: streamed opcodes on top, negotiated per connection via ``OP_HELLO``.
RSTP2 = 2
SUPPORTED_VERSIONS = (VERSION, RSTP2)

#: Upper bound on one frame's payload; protects both sides from a
#: corrupt or hostile length prefix.
MAX_FRAME = 64 * 1024 * 1024

CODEC = FrameCodec(MAGIC, SUPPORTED_VERSIONS, MAX_FRAME, StoreProtocolError)

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

# RSTP/2 request opcodes.
OP_HELLO = 0x10
OP_BATCH = 0x11
OP_GET_MANY = 0x12
OP_EPOCH = 0x13
OP_DEL_MANIFEST = 0x14
OP_SWEEP = 0x15

# Response opcodes.
OP_OK = 0x80
OP_ERR = 0x81
# RSTP/2 streamed-response opcodes: a GET_MANY answer is zero or more
# CHUNK frames terminated by exactly one END frame.
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
recv_frame = CODEC.recv_message
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
