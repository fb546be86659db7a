"""The replication channel wire protocol: acked, length-prefixed frames.

Same frame layout as the store's RSTP (the shared
:class:`repro.net.FrameCodec`: one send per frame — a ``GEN`` as one
scatter send of its header and parts, received in place and parsed by
views — and a fixed header carrying magic/version/opcode/length) but a
separate protocol: the replication channel is a long-lived, ordered,
*stateful* stream between exactly two nodes, not a request/response
service.

::

    +------+---------+--------+------------+---------------+
    | RPLC | version | opcode | length u32 | payload bytes |
    +------+---------+--------+------------+---------------+
      4B       u8       u8    little-endian    <length>

Frames:

* ``HELLO`` / ``OK`` — one negotiation round trip.  The primary
  announces its node id, code digest, platform, and epoch; the standby
  answers with its node id and the highest generation it has applied,
  so a reconnecting primary knows where to resume.
* ``GEN`` — one committed checkpoint generation: a JSON header
  (sequence number, kind, chain identity, digests, instruction count)
  followed by the raw committed file bytes and the cumulative stdout
  the generation covers.  Idempotent: the standby drops duplicates by
  sequence number and re-acks, so retransmits are always safe.
* ``ACK`` — cumulative: acknowledges every generation up to ``seq``.
  Receipt means *applied*: the standby has spliced the generation into
  its resident VM, so an acked generation is takeover-ready.
* ``PING`` / ``PONG`` — heartbeats; either side treats a quiet channel
  (no frames inside its timeout window) as a suspected peer.
* ``ERR`` — a JSON diagnosis of why the receiver rejected a frame.
"""

from __future__ import annotations

import struct

from repro.checkpoint.generation import GenRecord
from repro.checkpoint.schema import ImageDigest
from repro.errors import ReplicationProtocolError
from repro.net import HEADER, FrameCodec  # HEADER is re-exported

MAGIC = b"RPLC"
VERSION = 1

#: Upper bound on one frame's payload; a generation (delta or full) of
#: any workload this VM runs fits far below this.
MAX_FRAME = 256 * 1024 * 1024

CODEC = FrameCodec(MAGIC, VERSION, MAX_FRAME, ReplicationProtocolError)

OP_HELLO = 0x01
OP_GEN = 0x02
OP_ACK = 0x03
OP_PING = 0x04
OP_PONG = 0x05
OP_OK = 0x80
OP_ERR = 0x81

OP_NAMES = {
    OP_HELLO: "HELLO",
    OP_GEN: "GEN",
    OP_ACK: "ACK",
    OP_PING: "PING",
    OP_PONG: "PONG",
    OP_OK: "OK",
    OP_ERR: "ERR",
}

_GEN_HEAD = struct.Struct("<I")  # length of the JSON meta block

encode_frame = CODEC.encode_frame
send_frame = CODEC.send_frame
recv_frame = CODEC.recv_frame
encode_json = CODEC.encode_json
decode_json = CODEC.decode_json


def gen_parts(rec: GenRecord) -> list:
    """A GEN payload as the buffers it is made of — the u32 meta length
    with the JSON meta, the file bytes, the stdout bytes — for one
    scatter send; the file bytes are not copied."""
    meta = encode_json(
        {
            "seq": rec.seq,
            "kind": rec.kind,
            "body_sha256": rec.body_sha256,
            "parent_sha256": rec.parent_sha256,
            "chain_depth": rec.chain_depth,
            "format_version": rec.format_version,
            "instructions": rec.instructions,
            "data_len": len(rec.data),
            "data_sha256": rec.data_sha256,
            "stdout_len": len(rec.stdout),
        }
    )
    return [_GEN_HEAD.pack(len(meta)) + meta, rec.data, rec.stdout]


def encode_gen(rec: GenRecord) -> bytes:
    """GEN payload: u32 meta length, JSON meta, file bytes, stdout bytes."""
    return b"".join(gen_parts(rec))


def decode_gen(payload: bytes) -> GenRecord:
    """Parse and *verify* a GEN payload (lengths and file digest).

    The record's ``data`` is a read-only view of ``payload`` — the
    buffer a big frame was received into — not a copy of it.  The file
    digest is one :class:`~repro.checkpoint.schema.ImageDigest` pass,
    which the record carries: the standby's reads adopt its body
    digests and its commit journal the file digest."""
    if len(payload) < _GEN_HEAD.size:
        raise ReplicationProtocolError("GEN payload shorter than its header")
    (meta_len,) = _GEN_HEAD.unpack_from(payload)
    body = memoryview(payload).toreadonly()[_GEN_HEAD.size:]
    if meta_len > len(body):
        raise ReplicationProtocolError("GEN meta length overruns payload")
    meta = decode_json(body[:meta_len])
    rest = body[meta_len:]
    try:
        seq = int(meta["seq"])
        data_len = int(meta["data_len"])
        stdout_len = int(meta["stdout_len"])
        kind = str(meta["kind"])
    except (KeyError, TypeError, ValueError) as e:
        raise ReplicationProtocolError(f"GEN meta incomplete: {e}") from e
    if data_len + stdout_len != len(rest):
        raise ReplicationProtocolError(
            f"GEN sizes lie: meta claims {data_len}+{stdout_len}, "
            f"frame carries {len(rest)}"
        )
    data, stdout = rest[:data_len], rest[data_len:]
    digests = ImageDigest()
    digests.update(data)
    digest = digests.hexdigest()
    if digest != meta.get("data_sha256"):
        raise ReplicationProtocolError(
            f"GEN seq {seq}: file digest mismatch (wire corruption?)"
        )
    fmt = meta.get("format_version")
    return GenRecord(
        seq=seq,
        kind=kind,
        body_sha256=str(meta.get("body_sha256", "")),
        parent_sha256=str(meta.get("parent_sha256", "")),
        chain_depth=int(meta.get("chain_depth", 0)),
        format_version=int(fmt) if fmt is not None else None,
        instructions=int(meta.get("instructions", 0)),
        stdout=bytes(stdout),
        data=data,
        sha256=digest,
        received=digests,
    )


def encode_ack(seq: int, applied: int) -> bytes:
    return encode_json({"seq": seq, "applied": applied})


def decode_ack(payload: bytes) -> tuple[int, int]:
    doc = decode_json(payload)
    try:
        return int(doc["seq"]), int(doc["applied"])
    except (KeyError, TypeError, ValueError) as e:
        raise ReplicationProtocolError(f"malformed ACK: {e}") from e
