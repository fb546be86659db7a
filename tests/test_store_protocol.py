"""Tests for the store wire protocol (frame codec over socketpairs)."""

from __future__ import annotations

import pathlib
import re
import socket
import struct

import pytest

from repro.errors import StoreProtocolError
from repro.store import protocol as P


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFrameCodec:
    def test_roundtrip(self, pair):
        a, b = pair
        P.send_frame(a, P.OP_PING, b"payload bytes")
        op, payload = P.recv_frame(b)
        assert op == P.OP_PING
        assert payload == b"payload bytes"

    def test_empty_payload(self, pair):
        a, b = pair
        P.send_frame(a, P.OP_LS)
        assert P.recv_frame(b) == (P.OP_LS, b"")

    def test_header_layout(self):
        frame = P.encode_frame(P.OP_OK, b"xy")
        magic, version, op, length = P.HEADER.unpack(frame[: P.HEADER.size])
        assert magic == b"RSTP"
        assert version == P.VERSION
        assert op == P.OP_OK
        assert length == 2
        assert frame[P.HEADER.size:] == b"xy"

    def test_multiple_frames_back_to_back(self, pair):
        a, b = pair
        for i in range(5):
            P.send_frame(a, P.OP_PUT_CHUNK, bytes([i]) * i)
        for i in range(5):
            assert P.recv_frame(b) == (P.OP_PUT_CHUNK, bytes([i]) * i)

    def test_oversize_payload_refused_on_send(self):
        with pytest.raises(StoreProtocolError):
            P.encode_frame(P.OP_PUT_CHUNK, b"\0" * (P.MAX_FRAME + 1))

    def test_oversize_length_refused_on_receive(self, pair):
        a, b = pair
        a.sendall(P.HEADER.pack(P.MAGIC, P.VERSION, P.OP_PING,
                                P.MAX_FRAME + 1))
        with pytest.raises(StoreProtocolError, match="exceeds MAX_FRAME"):
            P.recv_frame(b)

    def test_bad_magic_rejected(self, pair):
        a, b = pair
        a.sendall(struct.pack("<4sBBI", b"EVIL", P.VERSION, P.OP_PING, 0))
        with pytest.raises(StoreProtocolError, match="magic"):
            P.recv_frame(b)

    def test_bad_version_rejected(self, pair):
        a, b = pair
        a.sendall(struct.pack("<4sBBI", P.MAGIC, 99, P.OP_PING, 0))
        with pytest.raises(StoreProtocolError, match="version"):
            P.recv_frame(b)

    def test_truncated_header_raises(self, pair):
        a, b = pair
        a.sendall(b"RST")  # 3 of the 10 header bytes
        a.close()
        with pytest.raises(StoreProtocolError, match="mid-frame"):
            P.recv_frame(b)

    def test_truncated_payload_raises(self, pair):
        a, b = pair
        a.sendall(P.HEADER.pack(P.MAGIC, P.VERSION, P.OP_PING, 100))
        a.sendall(b"only this much")
        a.close()
        with pytest.raises(StoreProtocolError, match="mid-frame"):
            P.recv_frame(b)

    def test_clean_eof_returns_none_when_allowed(self, pair):
        a, b = pair
        a.close()
        assert P.recv_frame(b, allow_eof=True) is None

    def test_clean_eof_raises_when_not_allowed(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(StoreProtocolError):
            P.recv_frame(b)


class TestPayloadHelpers:
    def test_json_roundtrip(self):
        doc = {"vm_id": "a", "chunks": ["00ff"], "n": 3}
        assert P.decode_json(P.encode_json(doc)) == doc

    def test_malformed_json_raises(self):
        with pytest.raises(StoreProtocolError):
            P.decode_json(b"{nope")

    def test_chunk_roundtrip(self):
        key = bytes(range(32))
        data = b"chunk body"
        assert P.decode_chunk(P.encode_chunk(key, data)) == (key, data)

    def test_chunk_key_must_be_32_bytes(self):
        with pytest.raises(StoreProtocolError):
            P.encode_chunk(b"short", b"data")

    def test_chunk_payload_must_hold_digest(self):
        with pytest.raises(StoreProtocolError):
            P.decode_chunk(b"\x00" * 31)

    def test_opcodes_are_distinct_and_named(self):
        ops = [v for k, v in vars(P).items()
               if k.startswith("OP_") and isinstance(v, int)]
        assert len(ops) == len(set(ops))
        for op in ops:
            assert op in P.OP_NAMES

    def test_store_doc_opcode_table_matches_op_names(self):
        doc = pathlib.Path(__file__).parents[1] / "docs" / "STORE.md"
        rows = re.findall(
            r"^\| (0x[0-9A-F]{2}) +\| `(\w+)` +\|", doc.read_text(), re.M
        )
        assert {int(code, 16): name for code, name in rows} == P.OP_NAMES
        assert len(rows) == len(P.OP_NAMES)
        (ls_row,) = re.findall(r"^\| 0x07 .*$", doc.read_text(), re.M)
        assert "`{vm_id?}`" in ls_row and "JSON listing" in ls_row

    def test_optional_request_field_is_checked_only_when_sent(self):
        ls = dict(optional={"vm_id": str})
        assert P.decode_request(P.OP_LS, b"", **ls) == {}
        assert P.decode_request(P.OP_LS, b"{}", **ls) == {}
        assert P.decode_request(
            P.OP_LS, P.encode_json({"vm_id": "a"}), **ls
        ) == {"vm_id": "a"}
        for bad in (5, None, ["a"]):
            with pytest.raises(
                StoreProtocolError, match="malformed LS: 'vm_id' must be str"
            ):
                P.decode_request(P.OP_LS, P.encode_json({"vm_id": bad}), **ls)
