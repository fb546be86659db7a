"""RSTP/2 wire codecs, incremental framing, and version negotiation."""

from __future__ import annotations

import socket

import pytest

from repro.errors import StoreNotFoundError, StoreProtocolError
from repro.store import ChunkStore, FleetNode, StoreClient
from repro.store import protocol as P
from repro.store.chunkstore import chunk_key
from repro.store.fleet import wire as W


class TestBatchCodec:
    def test_roundtrip(self):
        items = [
            (P.OP_PING, b""),
            (P.OP_PUT_CHUNK, b"\x00" * 40),
            (P.OP_LS, b"{}"),
        ]
        assert W.decode_ops(W.encode_ops(items)) == items

    def test_empty_batch_roundtrips(self):
        assert W.decode_ops(W.encode_ops([])) == []

    def test_encode_rejects_oversized_batch(self):
        items = [(P.OP_PING, b"")] * (W.MAX_BATCH_OPS + 1)
        with pytest.raises(StoreProtocolError, match="MAX_BATCH_OPS"):
            W.encode_ops(items)

    def test_decode_rejects_lying_count(self):
        payload = W.encode_ops([(P.OP_PING, b"")])
        inflated = (W.MAX_BATCH_OPS + 1).to_bytes(4, "little") + payload[4:]
        with pytest.raises(StoreProtocolError, match="MAX_BATCH_OPS"):
            W.decode_ops(inflated)

    def test_decode_rejects_truncated_subframe(self):
        payload = W.encode_ops([(P.OP_PUT_CHUNK, b"x" * 10)])
        with pytest.raises(StoreProtocolError, match="truncated"):
            W.decode_ops(payload[:-3])

    def test_decode_rejects_trailing_garbage(self):
        payload = W.encode_ops([(P.OP_PING, b"")])
        with pytest.raises(StoreProtocolError, match="trailing"):
            W.decode_ops(payload + b"junk")

    def test_decode_rejects_short_payload(self):
        with pytest.raises(StoreProtocolError, match="count"):
            W.decode_ops(b"\x01")


class TestPopFrame:
    def test_pops_complete_frame_and_consumes(self):
        buf = bytearray(
            P.encode_frame(P.OP_PING, b"abc")
            + P.encode_frame(P.OP_LS, b"", P.RSTP2)
        )
        assert W.pop_frame(buf) == (P.VERSION, P.OP_PING, b"abc")
        assert W.pop_frame(buf) == (P.RSTP2, P.OP_LS, b"")
        assert W.pop_frame(buf) is None
        assert not buf

    def test_byte_at_a_time_feed(self):
        frame = P.encode_frame(P.OP_PUT_CHUNK, b"payload-bytes", P.RSTP2)
        buf = bytearray()
        popped = []
        for byte in frame:
            buf.append(byte)
            got = W.pop_frame(buf)
            if got is not None:
                popped.append(got)
        assert popped == [(P.RSTP2, P.OP_PUT_CHUNK, b"payload-bytes")]

    def test_bad_magic_raises(self):
        frame = bytearray(P.encode_frame(P.OP_PING))
        frame[:4] = b"NOPE"
        with pytest.raises(StoreProtocolError, match="magic"):
            W.pop_frame(frame)

    def test_unsupported_version_raises(self):
        frame = bytearray(P.encode_frame(P.OP_PING))
        frame[4] = 99
        with pytest.raises(StoreProtocolError, match="version"):
            W.pop_frame(frame)

    def test_oversized_length_raises(self):
        frame = bytearray(P.HEADER.pack(P.MAGIC, P.VERSION, P.OP_PING,
                                        P.MAX_FRAME + 1))
        with pytest.raises(StoreProtocolError, match="MAX_FRAME"):
            W.pop_frame(frame)


@pytest.fixture
def fleet_node(tmp_path):
    node = FleetNode(ChunkStore(str(tmp_path / "shard")), node_id="n0")
    node.start()
    yield node
    node.stop()


class TestNegotiation:
    def test_fleet_client_vs_fleet_node_speaks_rstp2(self, fleet_node):
        host, port = fleet_node.address
        with StoreClient(host, port, backoff=0.01) as c:
            assert c.negotiated is None  # nothing until the first request
            assert c.ping()
            assert c.negotiated == P.RSTP2
            assert c.remote_node_id == "n0"
        assert fleet_node.hellos == 1

    def test_v1_client_vs_fleet_node_works(self, fleet_node):
        """A raw revision-1 peer — no HELLO, revision-1 frames only — is
        still served, and answered in revision-1 framing."""
        data = b"old client, new daemon"
        digest = bytes.fromhex(chunk_key(data))
        with socket.create_connection(fleet_node.address, timeout=5) as sock:
            for op, payload, want in (
                (P.OP_PING, b"", b"pong"),
                (P.OP_PUT_CHUNK, P.encode_chunk(digest, data), b"\x01"),
                (P.OP_HAS_CHUNK, digest, b"\x01"),
            ):
                P.send_frame(sock, op, payload, P.VERSION)
                assert P.CODEC.recv_frame(sock) == (P.VERSION, P.OP_OK, want)
        assert fleet_node.hellos == 0


class TestRstp2Ops:
    def test_batched_ops_share_one_frame(self, fleet_node):
        host, port = fleet_node.address
        chunks = [f"chunk-{i}".encode() for i in range(10)]
        with StoreClient(host, port, backoff=0.01) as c:
            assert c.put_chunks(chunks) == 10
            assert c.put_chunks(chunks) == 0  # idempotent, all dedup
        assert fleet_node.batches_handled == 2
        assert fleet_node.batched_ops_handled == 20

    def test_get_many_streams_and_names_missing(self, fleet_node):
        host, port = fleet_node.address
        chunks = [f"stream-{i}".encode() for i in range(5)]
        keys = [chunk_key(ch) for ch in chunks]
        with StoreClient(host, port, backoff=0.01) as c:
            c.put_chunks(chunks)
            found, missing = c.get_many(keys + ["0" * 64])
            assert found == dict(zip(keys, chunks))
            assert missing == ["0" * 64]
        assert fleet_node.chunks_streamed == 5

    def test_nested_batch_rejected_per_slot(self, fleet_node):
        host, port = fleet_node.address
        with StoreClient(host, port, backoff=0.01) as c:
            results = c.batch_call([
                (P.OP_PING, b""),
                (P.OP_BATCH, W.encode_ops([])),
            ])
            assert results[0][0] == P.OP_OK
            assert results[1][0] == P.OP_ERR
            err = P.decode_json(results[1][1])
            assert "not allowed inside BATCH" in err["message"]

    def test_housekeeping_ops(self, fleet_node):
        host, port = fleet_node.address
        with StoreClient(host, port, backoff=0.01) as c:
            assert c.epoch() == 0
            c.put_chunk(b"doomed")
            report = c.sweep([])
            assert report["removed"] == 1
            assert c.epoch() == 1
            assert c.del_manifest("ghost", 1) is False

    def test_error_payload_matches_v1_shape(self):
        err = P.decode_json(W.error_payload(StoreNotFoundError("gone")))
        assert err == {"error": "StoreNotFoundError", "message": "gone"}
        generic = P.decode_json(W.error_payload(ValueError("boom")))
        assert generic["error"] == "StoreError"
        assert "boom" in generic["message"]
