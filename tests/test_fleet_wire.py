"""BATCH codecs, incremental framing, the handshake and the
connection-layer ops (``BATCH``/``GET_MANY``/housekeeping) end to end."""

from __future__ import annotations

import pytest

from repro.errors import StoreNotFoundError, StoreProtocolError
from repro.store import ChunkStore, FleetNode, StoreClient
from repro.store import protocol as P
from repro.store.chunkstore import chunk_key


class TestBatchCodec:
    def test_roundtrip(self):
        items = [
            (P.OP_PING, b""),
            (P.OP_PUT_CHUNK, b"\x00" * 40),
            (P.OP_LS, b"{}"),
        ]
        assert P.decode_ops(P.encode_ops(items)) == items

    def test_empty_batch_roundtrips(self):
        assert P.decode_ops(P.encode_ops([])) == []

    def test_encode_rejects_oversized_batch(self):
        items = [(P.OP_PING, b"")] * (P.MAX_BATCH_OPS + 1)
        with pytest.raises(StoreProtocolError, match="MAX_BATCH_OPS"):
            P.encode_ops(items)

    def test_decode_rejects_lying_count(self):
        payload = P.encode_ops([(P.OP_PING, b"")])
        inflated = (P.MAX_BATCH_OPS + 1).to_bytes(4, "little") + payload[4:]
        with pytest.raises(StoreProtocolError, match="MAX_BATCH_OPS"):
            P.decode_ops(inflated)

    def test_decode_rejects_truncated_subframe(self):
        payload = P.encode_ops([(P.OP_PUT_CHUNK, b"x" * 10)])
        with pytest.raises(StoreProtocolError, match="truncated"):
            P.decode_ops(payload[:-3])

    def test_decode_rejects_trailing_garbage(self):
        payload = P.encode_ops([(P.OP_PING, b"")])
        with pytest.raises(StoreProtocolError, match="trailing"):
            P.decode_ops(payload + b"junk")

    def test_decode_rejects_short_payload(self):
        with pytest.raises(StoreProtocolError, match="count"):
            P.decode_ops(b"\x01")


class TestPopFrame:
    def test_pops_complete_frame_and_consumes(self):
        buf = bytearray(
            P.encode_frame(P.OP_PING, b"abc")
            + P.encode_frame(P.OP_LS, b"")
        )
        assert P.pop_frame(buf) == (P.OP_PING, b"abc")
        assert P.pop_frame(buf) == (P.OP_LS, b"")
        assert P.pop_frame(buf) is None
        assert not buf

    def test_byte_at_a_time_feed(self):
        frame = P.encode_frame(P.OP_PUT_CHUNK, b"payload-bytes")
        buf = bytearray()
        popped = []
        for byte in frame:
            buf.append(byte)
            got = P.pop_frame(buf)
            if got is not None:
                popped.append(got)
        assert popped == [(P.OP_PUT_CHUNK, b"payload-bytes")]

    def test_bad_magic_raises(self):
        frame = bytearray(P.encode_frame(P.OP_PING))
        frame[:4] = b"NOPE"
        with pytest.raises(StoreProtocolError, match="magic"):
            P.pop_frame(frame)

    def test_unsupported_version_raises(self):
        frame = bytearray(P.encode_frame(P.OP_PING))
        frame[4] = 99
        with pytest.raises(StoreProtocolError, match="version"):
            P.pop_frame(frame)

    def test_oversized_length_raises(self):
        frame = bytearray(P.HEADER.pack(P.MAGIC, P.VERSION, P.OP_PING,
                                        P.MAX_FRAME + 1))
        with pytest.raises(StoreProtocolError, match="MAX_FRAME"):
            P.pop_frame(frame)


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
            assert c.remote_node_id is None  # nothing until the first request
            assert c.ping()
            assert c.remote_node_id == "n0"
        assert fleet_node.hellos == 1


class TestRstp2Ops:
    def test_batched_ops_share_one_frame(self, fleet_node):
        host, port = fleet_node.address
        chunks = [f"chunk-{i}".encode() for i in range(10)]
        with StoreClient(host, port, backoff=0.01) as c:
            assert c.put_chunks(chunks) == [True] * 10
            assert c.put_chunks(chunks) == [False] * 10  # all dedup
        assert fleet_node.batches_handled == 2
        assert fleet_node.batched_ops_handled == 20

    def test_get_many_streams_and_names_missing(self, fleet_node):
        host, port = fleet_node.address
        chunks = [f"stream-{i}".encode() for i in range(5)]
        keys = [chunk_key(ch) for ch in chunks]
        with StoreClient(host, port, backoff=0.01) as c:
            c.put_chunks(chunks)
            found = {}
            missing = c.get_many(
                keys + ["0" * 64],
                lambda key, data: found.update({key: bytes(data)}),
            )
            assert found == dict(zip(keys, chunks))
            assert missing == ["0" * 64]
        assert fleet_node.chunks_streamed == 5

    def test_nested_batch_rejected_per_slot(self, fleet_node):
        host, port = fleet_node.address
        with StoreClient(host, port, backoff=0.01) as c:
            results = c.batch_call([
                (P.OP_PING, b""),
                (P.OP_BATCH, P.encode_ops([])),
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
        err = P.decode_json(P.error_payload(StoreNotFoundError("gone")))
        assert err == {"error": "StoreNotFoundError", "message": "gone"}
        generic = P.decode_json(P.error_payload(ValueError("boom")))
        assert generic["error"] == "StoreError"
        assert "boom" in generic["message"]
