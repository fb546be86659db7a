"""The byte path a generation takes across the wire: upload windows, the
daemon's pumped chunk stream, the in-place download, the GEN ship.

Each hop holds about one window of a generation and copies each byte at
most once, and the bytes on the wire are the ones the protocol always
carried: the three streams below are pinned by digest to what the
joined encoders produced before any of this existed.
"""

from __future__ import annotations

import hashlib
import random
import socket
import time
import tracemalloc

import pytest

from repro.checkpoint.generation import GenRecord
from repro.replication import ReplicationSender, wire
from repro.store import ChunkStore, FleetClient, FleetNode, StoreClient
from repro.store import protocol as P
from repro.store import server as store_server
from repro.store.fleet import client as fleet_client

CS = 64 * 1024  # the default chunk size


@pytest.fixture
def node(tmp_path):
    daemon = FleetNode(ChunkStore(str(tmp_path / "store")))
    daemon.start()
    yield daemon
    daemon.stop()


class Recorder:
    """A socket that keeps a copy of every frame it sends."""

    def __init__(self, sock) -> None:
        self._sock = sock
        self.sent: list[bytes] = []

    def sendall(self, data) -> None:
        self.sent.append(bytes(data))
        self._sock.sendall(data)

    def sendmsg(self, buffers) -> int:
        self.sent.append(b"".join(buffers))
        return self._sock.sendmsg(buffers)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class FakeStandby:
    """Takes one GEN frame and answers with the ACK that covers it."""

    def __init__(self, seq: int) -> None:
        self.sent: list[bytes] = []
        self._in = wire.encode_frame(wire.OP_ACK, wire.encode_ack(seq, seq))

    def sendall(self, data) -> None:
        self.sent.append(bytes(data))

    def sendmsg(self, buffers) -> int:
        self.sent.append(b"".join(buffers))
        return len(self.sent[-1])

    def recv(self, n: int) -> bytes:
        out, self._in = self._in[:n], self._in[n:]
        return out

    def settimeout(self, _timeout) -> None:
        pass


def _digest(frames: list[bytes]) -> str:
    return hashlib.sha256(b"".join(frames)).hexdigest()


def _read_until_end(sock) -> bytes:
    """The raw bytes of one GET_MANY answer, through its END frame."""
    raw, buf = bytearray(), bytearray()
    while True:
        data = sock.recv(CS)
        assert data, "daemon hung up mid-answer"
        raw += data
        buf += data
        while (frame := P.pop_frame(buf)) is not None:
            if frame[0] == P.OP_END:
                assert not buf
                return bytes(raw)


class TestNoWireRevision:
    """Digests of the streams the joined encoders sent for this payload
    (one window: 5 chunks), this GET_MANY and this GEN frame."""

    UPLOAD = "2f924e0e29effb8a1ff7744e2bc3e5ae2bd37a1f0c88f23518e40b7c5f04cfd0"
    GET_MANY = "82f98334499f1f1c5bcf4781f8791a2a2bc68b3f917c8fd0e9ee12a51bbcf8d5"
    GEN = "a17527851542e34743d46a17d2b506e7142315e79a2f81e58ad9f3238dd5e26d"

    PAYLOAD = random.Random(2002).randbytes(300_000)

    def test_upload_stream_is_unchanged(self, node, monkeypatch):
        recorders = []
        connect = StoreClient._connect

        def recording(client):
            recorders.append(Recorder(connect(client)))
            return recorders[-1]

        monkeypatch.setattr(StoreClient, "_connect", recording)
        with FleetClient([node.address], backoff=0.01) as client:
            client.put_checkpoint(
                "vm", self.PAYLOAD, meta={"platform": "rodrigo"}
            )
        (recorder,) = recorders
        assert len(recorder.sent) == 5  # EPOCH HAS_MANY BATCH PUT_MANIFEST EPOCH
        assert _digest(recorder.sent) == self.UPLOAD

    def test_get_many_answer_is_unchanged(self, node):
        with FleetClient([node.address], backoff=0.01) as client:
            client.put_checkpoint("vm", self.PAYLOAD)
        keys = [
            hashlib.sha256(self.PAYLOAD[i : i + CS]).digest()
            for i in range(0, len(self.PAYLOAD), CS)
        ]
        with socket.create_connection(node.address) as sock:
            sock.sendall(
                P.encode_frame(P.OP_GET_MANY, b"".join(keys) + bytes(32))
            )
            raw = _read_until_end(sock)
        assert hashlib.sha256(raw).hexdigest() == self.GET_MANY

    def test_gen_frame_is_unchanged(self):
        rec = GenRecord(
            seq=3, kind="delta", body_sha256="ab" * 32,
            parent_sha256="cd" * 32, chain_depth=2, format_version=4,
            instructions=123456, stdout=b"t1=1;t2=3;",
            data=random.Random(7).randbytes(200_000),
        )
        standby = FakeStandby(rec.seq)
        assert ReplicationSender(standby, "primary").ship(rec) == rec.seq
        (frame,) = standby.sent  # one scatter send
        assert _digest(standby.sent) == self.GEN
        assert frame == wire.encode_frame(wire.OP_GEN, wire.encode_gen(rec))


class TestUploadWindows:
    @pytest.fixture
    def exchanges(self, monkeypatch):
        seen: list[int] = []
        exchange = StoreClient._exchange

        def logged(client, op, payload, read):
            seen.append(op)
            return exchange(client, op, payload, read)

        monkeypatch.setattr(StoreClient, "_exchange", logged)
        return seen

    def test_one_window_costs_what_it_always_did(self, node, exchanges):
        with FleetClient([node.address], backoff=0.01) as client:
            client.put_checkpoint("vm", random.Random(1).randbytes(5 * CS))
        assert exchanges == [
            P.OP_EPOCH, P.OP_HAS_MANY, P.OP_BATCH, P.OP_PUT_MANIFEST,
            P.OP_EPOCH,
        ]

    def test_an_unchanged_window_is_asked_for_and_not_sent(
        self, node, exchanges
    ):
        payload = random.Random(1).randbytes(5 * CS)
        with FleetClient([node.address], backoff=0.01) as client:
            client.put_checkpoint("vm", payload)
            exchanges.clear()
            _gen, stats = client.put_checkpoint("vm", payload)
        assert stats.bytes_new == 0
        assert exchanges == [
            P.OP_EPOCH, P.OP_HAS_MANY, P.OP_PUT_MANIFEST, P.OP_EPOCH,
        ]

    def test_each_extra_window_adds_one_query_and_one_put(
        self, node, exchanges
    ):
        per_window = fleet_client._WINDOW_BYTES // CS
        windows = 4
        payload = random.Random(2).randbytes((windows - 1) * per_window * CS
                                             + 3 * CS)
        with FleetClient([node.address], backoff=0.01) as client:
            _gen, stats = client.put_checkpoint("vm", payload)
        assert stats.bytes_new == len(payload)
        assert exchanges.count(P.OP_HAS_MANY) == windows
        assert exchanges.count(P.OP_BATCH) == windows
        assert len(exchanges) == 5 + 2 * (windows - 1)

    def test_a_window_is_one_batch_at_any_chunk_size(self, node, exchanges):
        """Tiny chunks: the window closes at MAX_BATCH_OPS chunks, not
        at its byte budget, so it still fits one ``BATCH``."""
        payload = random.Random(3).randbytes(600 * 512)
        with FleetClient([node.address], backoff=0.01,
                         chunk_size=512) as client:
            client.put_checkpoint("vm", payload)
            back, _m = client.get_checkpoint("vm")
        assert back == payload
        windows = -(-600 // P.MAX_BATCH_OPS)
        assert exchanges.count(P.OP_BATCH) == windows
        assert exchanges.count(P.OP_HAS_MANY) == windows

    def test_a_window_is_let_go_before_the_next_is_read(self, node, tmp_path):
        """A file upload holds one window of the file, not the file."""
        window = fleet_client._WINDOW_BYTES
        path = tmp_path / "gen.hckp"
        path.write_bytes(random.Random(4).randbytes(6 * window))
        with FleetClient([node.address], backoff=0.01) as client:
            client.ping()
            tracemalloc.start()
            try:
                _gen, stats = client.put_checkpoint_file("vm", str(path))
                _now, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert stats.bytes_new == 6 * window
        # Client and daemon together: about one window each.
        assert peak < 3 * window


class TestBytesNewFromTheDaemon:
    def test_a_chunk_put_by_another_client_is_not_counted_twice(self, node):
        shared = random.Random(5).randbytes(CS)
        mine = shared + random.Random(6).randbytes(CS)
        a = FleetClient([node.address], backoff=0.01)
        b = FleetClient([node.address], backoff=0.01)
        (conn_a,) = a.nodes.values()
        asked = conn_a.has_many
        raced = []

        def has_many_then_race(keys):
            answer = asked(keys)  # "absent" — then b puts the shared chunk
            raced.append(b.put_checkpoint("b", shared)[1])
            return answer

        conn_a.has_many = has_many_then_race
        try:
            _gen, stats_a = a.put_checkpoint("a", mine)
        finally:
            a.close()
            b.close()
        (stats_b,) = raced
        assert stats_b.bytes_new == CS
        assert stats_a.bytes_new == CS and stats_a.chunks_new == 1
        stored = sum(1 for _ in node.store.iter_objects())
        assert stats_a.chunks_new + stats_b.chunks_new == stored == 2


class TestNoDelay:
    def test_both_ends_of_a_store_connection_set_tcp_nodelay(self, node):
        host, port = node.address
        with StoreClient(host, port, backoff=0.01) as client:
            assert client.ping()
            (daemon_end,) = list(node._conns)
            for sock in (client._sock, daemon_end):
                assert sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                ) != 0


class TestPumpedGetMany:
    #: 8 MiB of chunks: more than the watermark plus what the kernel's
    #: loopback buffers take before the stalled reader stops the writer.
    N = 128

    def _fill(self, node) -> list[bytes]:
        rng = random.Random(8)
        chunks = [rng.randbytes(CS) for _ in range(self.N)]
        with StoreClient(*node.address, backoff=0.01) as client:
            client.put_chunks(chunks)
        return [hashlib.sha256(c).digest() for c in chunks]

    def test_daemon_holds_one_watermark_and_later_requests_wait(self, node):
        keys = self._fill(node)
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32 * 1024)
        sock.connect(node.address)
        try:
            # A GET_MANY and a PING behind it, and nothing read yet.
            sock.sendall(P.encode_frame(P.OP_GET_MANY, b"".join(keys))
                         + P.encode_frame(P.OP_PING))
            deadline = time.monotonic() + 5
            while not node._conns:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            (conn,) = node._conns.values()
            while not node.chunks_streamed:  # the stream has begun ...
                assert time.monotonic() < deadline
                time.sleep(0.01)
            streamed = -1
            while streamed != node.chunks_streamed:  # ... and stalled
                assert time.monotonic() < deadline
                streamed = node.chunks_streamed
                time.sleep(0.2)
            assert conn.answer is not None  # the stream is mid-way
            assert node.chunks_streamed < self.N
            assert len(conn.outbuf) < store_server._WATERMARK + CS + 64
            # Everything arrives, in order: the stream, then the PONG.
            buf, frames = bytearray(), []
            sock.settimeout(10)
            while len(frames) < self.N + 2:
                buf += sock.recv(1 << 20)
                while (frame := P.pop_frame(buf)) is not None:
                    frames.append(frame)
        finally:
            sock.close()
        assert [op for op, _ in frames[: self.N]] == [P.OP_CHUNK] * self.N
        assert [bytes(P.decode_chunk(p)[0]) for _, p in frames[: self.N]] \
            == keys
        assert frames[self.N][0] == P.OP_END
        assert frames[self.N + 1] == (P.OP_OK, b"pong")

    def test_a_payload_is_assembled_in_place(self, node):
        payload = random.Random(9).randbytes(10 * CS + 123)
        with FleetClient([node.address], backoff=0.01) as client:
            _gen, _stats = client.put_checkpoint("vm", payload)
            manifest = client.get_manifest("vm")
            (back,) = client.get_payloads("vm", [manifest])
        assert isinstance(back, bytearray) and back == payload


class TestGenReceivedInPlace:
    def test_decode_gen_parses_by_views(self):
        rec = GenRecord(
            seq=1, kind="full", body_sha256="ab" * 32, parent_sha256="",
            chain_depth=0, format_version=3, instructions=7,
            stdout=b"out", data=random.Random(10).randbytes(100_000),
        )
        frame = bytearray(wire.encode_gen(rec))
        back = wire.decode_gen(frame)
        assert back == rec
        assert isinstance(back.data, memoryview) and back.data.readonly
        assert back.data.obj is frame  # a view of the frame, not a copy
        assert type(back.stdout) is bytes
