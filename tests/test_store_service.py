"""Tests for the store daemon, client retry, replication, heartbeats.

One contract suite, both shard counts: every class that talks to a
running store does so through ``FleetNode`` + ``FleetClient`` over
``SHARDS`` daemons, and is run again over three by a subclass at the
bottom of this file — a single-node store is a 1-shard fleet.
"""

from __future__ import annotations

import contextlib
import os
import random
import socket
import threading

import pytest

from repro.errors import (
    StoreConnectionError,
    StoreError,
    StoreIntegrityError,
    StoreNotFoundError,
    StoreProtocolError,
)
from repro.net import RetryPolicy
from repro.store import ChunkStore, FleetClient, FleetNode, StoreClient
from repro.store import protocol as P


@pytest.fixture
def fleet(request, tmp_path):
    """``SHARDS`` running daemons (1 unless the test class says more)."""
    shards = getattr(request.cls, "SHARDS", 1)
    nodes = [
        FleetNode(ChunkStore(str(tmp_path / f"shard{i}")), node_id=f"n{i}")
        for i in range(shards)
    ]
    for node in nodes:
        node.start()
    yield nodes
    for node in nodes:
        node.stop()


def addrs(servers) -> list[tuple[str, int]]:
    return [s.address for s in servers]


@pytest.fixture
def client(fleet):
    with FleetClient(addrs(fleet), retries=2, backoff=0.01) as c:
        yield c


@contextlib.contextmanager
def closing_all(things):
    try:
        yield things
    finally:
        for thing in things:
            thing.close()


class DroppingProxy:
    """A TCP proxy that kills its first N accepted connections, then
    forwards transparently — the injected transport fault."""

    def __init__(self, upstream: tuple[str, int], drop_first: int = 1) -> None:
        self.upstream = upstream
        self.drops_left = drop_first
        self.connections = 0
        self._listen = socket.socket()
        self._listen.bind(("127.0.0.1", 0))
        self._listen.listen(8)
        self.address = self._listen.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listen.accept()
            except OSError:
                return
            self.connections += 1
            if self.drops_left > 0:
                self.drops_left -= 1
                conn.close()  # the fault: connection dies immediately
                continue
            threading.Thread(
                target=self._forward, args=(conn,), daemon=True
            ).start()

    def _forward(self, conn: socket.socket) -> None:
        up = socket.create_connection(self.upstream)

        def pump(src, dst):
            try:
                while True:
                    data = src.recv(65536)
                    if not data:
                        break
                    dst.sendall(data)
            except OSError:
                pass
            finally:
                for s in (src, dst):
                    try:
                        s.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass

        t = threading.Thread(target=pump, args=(up, conn), daemon=True)
        t.start()
        pump(conn, up)

    def close(self) -> None:
        self._stop.set()
        self._listen.close()


class TestDaemonRoundtrip:
    SHARDS = 1

    def test_ping(self, client):
        assert client.ping()

    def test_checkpoint_roundtrip(self, client):
        payload = os.urandom(300_000)
        gen, stats = client.put_checkpoint("vm", payload, meta={"p": "csd"})
        assert gen == 1
        assert stats.chunks_new == stats.chunks_total
        back, manifest = client.get_checkpoint("vm")
        assert back == payload
        assert manifest.meta == {"p": "csd"}

    def test_file_roundtrip_streams(self, client, tmp_path):
        src = tmp_path / "in.bin"
        src.write_bytes(os.urandom(200_000))
        client.put_checkpoint_file("vm", str(src))
        out = tmp_path / "out.bin"
        client.get_checkpoint_file("vm", str(out))
        assert out.read_bytes() == src.read_bytes()

    def test_second_put_dedups(self, client):
        payload = bytearray(os.urandom(256 * 1024))
        client.put_checkpoint("vm", bytes(payload))
        payload[1000:1100] = os.urandom(100)  # touch one chunk
        gen, stats = client.put_checkpoint("vm", bytes(payload))
        assert gen == 2
        assert stats.chunks_new == 1
        assert stats.dedup_ratio > 2.0

    def test_empty_payload(self, client):
        client.put_checkpoint("vm", b"")
        back, _ = client.get_checkpoint("vm")
        assert back == b""

    def test_named_generations_in_one_batch(self, client):
        for i in range(3):
            client.put_checkpoint("vm", os.urandom(5_000), meta={"i": i})
        got = client.get_manifests("vm", [3, 1, 7])
        assert got[0] == client.get_manifest("vm", 3)
        assert got[1] == client.get_manifest("vm", 1)
        assert got[2] is None
        payloads = client.get_payloads("vm", got[:2])
        assert payloads == [
            client.get_checkpoint("vm", g)[0] for g in (3, 1)
        ]

    @pytest.mark.parametrize("stored", [b"{not json", b"\xff\xfe\x00junk"])
    def test_damaged_manifest_file_is_a_typed_error(self, fleet, client,
                                                    stored):
        """The daemon serves a manifest as stored; the reader's parse is
        what rejects a damaged one — typed, never a raw decode error."""
        client.put_checkpoint("vm", os.urandom(5_000))
        owner = client.manifest_node("vm")
        node = next(
            n for n in fleet if f"{n.address[0]}:{n.address[1]}" == owner
        )
        with open(node.store._manifest_path("vm", 1), "wb") as f:
            f.write(stored)
        for read in (lambda: client.get_manifest("vm", 1),
                     lambda: client.get_manifests("vm", [1])):
            with pytest.raises(StoreIntegrityError, match="malformed"):
                read()
        with pytest.raises(StoreIntegrityError, match="malformed"):
            node.store.read_manifest("vm", 1)

    def test_application_errors_not_retried(self, client):
        with pytest.raises(StoreNotFoundError):
            client.get_manifest("ghost")
        assert client.retries_used == 0

    def test_ls_gc_stat_audit(self, client):
        client.put_checkpoint("vm", os.urandom(10_000))
        assert "vm" in client.ls()["vms"]
        assert client.gc()["removed"] == 0
        stat = client.stat()
        assert len(stat["shards"]) == self.SHARDS
        assert all(s["requests_served"] > 0 for s in stat["shards"].values())
        assert client.audit()["ok"]

    def test_scoped_ls_is_the_unscoped_entry_for_that_vm(self, client):
        for vm, count in (("vm", 3), ("other", 2), ("vm.lease", 1)):
            for i in range(count):
                client.put_checkpoint(vm, os.urandom(5_000), meta={"i": i})
        everything = client.ls()
        assert "objects" in everything
        for vm in ("vm", "other", "vm.lease"):
            assert client.ls(vm) == {"vms": {vm: everything["vms"][vm]}}
        assert [g["generation"] for g in client.ls("vm")["vms"]["vm"]] == [
            1, 2, 3,
        ]

    def test_scoped_ls_merges_generations_split_across_shards(self, client):
        """Before a rebalance one vm's manifests can sit on two shards;
        the scoped listing asks every shard, as the whole one does."""
        client.put_checkpoint("vm", os.urandom(5_000), meta={"gen": 1})
        client.put_checkpoint("bystander", os.urandom(5_000))
        first = client.get_manifest("vm", 1)
        owner = client.manifest_node("vm")
        stray = next((n for n in sorted(client.nodes) if n != owner), owner)
        client.nodes[stray].put_manifest(
            "vm", list(first.chunks),
            payload_len=first.payload_len,
            payload_sha256=first.payload_sha256,
            meta={"gen": 2}, generation=2, check_chunks=False,
        )
        scoped = client.ls("vm")
        assert scoped == {"vms": {"vm": client.ls()["vms"]["vm"]}}
        assert [g["meta"] for g in scoped["vms"]["vm"]] == [
            {"gen": 1}, {"gen": 2},
        ]
        client.rebalance()  # re-commits the stray one: a new `created`

        def stable(listing):
            return [
                {k: v for k, v in g.items() if k != "created"}
                for g in listing["vms"]["vm"]
            ]

        assert stable(client.ls("vm")) == stable(scoped)

    def test_scoped_ls_of_an_unknown_vm_is_empty(self, client):
        client.put_checkpoint("vm", os.urandom(5_000))
        assert client.ls("ghost") == {"vms": {}}

    def test_scoped_ls_rejects_a_bad_vm_id_typed(self, client):
        with pytest.raises(StoreError, match="invalid vm id") as e:
            client.ls("../escape")
        assert type(e.value) is StoreError
        assert client.retries_used == 0

    @pytest.mark.parametrize(
        "op, request_json",
        [
            (P.OP_GET_MANIFEST, {}),
            (P.OP_GET_MANIFEST, [1]),
            (P.OP_GET_MANIFEST, {"vm_id": 5}),
            (P.OP_AUDIT, [1]),
            (P.OP_LS, [1]),
            (P.OP_LS, {"vm_id": 5}),
            (P.OP_LS, {"vm_id": None}),
            (P.OP_HELLO, [1]),
            (P.OP_PUT_MANIFEST, {}),
            (P.OP_DEL_MANIFEST, []),
            (P.OP_CLAIM, {}),
            (P.OP_CLAIM, {"lease_id": "a.lease", "holder": "n", "expected": "1"}),
            (P.OP_CLAIM, {"lease_id": "a.lease", "holder": "n", "expected": -1}),
        ],
    )
    def test_malformed_request_is_a_typed_error(self, fleet, op, request_json):
        """Damaged JSON in a request answers ``StoreProtocolError:
        malformed <OP>`` — never ``internal: KeyError`` — and the
        connection keeps serving."""
        for node in fleet:
            with socket.create_connection(node.address, timeout=5) as sock:
                P.send_frame(sock, op, P.encode_json(request_json))
                rop, rpayload = P.recv_frame(sock)
                assert rop == P.OP_ERR
                err = P.decode_json(rpayload)
                assert err["error"] == "StoreProtocolError"
                assert err["message"].startswith(
                    f"malformed {P.OP_NAMES[op]}: "
                )
                P.send_frame(sock, P.OP_PING)
                assert P.recv_frame(sock) == (P.OP_OK, b"pong")

    def test_wrong_version_byte_drops_the_connection(self, fleet):
        """One wire revision: a frame stamped with any other version is
        garbage framing to the daemon, exactly like bad magic."""
        frame = bytearray(P.encode_frame(P.OP_PING))
        frame[4] = P.VERSION - 1
        for node in fleet:
            with socket.create_connection(node.address, timeout=5) as sock:
                sock.sendall(frame)
                assert sock.recv(1) == b""  # hung up, no reply

    def test_many_clients_concurrently(self, fleet):
        errors: list[Exception] = []

        def worker(i: int) -> None:
            try:
                with FleetClient(addrs(fleet)) as c:
                    payload = bytes([i]) * 50_000
                    c.put_checkpoint(f"vm{i}", payload)
                    back, _ = c.get_checkpoint(f"vm{i}")
                    assert back == payload
            except Exception as e:  # surfaces in the main thread
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


class TestClientRetry:
    SHARDS = 1

    def test_survives_one_dropped_connection(self, fleet, tmp_path):
        """Acceptance: a put_checkpoint_file succeeds although the first
        connection to every shard is torn down by the network."""
        proxies = [DroppingProxy(n.address, drop_first=1) for n in fleet]
        with closing_all(proxies):
            src = tmp_path / "ck.bin"
            src.write_bytes(os.urandom(150_000))
            with FleetClient(addrs(proxies), retries=3, backoff=0.01) as c:
                gen, _ = c.put_checkpoint_file("vm", str(src))
                assert gen == 1
                assert c.retries_used >= self.SHARDS
                back, _ = c.get_checkpoint("vm")
            assert back == src.read_bytes()

    def test_retried_upload_is_idempotent(self, fleet):
        """A retry that re-sends the whole upload must not mint a second
        generation."""
        proxies = [DroppingProxy(n.address, drop_first=0) for n in fleet]
        with closing_all(proxies):
            payload = os.urandom(100_000)
            with FleetClient(addrs(proxies), retries=3, backoff=0.01) as c:
                c.put_checkpoint("vm", payload)
                # simulate "reply lost, client retries the whole upload"
                gen, stats = c.put_checkpoint("vm", payload)
            assert gen == 1
            assert stats.bytes_new == 0
            assert [
                g for n in fleet for g in n.store.generations("vm")
            ] == [1]

    def test_gives_up_after_bounded_retries(self):
        dead = [socket.socket() for _ in range(self.SHARDS)]
        with closing_all(dead):
            for sock in dead:
                sock.bind(("127.0.0.1", 0))  # bound but never accepting
            c = FleetClient([s.getsockname() for s in dead],
                            connect_timeout=0.2, retries=2, backoff=0.01)
            with pytest.raises(StoreConnectionError, match="3 attempt"):
                c.ping()

    def test_garbage_response_raises_protocol_error(self):
        listeners = [socket.socket() for _ in range(self.SHARDS)]

        def answer_garbage(listener):
            conn, _ = listener.accept()
            conn.recv(65536)
            conn.sendall(b"HTTP/1.1 200 OK\r\n\r\n")
            conn.close()

        with closing_all(listeners):
            for listener in listeners:
                listener.bind(("127.0.0.1", 0))
                listener.listen(1)
                threading.Thread(
                    target=answer_garbage, args=(listener,), daemon=True
                ).start()
            c = FleetClient([s.getsockname() for s in listeners],
                            retries=0, io_timeout=2.0)
            with pytest.raises((StoreProtocolError, StoreConnectionError)):
                c.ping()


class TestReplication:
    def _pair(self, tmp_path):
        follower = FleetNode(ChunkStore(str(tmp_path / "follower")))
        follower.start()
        primary = FleetNode(
            ChunkStore(str(tmp_path / "primary")),
            replicas=[follower.address],
            heartbeat_interval=0.05,
        )
        primary.start()
        return primary, follower

    def test_manifest_and_chunks_reach_follower(self, tmp_path):
        primary, follower = self._pair(tmp_path)
        try:
            payload = os.urandom(200_000)
            with FleetClient([primary.address]) as c:
                gen, _ = c.put_checkpoint("vm", payload)
            back, m = follower.store.get_checkpoint("vm")
            assert back == payload
            assert m.generation == gen
            assert primary.followers[0].manifests_replicated == 1
        finally:
            primary.stop()
            follower.stop()

    def test_recovered_follower_catches_up(self, tmp_path):
        """Self-healing: a follower that was down during generation 1
        holds generations 1 *and* 2 after the next checkpoint lands."""
        primary, follower = self._pair(tmp_path)
        try:
            follower.stop()  # the outage
            base = os.urandom(150_000)
            with FleetClient([primary.address]) as c:
                c.put_checkpoint("vm", base)
                assert primary.replication_failures >= 1

                # follower comes back on the same address
                follower2 = FleetNode(
                    ChunkStore(str(tmp_path / "follower")),
                    port=follower.address[1],
                )
                follower2.start()
                primary.heartbeat_once()  # liveness recovers
                assert primary.followers[0].alive

                c.put_checkpoint("vm", base + os.urandom(10_000))
            assert follower2.store.generations("vm") == [1, 2]
            back, _ = follower2.store.get_checkpoint("vm", generation=1)
            assert back == base
            follower2.stop()
        finally:
            primary.stop()

    def test_heartbeat_marks_dead_follower(self, tmp_path):
        primary, follower = self._pair(tmp_path)
        try:
            follower.stop()
            for _ in range(primary.heartbeat_misses):
                primary.heartbeat_once()
            state = primary.followers[0]
            assert not state.alive
            assert state.consecutive_failures >= primary.heartbeat_misses
            # replication now skips it without raising
            with FleetClient([primary.address]) as c:
                gen, _ = c.put_checkpoint("vm", b"x" * 1000)
            assert gen == 1
        finally:
            primary.stop()

    def test_follower_state_in_stats(self, tmp_path):
        primary, follower = self._pair(tmp_path)
        try:
            with FleetClient([primary.address]) as c:
                c.put_checkpoint("vm", b"y" * 1000)
                (stat,) = c.stat()["shards"].values()
            (f,) = stat["followers"]
            assert f["alive"] and f["manifests_replicated"] == 1
        finally:
            primary.stop()
            follower.stop()


class MidFrameServer:
    """A fake store daemon that dies mid-response-frame.

    It shakes hands like the real one (``HELLO`` -> ``OK``, unless
    ``hello`` overrides that answer) and answers every other request
    ``OK pong`` — except that on its first ``die_count`` connections it
    sends only ``reply_bytes`` bytes of that response and slams the
    connection shut: a daemon killed between ``write()`` and the frame
    boundary.  ``hello`` is the raw bytes to answer ``HELLO`` with (the
    connection closes right after them).
    """

    def __init__(self, reply_bytes: int = 0, die_count: int = 1,
                 hello: bytes | None = None) -> None:
        self.reply_bytes = reply_bytes
        self.die_count = die_count
        self.hello = hello
        self.connections = 0
        self._listen = socket.socket()
        self._listen.bind(("127.0.0.1", 0))
        self._listen.listen(8)
        self.address = self._listen.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listen.accept()
            except OSError:
                return
            self.connections += 1
            try:
                self._converse(conn, dying=self.connections <= self.die_count)
            except Exception:
                pass
            finally:
                conn.close()

    def _converse(self, conn: socket.socket, dying: bool) -> None:
        while True:
            frame = P.recv_frame(conn, allow_eof=True)
            if frame is None:
                return
            op, _payload = frame
            if op == P.OP_HELLO:
                if self.hello is not None:
                    conn.sendall(self.hello)
                    return
                P.send_frame(conn, P.OP_OK, P.encode_json({}))
                continue
            reply = P.encode_frame(P.OP_OK, b"pong")
            if dying:
                conn.sendall(reply[: self.reply_bytes])
                return
            conn.sendall(reply)

    def close(self) -> None:
        self._listen.close()


class TestClientMidFrameDeath:
    """The daemon dies halfway through a response frame (PR 3 satellite):
    the client must retry on the typed mid-frame error and either recover
    or surface :class:`StoreConnectionError` — never hang or crash."""

    SHARDS = 1

    def _servers(self, **kwargs):
        return closing_all(
            [MidFrameServer(**kwargs) for _ in range(self.SHARDS)]
        )

    def test_partial_header_then_recovery(self):
        # 4 of the 10 header bytes
        with self._servers(reply_bytes=4) as servers:
            with FleetClient(addrs(servers), retries=2, backoff=0.01) as c:
                assert c.ping()
                assert c.retries_used == self.SHARDS
                assert [s.connections for s in servers] == [2] * self.SHARDS

    def test_partial_payload_then_recovery(self):
        # Full header (length says 4) but only half the payload follows.
        with self._servers(reply_bytes=P.HEADER.size + 2) as servers:
            with FleetClient(addrs(servers), retries=2, backoff=0.01) as c:
                assert c.ping()
                assert c.retries_used == self.SHARDS

    def test_persistent_mid_frame_death_is_typed(self):
        with self._servers(reply_bytes=4, die_count=100) as servers:
            with FleetClient(addrs(servers), retries=2, backoff=0.01) as c:
                with pytest.raises(StoreConnectionError, match="after 3"):
                    c.ping()
                # One initial attempt + `retries` retries, no more (and
                # the first dead shard ends the fleet-wide ping).
                assert servers[0].connections == 3

    def test_zero_byte_response_then_recovery(self):
        with self._servers(reply_bytes=0) as servers:
            with FleetClient(addrs(servers), retries=2, backoff=0.01) as c:
                assert c.ping()


class TestHelloHardening:
    """A peer that botches the HELLO surfaces as a typed store error
    through the one retry loop — never ``struct.error``/``TypeError``."""

    SHARDS = 1

    def _refused(self, hello: bytes, match: str):
        servers = [MidFrameServer(hello=hello) for _ in range(self.SHARDS)]
        with closing_all(servers):
            node = StoreClient(*servers[0].address, retries=0)
            with pytest.raises(StoreProtocolError, match=match):
                node._connect()
            with FleetClient(addrs(servers), retries=1, backoff=0.01) as c:
                with pytest.raises(StoreConnectionError, match=match):
                    c.ping()
                # the refusal went through the retry loop: two attempts
                assert servers[0].connections == 1 + 2

    def test_hello_answered_by_err(self):
        err = P.encode_json(
            {"error": "StoreProtocolError", "message": "unknown opcode 0x10"}
        )
        self._refused(
            P.encode_frame(P.OP_ERR, err),
            match=r"peer 127\.0\.0\.1:\d+ refused HELLO \(unknown opcode",
        )

    def test_hello_answered_by_unexpected_opcode(self):
        self._refused(
            P.encode_frame(P.OP_CHUNK, b"\0" * 40),
            match=r"refused HELLO \(opcode 0x82\)",
        )

    def test_hello_answered_by_mid_frame_hangup(self):
        reply = P.encode_frame(P.OP_OK, P.encode_json({"node_id": "n0"}))
        self._refused(reply[: P.HEADER.size + 3], match="mid-frame")

    def test_hello_answered_in_another_wire_version(self):
        reply = bytearray(P.encode_frame(P.OP_OK, P.encode_json({})))
        reply[4] = P.VERSION + 1
        self._refused(bytes(reply), match="unsupported protocol version")


class TestPipelinedUpload:
    """The windowed upload: chunk hashing, per-window presence queries
    and batched puts, with results identical to a one-by-one put."""

    SHARDS = 1

    def test_many_chunk_payload_roundtrips(self, client):
        payload = os.urandom(64 * 1024 * 40 + 17)  # 41 chunks, odd tail
        gen, stats = client.put_checkpoint("vm", payload)
        assert stats.chunks_total == 41
        assert stats.bytes_total == len(payload)
        assert stats.chunks_new == stats.chunks_total
        back, manifest = client.get_checkpoint("vm")
        assert back == payload
        assert manifest.payload_len == len(payload)

    def test_pipelined_dedup_matches_sequential(self, client):
        payload = bytearray(os.urandom(64 * 1024 * 12))
        client.put_checkpoint("vm", bytes(payload))
        payload[5 * 64 * 1024] ^= 0xFF  # dirty exactly one chunk
        _, stats = client.put_checkpoint("vm", bytes(payload))
        assert stats.chunks_new == 1
        assert stats.bytes_new == 64 * 1024

    def test_producer_error_propagates_and_mints_nothing(self, client):
        def chunks():
            yield b"x" * 1000
            raise ValueError("disk fell off")

        with pytest.raises(ValueError, match="disk fell off"):
            client._put_stream("vm", chunks, None)
        with pytest.raises(StoreNotFoundError):
            client.get_manifest("vm")

    def test_repeated_chunks_deduped_within_one_put(self, client):
        chunk = os.urandom(64 * 1024)
        payload = chunk * 20
        _, stats = client.put_checkpoint("vm", payload)
        assert stats.chunks_total == 20
        assert stats.chunks_new == 1  # same key uploaded once
        back, _ = client.get_checkpoint("vm")
        assert back == payload


class TestJitterBackoff:
    """Full-jitter retry backoff (PR 7 satellite): delays are uniform in
    [0, bounded exponential cap], seedable for tests, and the retry
    counts surface in the metrics registry."""

    SHARDS = 1

    def test_delays_within_cap_and_seeded(self):
        a = RetryPolicy(3, backoff=0.1, backoff_max=1.0, seed=42)
        b = RetryPolicy(3, backoff=0.1, backoff_max=1.0, seed=42)
        delays_a = [a.delay(n) for n in range(1, 8)]
        delays_b = [b.delay(n) for n in range(1, 8)]
        assert delays_a == delays_b  # same seed, same schedule
        for attempt, delay in enumerate(delays_a, start=1):
            cap = min(0.1 * 2 ** (attempt - 1), 1.0)
            assert 0.0 <= delay <= cap

    def test_distinct_seeds_desynchronize(self):
        # the point of jitter: two clients retrying the same outage must
        # not sleep identical schedules (thundering herd)
        a = RetryPolicy(3, backoff=0.1, backoff_max=1.0, seed=1)
        b = RetryPolicy(3, backoff=0.1, backoff_max=1.0, seed=2)
        assert [a.delay(n) for n in range(1, 6)] != \
               [b.delay(n) for n in range(1, 6)]

    def test_jitter_disabled_is_deterministic_cap(self):
        c = RetryPolicy(3, backoff=0.05, backoff_max=0.4, jitter=False)
        assert [c.delay(n) for n in range(1, 6)] == \
               [0.05, 0.1, 0.2, 0.4, 0.4]

    def test_retries_surface_in_store_counters(self, fleet):
        from repro.metrics import STORE

        STORE.reset()
        proxies = [DroppingProxy(n.address, drop_first=2) for n in fleet]
        try:
            with closing_all(proxies), \
                    FleetClient(addrs(proxies), retries=3, backoff=0.01,
                                jitter_seed=7) as c:
                assert c.ping()
                assert c.retries_used == 2 * self.SHARDS
            assert STORE.transport_retries == 2 * self.SHARDS
            assert STORE.as_dict() == {
                "transport_retries": 2 * self.SHARDS
            }
        finally:
            STORE.reset()


class TestFollowerReprobe:
    """Dead-follower handling (PR 7 satellite): a follower marked dead
    keeps being probed on the heartbeat cadence, and the probe that
    revives it triggers a full catch-up across *every* vm."""

    def _primary(self, tmp_path, follower_addr, misses=1):
        primary = FleetNode(
            ChunkStore(str(tmp_path / "primary")),
            replicas=[follower_addr],
            heartbeat_interval=30.0,  # driven manually via heartbeat_once
            heartbeat_misses=misses,
        )
        primary.start()
        return primary

    def test_dead_follower_is_reprobed(self, tmp_path):
        follower = FleetNode(ChunkStore(str(tmp_path / "f")))
        follower.start()
        primary = self._primary(tmp_path, follower.address)
        try:
            follower.stop()
            primary.heartbeat_once()  # miss -> dead (misses=1)
            state = primary.followers[0]
            assert not state.alive
            assert state.reprobes == 0
            for _ in range(3):
                primary.heartbeat_once()
            assert state.reprobes == 3  # still probing while dead
            assert not state.alive
        finally:
            primary.stop()

    def test_revival_triggers_full_catch_up(self, tmp_path):
        """Commit to vm-a AND vm-b while the follower is dead; revival
        must replay both — not just the vm that commits next."""
        follower = FleetNode(ChunkStore(str(tmp_path / "f")))
        follower.start()
        port = follower.address[1]
        primary = self._primary(tmp_path, follower.address)
        try:
            follower.stop()
            primary.heartbeat_once()  # dead
            a, b = os.urandom(50_000), os.urandom(50_000)
            with FleetClient([primary.address]) as c:
                c.put_checkpoint("vm-a", a)
                c.put_checkpoint("vm-b", b)
            # an empty store rejoins on the same address (disk was lost)
            follower2 = FleetNode(
                ChunkStore(str(tmp_path / "f2")), port=port
            )
            follower2.start()
            try:
                primary.heartbeat_once()  # revival probe
                state = primary.followers[0]
                assert state.alive
                assert state.reprobes >= 1
                assert state.catchups == 1
                assert follower2.store.get_checkpoint("vm-a")[0] == a
                assert follower2.store.get_checkpoint("vm-b")[0] == b
                # the counters are visible through stat()
                with FleetClient([primary.address]) as c:
                    (stat,) = c.stat()["shards"].values()
                    (f,) = stat["followers"]
                assert f["catchups"] == 1 and f["reprobes"] >= 1
            finally:
                follower2.stop()
        finally:
            primary.stop()

    def test_failed_catch_up_remarks_dead(self, tmp_path):
        """If the catch-up replay itself fails the follower must not be
        declared alive with holes in its history."""
        follower = FleetNode(ChunkStore(str(tmp_path / "f")))
        follower.start()
        primary = self._primary(tmp_path, follower.address)
        try:
            follower.stop()
            primary.heartbeat_once()
            with FleetClient([primary.address]) as c:
                c.put_checkpoint("vm", os.urandom(20_000))
            # revive, but sabotage the replay
            follower2 = FleetNode(
                ChunkStore(str(tmp_path / "f2")), port=follower.address[1]
            )
            follower2.start()
            try:
                original = primary._catch_up
                from repro.errors import StoreError

                def failing_catch_up(f):
                    raise StoreError("replay pipe burst")

                primary._catch_up = failing_catch_up
                try:
                    primary.heartbeat_once()
                finally:
                    primary._catch_up = original
                state = primary.followers[0]
                assert not state.alive
                assert state.catchups == 1  # attempted
                assert "replay pipe burst" in state.last_error
                # the next heartbeat (replay intact) heals it
                primary.heartbeat_once()
                assert state.alive
                assert follower2.store.vm_ids() == ["vm"]
            finally:
                follower2.stop()
        finally:
            primary.stop()


class TestHeartbeatClock:
    """Follower liveness must ride the monotonic clock: an NTP step (or
    a manual ``date``) moving the wall clock must neither age a healthy
    follower nor freshen a dead one."""

    def test_never_seen_reports_none(self):
        from repro.store.server import FollowerState

        state = FollowerState("127.0.0.1", 1)
        assert state.seen_ago() is None
        assert state.describe()["last_ok_age_seconds"] is None

    def test_wall_clock_step_does_not_age_a_follower(self, monkeypatch):
        import time as time_module

        from repro.store.server import FollowerState

        state = FollowerState("127.0.0.1", 1)
        state.last_ok = time_module.monotonic()
        real_time = time_module.time
        # A day-long forward wall-clock step, mid-measurement.
        monkeypatch.setattr(
            time_module, "time", lambda: real_time() + 86_400.0
        )
        age = state.seen_ago()
        assert age is not None and age < 5.0
        assert state.describe()["last_ok_age_seconds"] < 5.0

    def test_heartbeat_stamps_monotonic_age(self, tmp_path, monkeypatch):
        import time as time_module

        follower = FleetNode(ChunkStore(str(tmp_path / "f")))
        follower.start()
        primary = FleetNode(
            ChunkStore(str(tmp_path / "p")),
            replicas=[follower.address],
            heartbeat_interval=60.0,  # the test drives beats by hand
        )
        primary.start()
        try:
            real_time = time_module.time
            # Wall clock steps a day *backwards* before the beat lands;
            # the recorded age must still come out tiny.
            monkeypatch.setattr(
                time_module, "time", lambda: real_time() - 86_400.0
            )
            primary.heartbeat_once()
            state = primary.followers[0]
            assert state.alive
            age = state.seen_ago()
            assert age is not None and 0.0 <= age < 5.0
        finally:
            primary.stop()
            follower.stop()


class TestFlakyTransportRetry:
    """The seeded FlakySocket injector against the real store protocol:
    dropped request frames starve the response read, the client's retry
    loop reconnects, and every op still lands exactly once."""

    SHARDS = 1

    def _flaky_client(self, fleet, monkeypatch, seed, drop):
        from repro.faults.injectors import FlakySocket

        flakies = []
        real_connect = StoreClient._connect

        def connect_flaky(client_self):
            fs = FlakySocket(real_connect(client_self), seed=seed, drop=drop)
            flakies.append(fs)
            return fs

        monkeypatch.setattr(StoreClient, "_connect", connect_flaky)
        client = FleetClient(
            addrs(fleet), retries=8, backoff=0.01, io_timeout=0.3
        )
        return client, flakies

    def test_seeded_drops_are_healed_by_retry(self, fleet, monkeypatch):
        from repro.metrics import STORE

        client, flakies = self._flaky_client(
            fleet, monkeypatch, seed=7, drop=0.25
        )
        before = STORE.transport_retries
        try:
            payload = os.urandom(120_000)
            gen, _ = client.put_checkpoint("vm", payload, meta={"p": "csd"})
            assert gen == 1
            back, meta = client.get_checkpoint("vm")
            assert back == payload
            assert meta.meta["p"] == "csd"
        finally:
            client.close()
        drops = sum(
            1 for fs in flakies for e in fs.events if e == "drop"
        )
        assert drops >= 1, "seed produced no drops; pick another"
        # Every drop forced a reconnect the counters can see.
        assert client.retries_used >= drops
        assert STORE.transport_retries - before >= drops

    def test_flaky_run_is_deterministic_for_a_seed(self, fleet, monkeypatch):
        """Same seed, same op sequence -> the injector misbehaves
        identically, so flaky-transport test failures replay exactly."""
        def run():
            client, flakies = self._flaky_client(
                fleet, monkeypatch, seed=11, drop=0.3
            )
            try:
                for _ in range(5):
                    assert client.ping()
            finally:
                client.close()
            return [e for fs in flakies for e in fs.events]

        assert run() == run()


class TestFlakyScheduleIsPinned:
    """One seeded schedule over the real byte path — its big ``BATCH``
    goes out as a scatter send, its chunk stream comes back through
    ``recv_into`` — misbehaves exactly as it did when every frame was
    one ``sendall`` and one ``recv`` loop: the same events, frame for
    frame (EPOCH HAS_MANY BATCH PUT_MANIFEST EPOCH, GET_MANIFEST dropped
    and retried, GET_MANY)."""

    EVENTS = [["pass"] * 5 + ["drop"], ["pass", "pass"]]

    def test_seeded_events_are_unchanged(self, fleet, monkeypatch):
        client, flakies = TestFlakyTransportRetry._flaky_client(
            self, fleet, monkeypatch, seed=3, drop=0.2
        )
        payload = random.Random(5).randbytes(300_000)
        try:
            client.put_checkpoint("vm", payload)
            assert client.get_checkpoint("vm")[0] == payload
        finally:
            client.close()
        assert [fs.events for fs in flakies] == self.EVENTS


# ---------------------------------------------------------------------------
# The same contract over a 3-shard fleet
# ---------------------------------------------------------------------------


class TestDaemonRoundtripThreeShards(TestDaemonRoundtrip):
    SHARDS = 3


class TestClientRetryThreeShards(TestClientRetry):
    SHARDS = 3


class TestClientMidFrameDeathThreeShards(TestClientMidFrameDeath):
    SHARDS = 3


class TestHelloHardeningThreeShards(TestHelloHardening):
    SHARDS = 3


class TestPipelinedUploadThreeShards(TestPipelinedUpload):
    SHARDS = 3


class TestJitterBackoffThreeShards(TestJitterBackoff):
    SHARDS = 3


class TestFlakyTransportRetryThreeShards(TestFlakyTransportRetry):
    SHARDS = 3
