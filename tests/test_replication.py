"""Replication building blocks: wire codec, output gate, epoch lease,
commit tailer, flaky transport, and the acked channel end to end."""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import tracemalloc

import pytest

from repro import VMConfig, VirtualMachine, compile_source, get_platform
from repro.errors import (
    LeaseLostError,
    ReplicationError,
    ReplicationProtocolError,
    StoreProtocolError,
)
from repro.faults.injectors import CrashHooks, FlakySocket, SimulatedCrashError
from repro.metrics import REPLICATION
from repro.replication import (
    CommitTailer,
    EpochLease,
    GenRecord,
    OutputGate,
    ReplicationSender,
    StandbyServer,
)
from repro import net
from repro.replication import wire
from repro.replication.lease import LeaseClaim, LeaseState
from repro.store import ChunkStore, FleetClient, FleetNode
from repro.store import protocol as P


@pytest.fixture
def store(tmp_path):
    server = FleetNode(ChunkStore(str(tmp_path / "store")))
    host, port = server.start()
    client = FleetClient([(host, port)], backoff=0.01)
    yield client
    client.close()
    server.stop()


def _rec(seq=1, kind="full", data=b"payload", stdout=b"out"):
    return GenRecord(
        seq=seq,
        kind=kind,
        body_sha256="ab" * 32,
        parent_sha256="cd" * 32 if kind == "delta" else "",
        chain_depth=1 if kind == "delta" else 0,
        format_version=4,
        instructions=1234,
        stdout=stdout,
        data=data,
    )


class TestWireCodec:
    def test_frame_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            wire.send_frame(a, wire.OP_PING, b"x" * 100)
            assert wire.recv_frame(b) == (wire.OP_PING, b"x" * 100)
        finally:
            a.close()
            b.close()

    def test_bad_magic_rejected(self):
        a, b = socket.socketpair()
        try:
            frame = bytearray(wire.encode_frame(wire.OP_PING))
            frame[:4] = b"NOPE"
            a.sendall(frame)
            with pytest.raises(ReplicationProtocolError, match="magic"):
                wire.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_unknown_version_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(
                wire.HEADER.pack(wire.MAGIC, wire.VERSION + 1, wire.OP_PING, 0)
            )
            with pytest.raises(ReplicationProtocolError, match="version"):
                wire.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_eof_mid_frame_is_typed(self):
        a, b = socket.socketpair()
        try:
            a.sendall(wire.encode_frame(wire.OP_GEN, b"full-payload")[:6])
            a.close()
            with pytest.raises(ReplicationProtocolError, match="mid-frame"):
                wire.recv_frame(b, allow_eof=True)
        finally:
            b.close()

    def test_clean_eof_returns_none_when_allowed(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert wire.recv_frame(b, allow_eof=True) is None
        finally:
            b.close()

    def test_gen_roundtrip(self):
        rec = _rec(seq=7, kind="delta", data=b"\x00\x01" * 500)
        back = wire.decode_gen(wire.encode_gen(rec))
        assert back == rec

    def test_gen_corrupted_data_rejected(self):
        payload = bytearray(wire.encode_gen(_rec(data=b"A" * 64)))
        payload[-40] ^= 0xFF  # flip a bit inside the file bytes
        with pytest.raises(ReplicationProtocolError, match="digest"):
            wire.decode_gen(bytes(payload))

    def test_gen_lying_sizes_rejected(self):
        payload = wire.encode_gen(_rec())
        with pytest.raises(ReplicationProtocolError, match="sizes lie"):
            wire.decode_gen(payload + b"trailing")

    def test_ack_roundtrip(self):
        assert wire.decode_ack(wire.encode_ack(9, 8)) == (9, 8)


class TestOutputGate:
    def test_holds_until_release(self):
        gate = OutputGate()
        gate.feed(b"hello world")
        assert gate.take() == b""  # nothing released yet
        assert gate.held_bytes == 11
        gate.release_to(5)
        assert gate.take() == b"hello"
        assert gate.take() == b""  # no double delivery
        gate.release_all()
        assert gate.take() == b" world"
        assert gate.held_bytes == 0

    def test_feed_must_be_cumulative(self):
        gate = OutputGate()
        gate.feed(b"abcdef")
        with pytest.raises(ReplicationError, match="backwards"):
            gate.feed(b"abc")
        with pytest.raises(ReplicationError, match="backwards"):
            gate.feed(b"abcdXf")

    def test_release_beyond_produced_rejected(self):
        gate = OutputGate()
        gate.feed(b"ab")
        with pytest.raises(ReplicationError, match="produced"):
            gate.release_to(3)

    def test_resume_skips_the_delivered_overlap(self):
        # Old primary delivered 5 bytes; the restored generation covers 8.
        gate = OutputGate.resume(prefill=b"12345678", delivered=5)
        assert gate.take() == b"678"  # released minus already-delivered
        gate.feed(b"12345678XY")
        gate.release_all()
        assert gate.take() == b"XY"

    def test_resume_rejects_impossible_delivered_offset(self):
        with pytest.raises(ReplicationError, match="output rule"):
            OutputGate.resume(prefill=b"123", delivered=4)


class TestEpochLease:
    def test_epochs_are_sequential_and_audited(self, store):
        lease = EpochLease(store, "wl", "node-a")
        assert lease.read().epoch == 0
        assert lease.claim(expected=0) == 1
        assert lease.claim(expected=1) == 2
        state = lease.read()
        assert (state.epoch, state.holder) == (2, "node-a")
        assert [(c.epoch, c.holder, c.valid) for c in lease.history()] == [
            (1, "node-a", True), (2, "node-a", True),
        ]

    def test_losing_claim_raises_and_names_the_winner(self, store):
        a = EpochLease(store, "wl", "node-a")
        b = EpochLease(store, "wl", "node-b")
        assert a.claim(expected=0) == 1
        # b observed epoch 0 (stale) and races: the store already moved.
        with pytest.raises(LeaseLostError) as e:
            b.claim(expected=0)
        assert e.value.holder == "node-a"
        assert e.value.epoch == 1
        # The losing claim is recorded but invalid: it holds nothing
        # and must never fence the rightful leader.
        claims = a.history()
        assert [c.valid for c in claims] == [True, False]
        assert a.check(1).holder == "node-a"

    def test_fencing_probe(self, store):
        a = EpochLease(store, "wl", "node-a")
        b = EpochLease(store, "wl", "node-b")
        my = a.claim(expected=0)
        assert a.check(my).epoch == my  # still the newest: fine
        b.claim(expected=my)  # the takeover
        with pytest.raises(LeaseLostError, match="fenced"):
            a.check(my)
        # The winner's own probe passes.
        assert b.check(my + 1).holder == "node-b"

    def test_identical_claims_never_collapse(self, store):
        """The store dedups identical payloads; lease claims must not be
        deduped or two promotions could share one epoch."""
        lease = EpochLease(store, "wl", "node-a")
        assert lease.claim(expected=0) == 1
        assert lease.claim(expected=1) == 2
        assert lease.claim(expected=2) == 3

    def test_history_matches_the_whole_store_fold(self, store):
        """The scoped read changes what a lease read costs, not what it
        answers: over a recorded history — valid, stale-expectation and
        interleaved claims from two nodes, other vms' uploads between
        them — it is the fold the unscoped listing gave."""
        a = EpochLease(store, "wl", "node-a")
        b = EpochLease(store, "wl", "node-b")
        assert a.claim(expected=0) == 1
        store.put_checkpoint("wl", b"a checkpoint", meta={"kind": "full"})
        with pytest.raises(LeaseLostError):
            b.claim(expected=0)  # stale: epoch 2, invalid
        assert b.claim(expected=1) == 3  # the takeover
        store.put_checkpoint("other.lease", b"x", meta={"expected_epoch": 0})
        with pytest.raises(LeaseLostError) as lost:
            a.claim(expected=1)  # a slept through it: epoch 4, invalid
        assert (lost.value.epoch, lost.value.holder) == (3, "node-b")
        assert a.claim(expected=3) == 5
        expected = [
            LeaseClaim(epoch=1, holder="node-a", expected=0, valid=True),
            LeaseClaim(epoch=2, holder="node-b", expected=0, valid=False),
            LeaseClaim(epoch=3, holder="node-b", expected=1, valid=True),
            LeaseClaim(epoch=4, holder="node-a", expected=1, valid=False),
            LeaseClaim(epoch=5, holder="node-a", expected=3, valid=True),
        ]
        assert a.history() == b.history() == expected
        assert _whole_store_fold(store, "wl.lease") == expected
        assert a.read() == LeaseState(epoch=5, holder="node-a")

    @pytest.mark.parametrize(
        "damage",
        [
            {"meta": None},
            {"meta": {"holder": "node-b", "expected_epoch": "x"}},
        ],
        ids=["meta-null", "expected-not-a-number"],
    )
    def test_damaged_claim_record_is_a_typed_error(self, damage):
        """A record the fold cannot read is neither a valid nor an
        invalid claim — either guess could change who holds the lease —
        so every read of the lease refuses, typed, naming the record."""
        good = {"generation": 1,
                "meta": {"holder": "node-a", "expected_epoch": 0}}
        client = _ListingOnly({"wl.lease": [good, {"generation": 2, **damage}]})
        lease = EpochLease(client, "wl", "node-a")
        for read in (lease.history, lease.read, lambda: lease.check(1)):
            with pytest.raises(ReplicationError) as e:
                read()
            assert type(e.value) is ReplicationError
            assert "'wl.lease' generation 2" in str(e.value)
        assert client.asked == ["wl.lease"] * 3


@pytest.fixture
def fleet(tmp_path):
    """Four in-process daemons: shard sets of any size up to four."""
    nodes = [FleetNode(ChunkStore(str(tmp_path / f"s{i}"))) for i in range(4)]
    for node in nodes:
        node.start()
    yield nodes
    for node in nodes:
        node.stop()


class TestShardJoin:
    def test_claim_on_a_new_owner_is_refused_not_held(self, fleet):
        """A shard joins and the lease's owner moves: the new owner holds
        none of the lease's records, so it cannot judge a claim.  The
        claim is refused, typed, and nothing is committed — it is never
        reported as holding an epoch the old owner already numbered."""
        addrs = [node.address for node in fleet]
        three = FleetClient(addrs[:3], backoff=0.01)
        four = FleetClient(addrs, backoff=0.01)
        try:
            vm_id = next(
                f"wl{i}" for i in range(1000)
                if three.manifest_node(f"wl{i}.lease")
                != four.manifest_node(f"wl{i}.lease")
            )
            old = EpochLease(three, vm_id, "node-a")
            assert old.claim(expected=0) == 1
            assert old.claim(expected=1) == 2
            joined = EpochLease(four, vm_id, "node-b")
            observed = joined.read()
            assert (observed.epoch, observed.holder) == (2, "node-a")
            with pytest.raises(ReplicationError) as refused:
                joined.claim(expected=observed.epoch)
            assert not isinstance(refused.value, LeaseLostError)
            assert f"'{vm_id}.lease'" in str(refused.value)
            assert joined.read() == observed
            assert [(c.epoch, c.valid) for c in joined.history()] == [
                (1, True), (2, True),
            ]
        finally:
            three.close()
            four.close()


class TestAtomicClaim:
    """A claim is one ``CLAIM`` the lease's owner shard decides under its
    commit lock: fold, commit as latest + 1, answer."""

    def test_contending_claims_have_exactly_one_winner(self, store):
        lease_id = "race.lease"
        assert EpochLease(store, "race", "seed").claim(expected=0) == 1
        n = 6
        barrier = threading.Barrier(n)
        won, lost, other = [], [], []

        def contend(i):
            with FleetClient(list(store.nodes), backoff=0.01) as client:
                lease = EpochLease(client, "race", f"node-{i}")
                client.ping()  # connected before the race starts
                barrier.wait()
                try:
                    won.append((lease.claim(expected=1), i))
                except LeaseLostError as e:
                    lost.append((e.epoch, e.holder))
                except Exception as e:  # pragma: no cover - reported below
                    other.append(e)

        threads = [threading.Thread(target=contend, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert other == []
        ((epoch, winner),) = won
        assert epoch == 2
        assert lost == [(2, f"node-{winner}")] * (n - 1)
        history = EpochLease(store, "race", "audit").history()
        assert [c.epoch for c in history] == list(range(1, n + 2))
        assert [c.epoch for c in history if c.valid] == [1, 2]
        assert all(c.expected == 1 for c in history[1:])
        assert store.ls(lease_id)["vms"][lease_id][-1]["chunks"] == 0

    def test_uploaded_and_chunkless_records_fold_alike(self, store):
        """Records uploaded as a nonce payload (how claims were written
        before ``CLAIM``) and chunkless ones fold as one history, on the
        client and on the deciding shard, and the store audits clean."""
        a = EpochLease(store, "mixed", "node-a")
        b = EpochLease(store, "mixed", "node-b")

        def upload(holder, expected, nonce):
            payload = json.dumps(
                {"holder": holder, "expected": expected, "nonce": nonce},
                sort_keys=True,
            ).encode()
            return store.put_checkpoint(
                "mixed.lease", payload,
                meta={"holder": holder, "expected_epoch": expected},
            )[0]

        assert upload("node-a", 0, 1) == 1
        assert b.claim(expected=1) == 2
        assert upload("node-a", 1, 2) == 3  # stale: a loser
        assert a.claim(expected=2) == 4
        with pytest.raises(LeaseLostError) as lost:
            b.claim(expected=2)  # epoch 5, decided over the mixed history
        assert (lost.value.epoch, lost.value.holder) == (4, "node-a")
        expected = [
            LeaseClaim(epoch=1, holder="node-a", expected=0, valid=True),
            LeaseClaim(epoch=2, holder="node-b", expected=1, valid=True),
            LeaseClaim(epoch=3, holder="node-a", expected=1, valid=False),
            LeaseClaim(epoch=4, holder="node-a", expected=2, valid=True),
            LeaseClaim(epoch=5, holder="node-b", expected=2, valid=False),
        ]
        assert a.history() == expected
        assert _whole_store_fold(store, "mixed.lease") == expected
        listing = store.ls("mixed.lease")["vms"]["mixed.lease"]
        assert [g["chunks"] for g in listing] == [1, 0, 1, 0, 0]
        report = store.audit(deep=True)
        assert report["ok"], report["problems"]

    def test_damaged_record_refuses_the_claim(self, tmp_path):
        """The deciding shard folds before it commits: a record it
        cannot read refuses the claim, typed, naming the record, and
        nothing is recorded."""
        server = FleetNode(ChunkStore(str(tmp_path / "store")))
        server.start()
        try:
            with FleetClient([server.address], backoff=0.01) as client:
                lease = EpochLease(client, "wl", "node-a")
                assert lease.claim(expected=0) == 1
                server.store.commit_manifest(
                    "wl.lease", [], 0, hashlib.sha256(b"").hexdigest(),
                    meta={"holder": "node-b", "expected_epoch": "x"},
                    generation=2,
                )
                with pytest.raises(ReplicationError) as e:
                    lease.claim(expected=1)
                assert type(e.value) is ReplicationError
                assert "'wl.lease' generation 2" in str(e.value)
            assert server.store.generations("wl.lease") == [1, 2]
        finally:
            server.stop()

    def test_a_lost_claim_answer_is_not_a_second_claim(
        self, tmp_path, monkeypatch
    ):
        """The daemon commits a claim and its answer is lost: the client's
        retry resends the same ``CLAIM``, and the daemon answers it from
        the history instead of recording a second, losing claim."""
        from repro.store.client import StoreClient

        lost = []

        class LoseClaimAnswer(FlakySocket):
            def sendall(self, data):
                super().sendall(data)
                if not lost and net.HEADER.unpack_from(data)[2] == P.OP_CLAIM:
                    lost.append(True)
                    self.partition()  # the answer never arrives

        real_connect = StoreClient._connect
        monkeypatch.setattr(
            StoreClient, "_connect",
            lambda client: LoseClaimAnswer(real_connect(client)),
        )
        server = FleetNode(ChunkStore(str(tmp_path / "store")))
        server.start()
        try:
            with FleetClient(
                [server.address], backoff=0.01, io_timeout=0.3
            ) as client:
                lease = EpochLease(client, "wl", "node-a")
                assert lease.claim(expected=0) == 1
                assert lost and client.retries_used >= 1
                assert lease.claim(expected=1) == 2
            assert server.store.generations("wl.lease") == [1, 2]
            with FleetClient([server.address], backoff=0.01) as client:
                assert [
                    (c.epoch, c.valid)
                    for c in EpochLease(client, "wl", "x").history()
                ] == [(1, True), (2, True)]
        finally:
            server.stop()

    def test_a_daemon_without_claim_is_a_typed_error(self, tmp_path):
        """A daemon that predates ``CLAIM`` answers ``unknown opcode``;
        the lease does not fall back to uploading a claim."""
        server = FleetNode(ChunkStore(str(tmp_path / "store")))
        del server._ops[P.OP_CLAIM]
        server.start()
        try:
            with FleetClient([server.address], backoff=0.01) as client:
                lease = EpochLease(client, "wl", "node-a")
                with pytest.raises(StoreProtocolError, match="unknown opcode"):
                    lease.claim(expected=0)
            assert server.store.vm_ids() == []
        finally:
            server.stop()

    def test_claims_replicate_and_audit_clean(self, tmp_path):
        follower = FleetNode(ChunkStore(str(tmp_path / "follower")))
        follower.start()
        primary = FleetNode(
            ChunkStore(str(tmp_path / "primary")), replicas=[follower.address]
        )
        primary.start()
        try:
            with FleetClient([primary.address], backoff=0.01) as client:
                lease = EpochLease(client, "wl", "node-a")
                assert lease.claim(expected=0) == 1
                assert lease.claim(expected=1) == 2
                client.put_checkpoint("wl", b"a checkpoint")
            for node in (primary, follower):
                assert node.store.generations("wl.lease") == [1, 2]
                report = node.store.audit(deep=True)
                assert report["ok"], report["problems"]
            with FleetClient([follower.address], backoff=0.01) as client:
                assert EpochLease(client, "wl", "x").read() == LeaseState(
                    epoch=2, holder="node-a"
                )
        finally:
            primary.stop()
            follower.stop()

    def test_first_claim_on_a_fleet_checks_the_other_shards(self, fleet):
        """A first claim (expecting 0) is judged against no records; on
        a fleet it is refused while a shard other than the owner holds
        any of the lease's records, and then takes epoch 1 on the owner
        once none does."""
        addrs = [node.address for node in fleet[:2]]
        with FleetClient(addrs, backoff=0.01) as client:
            owner = client.manifest_node("wl.lease")
            stray = next(n for n in fleet[:2]
                         if f"{n.address[0]}:{n.address[1]}" != owner)
            stray.store.claim("wl.lease", "old", 0)
            lease = EpochLease(client, "wl", "node-a")
            with pytest.raises(ReplicationError, match="rebalance"):
                lease.claim(expected=0)
            client.rebalance()
            with pytest.raises(LeaseLostError):
                lease.claim(expected=0)  # the moved record holds epoch 1
            assert lease.claim(expected=1) == 3
            report = client.audit(deep=True)
            assert report["ok"], report["problems"]


class _ListingOnly:
    """A store client that can only list — all a lease read needs."""

    def __init__(self, vms: dict) -> None:
        self.vms = vms
        self.asked: list = []

    def ls(self, vm_id=None) -> dict:
        self.asked.append(vm_id)
        return {"vms": {k: v for k, v in self.vms.items() if vm_id in (None, k)}}


def _whole_store_fold(client, lease_id: str) -> list[LeaseClaim]:
    """``EpochLease.history`` as it read before listings could be scoped."""
    claims, valid_head = [], 0
    listing = client.ls()["vms"].get(lease_id, [])
    for entry in sorted(listing, key=lambda g: g["generation"]):
        meta = entry.get("meta", {})
        expected = int(meta.get("expected_epoch", -1))
        valid = expected == valid_head
        if valid:
            valid_head = entry["generation"]
        claims.append(
            LeaseClaim(
                epoch=entry["generation"],
                holder=str(meta.get("holder", "")),
                expected=expected,
                valid=valid,
            )
        )
    return claims


WORKLOAD = """
let n = ref 0;;
while !n < 9000 do
  n := !n + 1;
  (if !n mod 3000 = 0 then (print_string "tick "; print_int !n))
done;;
print_string " end"
"""


@pytest.fixture(scope="module")
def code():
    return compile_source(WORKLOAD)


def _primary(code, path):
    cfg = VMConfig(
        chkpt_state="enable",
        chkpt_filename=path,
        chkpt_mode="blocking",
        chkpt_incremental=True,
        chkpt_retain=8,
    )
    return VirtualMachine(get_platform("rodrigo"), code, cfg)


class TestCommitTailer:
    def test_capture_packages_the_committed_file(self, code, tmp_path):
        path = str(tmp_path / "p.hckp")
        vm = _primary(code, path)
        tailer = CommitTailer(vm, path)
        vm.run(max_instructions=5_000)
        rec1 = tailer.capture()
        assert rec1.seq == 1
        assert rec1.kind == "full"
        with open(path, "rb") as f:
            assert rec1.data == f.read()
        vm.run(max_instructions=5_000)
        rec2 = tailer.capture()
        assert rec2.seq == 2
        assert rec2.kind == "delta"
        assert rec2.parent_sha256 == rec1.body_sha256
        assert rec2.stdout.startswith(rec1.stdout)
        assert len(rec2.data) < len(rec1.data)  # deltas ship dirty runs

    def test_capture_commits_whatever_the_mode(self, code, tmp_path):
        """A VM configured for background writes still captures: the
        capture blocks until its commit, so the second record is a delta
        bound to the first and each holds what was committed."""
        path = str(tmp_path / "p.hckp")
        vm = _primary(code, path)
        vm.config.chkpt_mode = "background"
        tailer = CommitTailer(vm, path)
        vm.run(max_instructions=5_000)
        rec1 = tailer.capture()
        vm.run(max_instructions=5_000)
        rec2 = tailer.capture()
        assert vm._background_writer is None
        assert (rec1.kind, rec2.kind) == ("full", "delta")
        assert rec2.parent_sha256 == rec1.body_sha256
        assert vm.delta_parent_sha.hex() == rec2.body_sha256
        with open(path, "rb") as f:
            assert rec2.data == f.read()
        with open(path + ".1", "rb") as f:
            assert rec1.data == f.read()

    def test_crash_mid_commit_ships_nothing(self, code, tmp_path):
        path = str(tmp_path / "p.hckp")
        vm = _primary(code, path)
        tailer = CommitTailer(vm, path)
        vm.run(max_instructions=5_000)
        with pytest.raises(SimulatedCrashError):
            tailer.capture(inner_hooks=CrashHooks("journal_written"))
        assert tailer.seq == 0  # the torn generation never became a record
        assert vm.config.commit_hooks is None  # hooks restored


class TestFlakySocket:
    def _pair(self, **kwargs):
        a, b = socket.socketpair()
        return FlakySocket(a, **kwargs), a, b

    def test_seeded_determinism(self):
        def run(seed):
            fs, a, b = self._pair(seed=seed, drop=0.3, duplicate=0.2)
            for i in range(20):
                fs.sendall(bytes([i]))
            a.close()
            b.close()
            return list(fs.events)

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_drop_loses_the_frame(self):
        fs, a, b = self._pair(seed=0, drop=1.0)
        try:
            fs.sendall(b"gone")
            b.settimeout(0.05)
            with pytest.raises(TimeoutError):
                b.recv(16)
            assert fs.events == ["drop"]
        finally:
            a.close()
            b.close()

    def test_duplicate_sends_twice(self):
        fs, a, b = self._pair(seed=0, duplicate=1.0)
        try:
            fs.sendall(b"xy")
            assert b.recv(16) == b"xyxy"
        finally:
            a.close()
            b.close()

    def test_reorder_swaps_adjacent_frames(self):
        fs, a, b = self._pair(seed=0, reorder=0.5)
        try:
            sent = []
            while "hold" not in fs.events:
                fs.sendall(b"A")
                sent.append(b"A")
            # One frame is now held back; a guaranteed pass-through send
            # must overtake it and flush it afterwards.
            fs.reorder = 0.0
            fs.sendall(b"B")
            data = b""
            b.settimeout(0.5)
            while len(data) < len(sent) + 1:
                data += b.recv(64)
            assert data.endswith(b"BA")  # B overtook the held A
        finally:
            a.close()
            b.close()

    def test_partition_blackholes_and_starves(self):
        fs, a, b = self._pair(seed=0)
        try:
            fs.partition(True)
            fs.sendall(b"lost")
            fs.settimeout(0.05)
            with pytest.raises((socket.timeout, TimeoutError)):
                fs.recv(16)
            assert fs.events == ["blackhole"]
            fs.partition(False)
            fs.sendall(b"back")
            assert b.recv(16) == b"back"
        finally:
            a.close()
            b.close()

    def test_scatter_send_is_one_frame(self):
        """Drop, duplicate and hold act on a ``sendmsg`` frame whole."""
        fs, a, b = self._pair(seed=0, drop=1.0)
        try:
            assert fs.sendmsg([b"he", b"ad", b"er"]) == 6
            b.settimeout(0.05)
            with pytest.raises(TimeoutError):
                b.recv(16)
            fs.drop, fs.duplicate = 0.0, 1.0
            fs.sendmsg([b"x", b"y"])
            assert b.recv(16) == b"xyxy"
            fs.duplicate, fs.reorder = 0.0, 1.0
            fs.sendmsg([b"A", b"A"])
            fs.reorder = 0.0
            fs.sendmsg([b"B", b"B"])
            data = b""
            while len(data) < 4:
                data += b.recv(16)
            assert data == b"BBAA"  # the held frame, whole, after B
            assert fs.events == [
                "drop", "duplicate", "hold", "pass", "release-held",
            ]
        finally:
            a.close()
            b.close()

    def test_scatter_and_plain_sends_roll_the_same_schedule(self):
        def run(scatter):
            fs, a, b = self._pair(seed=5, drop=0.3, duplicate=0.2,
                                  reorder=0.2)
            for i in range(20):
                if scatter:
                    fs.sendmsg([bytes([i]), b"-"])
                else:
                    fs.sendall(bytes([i]) + b"-")
            a.close()
            b.close()
            return list(fs.events)

        assert run(scatter=True) == run(scatter=False)

    def test_recv_into_starves_while_partitioned(self):
        fs, a, b = self._pair(seed=0)
        try:
            b.sendall(b"late")
            fs.partition(True)
            fs.settimeout(0.05)
            buf = bytearray(8)
            with pytest.raises((socket.timeout, TimeoutError)):
                fs.recv_into(buf)
            fs.partition(False)
            assert fs.recv_into(memoryview(buf)[2:]) == 4
            assert bytes(buf[2:6]) == b"late"
        finally:
            a.close()
            b.close()

    def test_probabilities_validated(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(ValueError, match="drop"):
                FlakySocket(a, drop=1.5)
        finally:
            a.close()
            b.close()


class TestChannelEndToEnd:
    """Sender and standby over a real (sometimes flaky) TCP link."""

    def _standby(self, code, tmp_path, **kwargs):
        sb = StandbyServer(
            code,
            "ultra64",
            node_id="sb",
            chain_path=str(tmp_path / "standby.hckp"),
            heartbeat_timeout=0.2,
            **kwargs,
        )
        host, port = sb.start()
        return sb, host, port

    def test_ship_applies_and_acks(self, code, tmp_path):
        sb, host, port = self._standby(code, tmp_path)
        path = str(tmp_path / "p.hckp")
        vm = _primary(code, path)
        tailer = CommitTailer(vm, path)
        sender = ReplicationSender.connect(host, port, node_id="pr")
        try:
            info = sender.hello(code.digest().hex(), 1, "rodrigo")
            assert info["applied"] == 0
            for _ in range(3):
                vm.run(max_instructions=3_000)
                rec = tailer.capture()
                assert sender.ship(rec) == rec.seq
            assert sb.applied_seq == 3
            assert sb.resident_vm is not None
            # The resident VM lives on the standby's own platform.
            assert sb.resident_vm.platform.name == "ultra64"
            assert sb.prefill == tailer.vm.channels.stdout_bytes()
        finally:
            sender.close()
            sb.stop()

    def test_a_frame_is_released_before_the_next_is_received(
            self, tmp_path, monkeypatch):
        """The frame loop holds one GEN frame at a time: when the
        standby starts receiving the next frame, no buffer the receipt
        of an earlier one allocated is still alive (a full's would be
        held beside the next frame for nothing)."""
        code = compile_source("""
            let keep = ref [];;
            for i = 1 to 24 do keep := Array.make 4096 i :: !keep done;;
            let n = ref 0;;
            while !n < 400000 do
              n := !n + 1;
              (match !keep with h :: _ -> h.(!n mod 4096) <- !n | [] -> ())
            done;;
            print_int !n
        """)
        held = []
        recv = wire.recv_frame
        in_net = [tracemalloc.Filter(True, net.__file__)]

        def traced_recv(sock, allow_eof=False):
            if threading.current_thread().name.startswith("standby-"):
                snap = tracemalloc.take_snapshot().filter_traces(in_net)
                held.append(sum(t.size for t in snap.traces))
            return recv(sock, allow_eof=allow_eof)

        monkeypatch.setattr(wire, "recv_frame", traced_recv)
        path = str(tmp_path / "p.hckp")
        vm = _primary(code, path)
        tailer = CommitTailer(vm, path)
        kinds, sizes = [], []
        tracemalloc.start()
        try:
            sb, host, port = self._standby(code, tmp_path)
            sender = ReplicationSender.connect(host, port, node_id="pr")
            try:
                sender.hello(code.digest().hex(), 1, "rodrigo")
                for full in (True, False, True, False):
                    if full:
                        vm.mem.dirty.mark_all()
                    vm.run(max_instructions=100_000)
                    rec = tailer.capture()
                    kinds.append(rec.kind)
                    sizes.append(len(rec.data))
                    assert sender.ship(rec) == rec.seq
                sender.ping()  # one more receive, after the last GEN
            finally:
                sender.close()
                sb.stop()
        finally:
            tracemalloc.stop()
        assert kinds == ["full", "delta", "full", "delta"]
        assert min(sizes) > 0 and max(sizes) > 256 * 1024
        assert len(held) >= len(kinds) + 1
        assert max(held) < 64 * 1024, held

    def test_hello_rejects_wrong_program(self, code, tmp_path):
        sb, host, port = self._standby(code, tmp_path)
        other = compile_source("print_string \"imposter\"")
        sender = ReplicationSender.connect(host, port, node_id="pr")
        try:
            with pytest.raises(ReplicationError, match="digest"):
                sender.hello(other.digest().hex(), 1, "rodrigo")
        finally:
            sender.close()
            sb.stop()

    def test_duplicated_frames_are_dropped_once_applied(self, code, tmp_path):
        """A flaky channel that duplicates every frame: the standby
        dedups by sequence number and re-acks, the run converges."""
        before = REPLICATION.as_dict()
        sb, host, port = self._standby(code, tmp_path)
        path = str(tmp_path / "p.hckp")
        vm = _primary(code, path)
        tailer = CommitTailer(vm, path)
        sender = ReplicationSender.connect(
            host, port, node_id="pr",
            wrap=lambda s: FlakySocket(s, seed=3, duplicate=1.0),
        )
        try:
            sender.hello(code.digest().hex(), 1, "rodrigo")
            for _ in range(3):
                vm.run(max_instructions=3_000)
                sender.ship(tailer.capture())
            # Barrier: the PING rides behind the last GEN's duplicate,
            # so its PONG means the standby has drained (and counted)
            # every duplicate already on the wire.
            assert sender.ping()
            assert sb.applied_seq == 3
            delta = REPLICATION.delta_since(before)
            assert delta.get("duplicates_dropped", 0) >= 3
        finally:
            sender.close()
            sb.stop()

    def test_dropped_frames_heal_by_retransmit(self, code, tmp_path):
        before = REPLICATION.as_dict()
        sb, host, port = self._standby(code, tmp_path)
        path = str(tmp_path / "p.hckp")
        vm = _primary(code, path)
        tailer = CommitTailer(vm, path)
        # Seeded drops on the primary->standby direction; the sender's
        # ack timeout + retransmit budget must absorb them.
        sender = ReplicationSender.connect(
            host, port, node_id="pr",
            wrap=lambda s: FlakySocket(s, seed=2, drop=0.3),
            ack_timeout=0.3, max_retransmits=6,
        )
        try:
            sender.hello(code.digest().hex(), 1, "rodrigo")
            for _ in range(4):
                vm.run(max_instructions=2_000)
                sender.ship(tailer.capture())
            assert sb.applied_seq == 4
            delta = REPLICATION.delta_since(before)
            assert delta.get("retransmits", 0) >= 1
        finally:
            sender.close()
            sb.stop()

    def test_eof_triggers_suspicion(self, code, tmp_path):
        sb, host, port = self._standby(code, tmp_path)
        path = str(tmp_path / "p.hckp")
        vm = _primary(code, path)
        tailer = CommitTailer(vm, path)
        sender = ReplicationSender.connect(host, port, node_id="pr")
        try:
            sender.hello(code.digest().hex(), 1, "rodrigo")
            vm.run(max_instructions=3_000)
            sender.ship(tailer.capture())
            sender.close()  # the primary's host dies
            assert sb.await_suspect(timeout=5.0)
            assert sb.suspicion_reason == "eof"
        finally:
            sb.stop()

    def test_quiet_channel_triggers_timeout_suspicion(self, code, tmp_path):
        sb, host, port = self._standby(
            code, tmp_path, heartbeat_misses=2,
        )
        sb.heartbeat_timeout = 0.2
        path = str(tmp_path / "p.hckp")
        vm = _primary(code, path)
        tailer = CommitTailer(vm, path)
        flaky_holder = []

        def wrap(s):
            fs = FlakySocket(s, seed=0)
            flaky_holder.append(fs)
            return fs

        sender = ReplicationSender.connect(
            host, port, node_id="pr", wrap=wrap,
            ack_timeout=0.1, max_retransmits=1,
        )
        try:
            sender.hello(code.digest().hex(), 1, "rodrigo")
            vm.run(max_instructions=3_000)
            sender.ship(tailer.capture())
            flaky_holder[0].partition(True)  # the cable is yanked
            assert sb.await_suspect(timeout=5.0)
            assert sb.suspicion_reason == "timeout"
        finally:
            sender.close()
            sb.stop()

    def test_promote_without_replication_refuses(self, code, tmp_path, store):
        sb = StandbyServer(
            code, "ultra64", node_id="sb",
            chain_path=str(tmp_path / "s.hckp"),
            lease=EpochLease(store, "wl", "sb"),
        )
        with pytest.raises(ReplicationError, match="cold-start"):
            sb.promote()
