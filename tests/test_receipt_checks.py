"""Every integrity check of a received generation fires, typed, at its
point: on a chain a cold restore fetches from the store, and on a ``GEN``
frame a warm standby receives.

The store compares a download against its manifest's payload digest
(``StoreIntegrityError``); the reader then checks every section CRC,
the body SHA-256 its trailer records and the end-of-file CRC, in that
order (``CheckpointIntegrityError``); the standby refuses a frame whose
file digest or contents fail before anything reaches its local chain.
"""

from __future__ import annotations

import dataclasses
import os
import socket

import pytest

from repro import VMConfig, VirtualMachine, compile_source, get_platform
from repro.checkpoint.format import read_section_table
from repro.checkpoint.reader import restart_vm
from repro.errors import (
    CheckpointIntegrityError,
    ReplicationError,
    ReplicationProtocolError,
    StoreIntegrityError,
)
from repro.metrics import INTEGRITY
from repro.replication import CommitTailer, StandbyServer
from repro.replication import wire
from repro.store import ChunkStore, FleetClient, FleetNode
from repro.store.client import StoreClient
from repro.store.ha import (
    fetch_chain,
    manifest_meta,
    protected_config,
    restore_from_store,
)
from tests.oracle import fingerprint

WORKLOAD = """
let rows = Array.make 48 [||];;
let i = ref 0;;
while !i < 48 do
  rows.(!i) <- Array.make 200 !i;
  i := !i + 1
done;;
let total = ref 0;;
let j = ref 0;;
while !j < 30000 do
  let r = rows.(!j mod 48) in
  r.(!j mod 200) <- r.(!j mod 200) + 1;
  total := !total + r.(!j mod 200);
  j := !j + 1
done;;
print_int !total
"""

EVERY = 4_000
CHUNK = 4096
PLATFORM = get_platform("rodrigo")


@pytest.fixture(scope="module")
def code():
    return compile_source(WORKLOAD)


@pytest.fixture(scope="module")
def expected(code):
    vm = VirtualMachine(PLATFORM, code, VMConfig(chkpt_state="disable"))
    return vm.run().stdout


@pytest.fixture(scope="module")
def records(code, tmp_path_factory):
    """A full and two deltas of one protected run, as captured."""
    path = str(tmp_path_factory.mktemp("origin") / "origin.hckp")
    config = protected_config(VMConfig(chkpt_full_every=0))
    vm = VirtualMachine(PLATFORM, code, config)
    tailer = CommitTailer(vm, path)
    out = []
    for _ in range(3):
        vm.run(max_instructions=EVERY)
        out.append(tailer.capture())
    assert [r.kind for r in out] == ["full", "delta", "delta"]
    return out


def _fleet(tmp_path, shards: int):
    nodes = [
        FleetNode(ChunkStore(str(tmp_path / f"shard-{i}")), node_id=f"s{i}")
        for i in range(shards)
    ]
    for node in nodes:
        node.start()
    client = FleetClient([n.address for n in nodes], backoff=0.01,
                         chunk_size=CHUNK)
    return nodes, client


@pytest.fixture
def fleet(tmp_path):
    nodes, client = _fleet(tmp_path, 1)
    yield nodes, client
    client.close()
    for node in nodes:
        node.stop()


def _upload(client, rec, data=None, vm_id="chain"):
    generation, _stats = client.put_checkpoint(
        vm_id, rec.data if data is None else data,
        meta=manifest_meta(rec, PLATFORM),
    )
    return generation


# -- the damage, as the bytes of a v3/v4 file --------------------------------


def _trailer_sha_at(data) -> int:
    """Offset of the 32 body-SHA bytes the integrity trailer records."""
    return len(data) - 12 - 4 - 32


def damage(data, how: str) -> bytearray:
    """A copy of ``data`` with one byte flipped where ``how`` says."""
    out = bytearray(data)
    if how == "end-crc":
        at = len(out) - 1
    elif how == "trailer-sha":
        at = _trailer_sha_at(out)
    else:  # a section name
        (row,) = [r for r in read_section_table(data) if r.name == how]
        at = row.offset + row.length // 2
    out[at] ^= 0xFF
    return out


#: What the reader says about each damage, checked in this order.
MESSAGES = {
    "heap": "section 'heap' CRC mismatch",
    "threads": "section 'threads' CRC mismatch",
    "trailer-sha": "whole-file SHA-256 mismatch",
    "end-crc": "end-of-file CRC mismatch",
}


class TestStoreFetchedChain:
    @staticmethod
    def _alter_head_digest(store) -> None:
        head = store.read_manifest("chain")
        store.write_manifest(
            dataclasses.replace(head, payload_sha256="00" * 32)
        )

    def test_altered_manifest_digest_is_a_store_integrity_error(
        self, records, fleet
    ):
        """A stored payload that does not hash to its manifest's
        ``payload_sha256`` is refused by the download."""
        nodes, client = fleet
        for rec in records:
            _upload(client, rec)
        self._alter_head_digest(nodes[0].store)
        with pytest.raises(StoreIntegrityError, match="fails verification"):
            fetch_chain(client, "chain")

    def test_altered_manifest_digest_falls_back(
        self, records, fleet, tmp_path, code, expected
    ):
        """A stored generation its manifest refuses degrades the
        recovery like any damaged generation: the walk lands on the
        one before it."""
        nodes, client = fleet
        for rec in records:
            _upload(client, rec)
        self._alter_head_digest(nodes[0].store)
        before = INTEGRITY.fallback_restores
        vm, skipped, depth = restore_from_store(
            client, "chain", code, "ultra64", str(tmp_path / "r.hckp")
        )
        assert (skipped, depth) == (1, 1)
        assert INTEGRITY.fallback_restores == before + 1
        assert vm.run().stdout == expected

    @pytest.mark.parametrize("link", [0, 2], ids=["head", "base"])
    @pytest.mark.parametrize("how", list(MESSAGES))
    def test_damage_uploaded_with_a_matching_manifest(
        self, how, link, records, fleet, code
    ):
        """The store's digest check passes — the manifest names the
        damaged bytes — so the reader's checks fire, typed and worded
        as they always were, naming the link."""
        _nodes, client = fleet
        for i, rec in enumerate(records):
            g = _upload(client, rec, damage(rec.data, how)
                        if len(records) - 1 - i == link else None)
        _head, links = fetch_chain(client, "chain")
        assert len(links) == 3
        with pytest.raises(CheckpointIntegrityError) as info:
            restart_vm(get_platform("ultra64"), code, links)
        err = info.value
        assert MESSAGES[how] in str(err)
        assert f"vm 'chain' generation {g - link}:" in str(err)
        if how in ("heap", "threads"):
            assert err.section == how
        else:
            assert err.section == ("file" if how == "trailer-sha"
                                   else "trailer")

    def test_chunks_from_two_shards_out_of_payload_order(
        self, records, tmp_path, code, monkeypatch
    ):
        """Two shards stream a chain's chunks, neither in the order of
        the payloads they belong to; the links and the restored VM are
        those of a one-shard fetch."""
        arrived: list[str] = []
        real = StoreClient.get_many

        def logged(client, keys, sink):
            def seen(key, data):
                arrived.append(key)
                sink(key, data)
            return real(client, keys, seen)

        monkeypatch.setattr(StoreClient, "get_many", logged)
        restored = {}
        for shards in (1, 2):
            nodes, client = _fleet(tmp_path / f"fleet{shards}", shards)
            try:
                for rec in records:
                    _upload(client, rec)
                _head, links = fetch_chain(client, "chain")
                assert [bytes(link.data) for link in links] == [
                    bytes(rec.data) for rec in reversed(records)
                ]
                if shards == 2:
                    held = [sum(1 for _ in n.store.iter_objects())
                            for n in nodes]
                    assert all(held), held
                    order = [k for m in client.get_manifests(
                        "chain", [3, 2, 1]) for k in m.chunks]
                    firsts = list(dict.fromkeys(order))
                    assert list(dict.fromkeys(arrived)) != firsts
                vm, _stats = restart_vm(get_platform("ultra64"), code, links)
                restored[shards] = fingerprint(vm, header_maps=True)
                del arrived[:]
            finally:
                client.close()
                for node in nodes:
                    node.stop()
        assert restored[1] == restored[2]


class TestReceivedGenFrame:
    @pytest.fixture
    def standby(self, code, tmp_path):
        sb = StandbyServer(code, "ultra64", node_id="sb",
                           chain_path=str(tmp_path / "standby.hckp"))
        a, b = socket.socketpair()
        yield sb, a
        a.close()
        b.close()

    @staticmethod
    def _frame(rec, data) -> bytearray:
        """``rec`` as a frame carrying ``data``, the digest of ``data``."""
        sent = dataclasses.replace(rec, data=memoryview(bytes(data)))
        return bytearray(wire.encode_gen(sent))

    @pytest.mark.parametrize("seq", [1, 2], ids=["first", "after-one"])
    def test_wire_damage_is_refused_before_the_chain(
        self, seq, records, standby
    ):
        sb, conn = standby
        for rec in records[: seq - 1]:
            sb._on_gen(conn, self._frame(rec, rec.data))
        payload = self._frame(records[seq - 1], records[seq - 1].data)
        payload[-len(records[seq - 1].stdout) - 100] ^= 0xFF
        with pytest.raises(ReplicationProtocolError,
                           match="file digest mismatch"):
            sb._on_gen(conn, payload)
        self._nothing_committed(sb, records, seq)

    @pytest.mark.parametrize("seq", [1, 2], ids=["full", "delta"])
    @pytest.mark.parametrize("how", list(MESSAGES))
    def test_damaged_file_is_refused_before_the_chain(
        self, how, seq, records, standby
    ):
        """The sender's digest names the damaged bytes, so the frame
        arrives whole; the file's own checks refuse it, typed, and the
        standby's chain and resident VM stay where they were."""
        sb, conn = standby
        for rec in records[: seq - 1]:
            sb._on_gen(conn, self._frame(rec, rec.data))
        rec = records[seq - 1]
        with pytest.raises(ReplicationError) as info:
            sb._on_gen(conn, self._frame(rec, damage(rec.data, how)))
        assert MESSAGES[how] in str(info.value)
        assert isinstance(info.value.__cause__, CheckpointIntegrityError)
        self._nothing_committed(sb, records, seq)

    @staticmethod
    def _nothing_committed(sb, records, seq):
        assert sb.applied_seq == seq - 1
        if seq == 1:
            assert not os.path.exists(sb.chain_path)
            assert sb.resident_vm is None
        else:
            with open(sb.chain_path, "rb") as f:
                assert f.read() == bytes(records[seq - 2].data)
            assert sb.resident_vm is not None

