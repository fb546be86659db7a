"""Each digest of a generation's bytes is computed once per host.

The guard counts the bytes fed to SHA-256 and CRC-32 on the thread that
does the work — the in-process store daemon's own hashing runs on its
loop thread and is not this host's — by wrapping ``hashlib`` and
``zlib`` in every module on the byte path.  On each of the three paths
a generation takes, every payload byte feeds one content-address hash
(a download's), one file-digest state, and the CRC-32 passes the
format defines (each body byte one section CRC and one end-of-file
accumulator); nothing hashes a payload again once it is assembled,
received or written — not a journal, not a record.
"""

from __future__ import annotations

import hashlib
import socket
import struct
import threading
import zlib

import pytest

from repro import VMConfig, VirtualMachine, compile_source, get_platform
from repro.checkpoint import commit as commit_mod
from repro.checkpoint import format as format_mod
from repro.checkpoint import generation as generation_mod
from repro.checkpoint.schema import source as source_mod
from repro.replication import CommitTailer, StandbyServer, wire
from repro.store import ChunkStore, FleetClient, FleetNode
from repro.store import chunkstore as chunkstore_mod
from repro.store.fleet import client as fleet_client_mod
from repro.store.ha import manifest_meta, protected_config, restore_generation

WORKLOAD = """
let rows = Array.make 40 [||];;
let i = ref 0;;
while !i < 40 do
  rows.(!i) <- Array.make 300 !i;
  i := !i + 1
done;;
let j = ref 0;;
while !j < 30000 do
  let r = rows.(!j mod 40) in
  r.(!j mod 300) <- r.(!j mod 300) + 1;
  j := !j + 1
done;;
print_int rows.(3).(7)
"""

PLATFORM = get_platform("rodrigo")

#: Every module a generation's bytes pass through on their way in or out.
MODULES = (chunkstore_mod, fleet_client_mod, source_mod, format_mod,
           commit_mod, generation_mod, wire)


class Fed:
    """Bytes fed to SHA-256 and CRC-32 on one thread."""

    def __init__(self) -> None:
        self.sha = 0
        self.crc = 0
        self._thread = threading.get_ident()

    def mine(self) -> bool:
        return threading.get_ident() == self._thread


class _Sha:
    def __init__(self, fed: Fed, inner) -> None:
        self._fed = fed
        self._inner = inner

    def update(self, data) -> None:
        if self._fed.mine():
            self._fed.sha += memoryview(data).nbytes
        self._inner.update(data)

    def copy(self) -> "_Sha":
        return _Sha(self._fed, self._inner.copy())

    def digest(self) -> bytes:
        return self._inner.digest()

    def hexdigest(self) -> str:
        return self._inner.hexdigest()


class _Hashlib:
    def __init__(self, fed: Fed) -> None:
        self._fed = fed

    def sha256(self, data=b""):
        h = _Sha(self._fed, hashlib.sha256())
        h.update(data)
        return h

    def __getattr__(self, name):
        return getattr(hashlib, name)


class _Zlib:
    def __init__(self, fed: Fed) -> None:
        self._fed = fed

    def crc32(self, data, value=0):
        if self._fed.mine():
            self._fed.crc += memoryview(data).nbytes
        return zlib.crc32(data, value)

    def __getattr__(self, name):
        return getattr(zlib, name)


@pytest.fixture
def fed(monkeypatch):
    counts = Fed()
    for module in MODULES:
        if hasattr(module, "hashlib"):
            monkeypatch.setattr(module, "hashlib", _Hashlib(counts))
        if hasattr(module, "zlib"):
            monkeypatch.setattr(module, "zlib", _Zlib(counts))
    return counts


def body_len(data) -> int:
    """Where the body ends: the trailer length sits before the end."""
    (tlen,) = struct.unpack_from("<I", data, len(data) - 16)
    return len(data) - 16 - tlen


def crc_once(data) -> int:
    """Each body byte one section CRC, and every byte before the end
    signature one end-of-file accumulator."""
    return body_len(data) + len(data) - 12


@pytest.fixture(scope="module")
def code():
    return compile_source(WORKLOAD)


@pytest.fixture(scope="module")
def records(code, tmp_path_factory):
    """A full and two deltas of one protected run."""
    path = str(tmp_path_factory.mktemp("origin") / "origin.hckp")
    vm = VirtualMachine(PLATFORM, code,
                        protected_config(VMConfig(chkpt_full_every=0)))
    tailer = CommitTailer(vm, path)
    out = []
    for _ in range(3):
        vm.run(max_instructions=4_000)
        out.append(tailer.capture())
    assert [r.kind for r in out] == ["full", "delta", "delta"]
    return out


def test_capture_hashes_its_image_once(code, tmp_path, fed):
    """The writer's body SHA-256 runs on over the trailer to the image's
    digest; the commit journal and the record (and the ``GEN`` frame it
    ships as) take that one."""
    path = str(tmp_path / "p.hckp")
    vm = VirtualMachine(PLATFORM, code, protected_config(None))
    tailer = CommitTailer(vm, path)
    vm.run(max_instructions=4_000)
    for _ in range(2):
        before_sha, before_crc = fed.sha, fed.crc
        rec = tailer.capture()
        wire.gen_parts(rec)
        assert fed.sha - before_sha == len(rec.data)
        assert fed.crc - before_crc == crc_once(rec.data)
        assert rec.data_sha256 == hashlib.sha256(rec.data).hexdigest()
        vm.run(max_instructions=4_000)


def test_cold_restore_hashes_each_link_once(code, records, tmp_path, fed):
    """A chain fetched from the store: each chunk's content address, one
    image digest per link as it arrives (the manifest's payload digest
    and the body SHA-256 the restore checks), and the CRC passes."""
    node = FleetNode(ChunkStore(str(tmp_path / "store")))
    node.start()
    client = FleetClient([node.address], backoff=0.01, chunk_size=4096)
    try:
        for rec in records:
            client.put_checkpoint("vm", rec.data,
                                  meta=manifest_meta(rec, PLATFORM))
        # A chunk two links share is fetched, and addressed, once.
        distinct = {}
        for m in client.get_manifests("vm", [1, 2, 3]):
            for i, key in enumerate(m.chunks):
                distinct[key] = min(m.chunk_size,
                                    m.payload_len - i * m.chunk_size)
        fed.sha = fed.crc = 0
        vm, depth = restore_generation(client, "vm", code, "ultra64")
        assert depth == 2
        total = sum(len(r.data) for r in records)
        assert fed.sha == sum(distinct.values()) + total
        assert fed.crc == sum(crc_once(r.data) for r in records)
        assert vm.run().exit_code == 0
    finally:
        client.close()
        node.stop()


def test_standby_hashes_each_received_generation_once(
    code, records, tmp_path, fed
):
    """The frame check's one pass gives the digest the frame names, the
    body digests the standby's reads adopt, and its journal's digest.
    A generation folded in place checks each CRC once; the first full,
    restored afresh from the bytes received, reads its sections again
    (their CRCs, not the digests)."""
    sb = StandbyServer(code, "ultra64", node_id="sb",
                       chain_path=str(tmp_path / "standby.hckp"))
    a, b = socket.socketpair()
    try:
        for rec in records:
            frame = bytearray(wire.encode_gen(rec))
            before_sha, before_crc = fed.sha, fed.crc
            sb._on_gen(a, frame)
            assert sb.applied_seq == rec.seq
            assert fed.sha - before_sha == len(rec.data)
            crc = crc_once(rec.data)
            if rec.kind == "full":  # restored afresh: sections, trailer
                crc += len(rec.data) - 12
            assert fed.crc - before_crc == crc, rec.kind
        assert sb.applied_in_place == 2 and sb.rebuilt == 1
    finally:
        a.close()
        b.close()
