"""fsck: verify a checkpoint, repair damaged sections from a replica."""

from __future__ import annotations

import io

import pytest

from repro import VirtualMachine, VMConfig, compile_source, get_platform
from repro.checkpoint.format import read_section_table
from repro.checkpoint.fsck import (
    ClientSource,
    LocalStoreSource,
    fsck_chain,
    fsck_checkpoint,
    verify_checkpoint_bytes,
)
from repro.checkpoint.reader import restart_vm
from repro.metrics import INTEGRITY
from repro.store import ChunkStore, FleetClient, FleetNode

RODRIGO = get_platform("rodrigo")

PROGRAM = """
let rec build n acc = if n = 0 then acc else build (n - 1) (n :: acc);;
let data = build 200 [];;
let rec sum l = match l with [] -> 0 | h :: t -> h + sum t;;
checkpoint ();;
print_string "sum=";;
print_int (sum data);;
"""


@pytest.fixture(scope="module")
def code():
    return compile_source(PROGRAM)


@pytest.fixture
def replicated(tmp_path, code):
    """A committed checkpoint plus a store replica holding its chunks."""
    path = str(tmp_path / "ck.hckp")
    vm = VirtualMachine(
        RODRIGO, code,
        VMConfig(chkpt_filename=path, chkpt_mode="blocking"),
        stdout=io.BytesIO(),
    )
    result = vm.run(max_instructions=20_000_000)
    assert result.status == "stopped" and vm.checkpoints_taken == 1
    with open(path, "rb") as f:
        data = f.read()
    store = ChunkStore(str(tmp_path / "store"))
    store.put_checkpoint("vm", data)
    return path, data, store


def damage_section(path: str, data: bytes, name: str = "heap") -> None:
    table = read_section_table(data)
    target = next(s for s in table if s.name == name)
    buf = bytearray(data)
    buf[target.offset + target.length // 2] ^= 0xFF
    with open(path, "wb") as f:
        f.write(bytes(buf))


class TestVerify:
    def test_healthy_file(self, replicated):
        path, data, _ = replicated
        assert verify_checkpoint_bytes(data) == []
        report = fsck_checkpoint(path)
        assert report["ok"] and report["action"] == "none"

    def test_damaged_section_listed_with_range(self, replicated):
        path, data, _ = replicated
        damage_section(path, data)
        with open(path, "rb") as f:
            problems = verify_checkpoint_bytes(f.read())
        assert len(problems) == 1
        p = problems[0]
        assert p["section"] == "heap"
        assert p["length"] > 0 and p["expected"] != p["actual"]

    def test_truncation_reported(self, replicated):
        path, data, _ = replicated
        with open(path, "wb") as f:
            f.write(data[: len(data) // 3])
        report = fsck_checkpoint(path)
        assert not report["ok"]
        assert report["problems"]

    def test_missing_file(self, tmp_path):
        report = fsck_checkpoint(str(tmp_path / "ghost.hckp"))
        assert not report["ok"]

    def test_repair_without_replica_fails_cleanly(self, replicated):
        path, data, _ = replicated
        damage_section(path, data)
        report = fsck_checkpoint(path, repair=True)
        assert not report["ok"]
        assert any("replica" in p["error"] for p in report["problems"]
                   if "error" in p)


class TestRepairFromLocalStore:
    def test_bitflip_patched_chunkwise(self, replicated):
        path, data, store = replicated
        damage_section(path, data)
        before = INTEGRITY.sections_repaired
        report = fsck_checkpoint(
            path, repair=True, source=LocalStoreSource(store), vm_id="vm"
        )
        assert report["ok"], report
        assert report["action"] == "patched"
        assert report["sections_repaired"] >= 1
        # A single flipped bit costs one-ish chunks, not the whole file.
        assert 0 < report["chunks_fetched"] <= 3
        assert INTEGRITY.sections_repaired > before
        with open(path, "rb") as f:
            assert f.read() == data

    def test_truncated_file_refetched_whole(self, replicated):
        path, data, store = replicated
        with open(path, "wb") as f:
            f.write(data[: len(data) // 2])
        report = fsck_checkpoint(
            path, repair=True, source=LocalStoreSource(store), vm_id="vm"
        )
        assert report["ok"], report
        assert report["action"] == "refetched"
        with open(path, "rb") as f:
            assert f.read() == data

    def test_repaired_file_restores(self, replicated, code):
        path, data, store = replicated
        damage_section(path, data)
        fsck_checkpoint(
            path, repair=True, source=LocalStoreSource(store), vm_id="vm"
        )
        out = io.BytesIO()
        vm, _ = restart_vm(
            RODRIGO, code, path, VMConfig(chkpt_state="disable"), stdout=out
        )
        result = vm.run(max_instructions=20_000_000)
        assert result.status == "stopped"
        assert result.stdout == b"sum=20100"

    def test_full_file_is_a_chain_of_one(self, replicated):
        """The chain check on a full file repairs it exactly as the
        one-file step does, reading one replica manifest however many
        generations the store holds."""
        path, data, store = replicated
        for i in range(3):
            store.put_checkpoint("vm", b"older generation %d" % i)
        store.put_checkpoint("vm", data)
        damage_section(path, data)
        source = LocalStoreSource(store)
        reads = []
        real_manifest = source.manifest
        source.manifest = lambda *a: reads.append(a) or real_manifest(*a)
        report = fsck_chain(path, repair=True, source=source, vm_id="vm")
        assert report["ok"] and report["chain_depth"] == 0
        assert report["action"] == "repaired"
        (link,) = report["links"]
        assert link["kind"] == "full" and link["action"] == "patched"
        assert reads == [("vm", None)]
        with open(path, "rb") as f:
            assert f.read() == data

    def test_unknown_vm_is_unrepairable(self, replicated):
        path, data, store = replicated
        damage_section(path, data)
        report = fsck_checkpoint(
            path, repair=True, source=LocalStoreSource(store), vm_id="ghost"
        )
        assert not report["ok"]


class TestRepairViaDaemon:
    def test_client_source_end_to_end(self, replicated):
        path, data, store = replicated
        server = FleetNode(store)
        host, port = server.start()
        try:
            with FleetClient([(host, port)], backoff=0.01) as client:
                damage_section(path, data)
                report = fsck_checkpoint(
                    path, repair=True, source=ClientSource(client), vm_id="vm"
                )
                assert report["ok"], report
                assert report["action"] in ("patched", "refetched")
                with open(path, "rb") as f:
                    assert f.read() == data
        finally:
            server.stop()
