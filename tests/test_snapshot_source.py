"""SnapshotSource / SectionHandle: the lazily-verified section layer.

Proof obligations for the deferred-section refactor:

* **Bit identity through handles** — every golden fixture (v1/v2
  legacy, v3 fulls, the scalar-writer file, the v4 delta chain; all
  six platforms, both endiannesses and word sizes) opened through a
  deferred :class:`SnapshotSource` and driven to full resolution
  reserializes to the checked-in SHA-256 manifest bit for bit.
* **Deferral is real** — a deferred open of a v3 full reads only the
  framing (magic, trailer, non-heap sections, chunk headers), a small
  fraction of the file; the heap payload bytes stay on disk.
* **Chains read partially** — ``load_snapshot_chain(defer=True)``
  over a delta chain reads only the parent sections the dirty regions
  need; untouched base chunks are never read.
* **Late failures are typed** — corruption in a deferred section
  surfaces as the same annotated
  :class:`~repro.errors.CheckpointIntegrityError` the eager verifier
  raises, never a raw ``struct.error``/``KeyError``/numpy crash,
  no matter how late the touch happens.
* **Unaligned tables** — a CRC-valid table whose rows do not match the
  profile's body order is verified through the same handles and parsed
  sequentially: bit-identical restores, truthful deferral counters,
  damage named by section.
* **Reporting** — ``describe_checkpoint`` / ``repro info --json``
  carry the section-resolution report and the RESTART counters.
* **One of each** — one v3-trailer parser, no scalar/format knobs.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import re
import struct
import sys
import zlib

import numpy as np
import pytest

from repro import (
    VirtualMachine,
    VMConfig,
    compile_source,
    get_platform,
    restart_vm,
)
from repro.checkpoint.format import serialize_snapshot
from repro.checkpoint.inspect import describe_checkpoint
from repro.checkpoint.reader import load_snapshot_chain
from repro.checkpoint.schema import ChunkSlice, SnapshotSource
from repro.errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointIntegrityError,
)
from repro.metrics import RESTART
from tests.test_net import SRC, _modules_matching
from tests.test_vectorized_cr import restored_fingerprint

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
GOLDEN = os.path.join(REPO, "tests", "fixtures", "golden")

with open(os.path.join(GOLDEN, "MANIFEST.json")) as _f:
    MANIFEST = json.load(_f)


def _fixture_files(platform: str):
    entry = MANIFEST["platforms"][platform]
    for fname, sha in sorted(entry["files"].items()):
        yield os.path.join(GOLDEN, platform, fname), sha


# ---------------------------------------------------------------------------
# Bit identity: every fixture through handles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("platform", sorted(MANIFEST["platforms"]))
def test_every_fixture_resolves_bit_identical_via_handles(platform):
    """Deferred open -> resolve_all -> serialize is the identity on all
    42 fixture files: both endiannesses, both word sizes, v1/v2 legacy
    delegation, the scalar-path file, and the delta chain links."""
    for path, want_sha in _fixture_files(platform):
        src = SnapshotSource.open(path, defer=True)
        try:
            snap = src.resolve_all()
            assert src.fully_verified
            blob = serialize_snapshot(snap)
        finally:
            src.close()
        got = hashlib.sha256(blob).hexdigest()
        assert got == want_sha, f"{path}: bytes differ through handles"


@pytest.mark.parametrize("platform", sorted(MANIFEST["platforms"]))
def test_deferred_serialize_without_parsing_heap(platform):
    """Verification alone (no heap parse) suffices to reserialize a v3
    full bit-identically — the writer consumes the chunk slices via
    their array protocol, payload bytes read straight off the disk."""
    path = os.path.join(GOLDEN, platform, "full_v3.hckp")
    want = MANIFEST["platforms"][platform]["files"]["full_v3.hckp"]
    src = SnapshotSource.open(path, defer=True)
    try:
        assert any(
            isinstance(w, ChunkSlice) for _, w in src.snapshot.heap_chunks
        )
        src.finish_verification()
        blob = serialize_snapshot(src.snapshot)
    finally:
        src.close()
    assert hashlib.sha256(blob).hexdigest() == want


# ---------------------------------------------------------------------------
# Deferral accounting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("platform", sorted(MANIFEST["platforms"]))
def test_deferred_open_reads_a_small_fraction(platform):
    path = os.path.join(GOLDEN, platform, "full_v3.hckp")
    size = os.path.getsize(path)
    src = SnapshotSource.open(path, defer=True)
    try:
        rep = src.stats()
        assert rep["sections"] == len(src.handles)
        assert rep["unresolved_names"] == ["heap"]
        assert rep["bytes_deferred"] > 0
        assert not rep["sha_verified"]
        # The heap dominates the file; the open must not touch it.
        assert rep["bytes_read"] < size * 0.10, (
            f"deferred open read {rep['bytes_read']} of {size} bytes"
        )
        src.resolve_all()
        rep = src.stats()
        assert rep["unresolved"] == 0
        assert rep["bytes_deferred"] == 0
        assert rep["sha_verified"]
    finally:
        src.close()


def test_handle_lifecycle_and_fd_release(tmp_path):
    path = os.path.join(GOLDEN, "rodrigo", "full_v3.hckp")
    src = SnapshotSource.open(path, defer=True)
    heap = next(h for h in src.handles if h.name == "heap")
    assert not heap.verified and not heap.resolved
    others = [h for h in src.handles if h.name != "heap"]
    assert all(h.resolved for h in others)
    src.finish_verification()
    assert heap.verified and not heap.resolved
    assert src._fd is not None, "fd must stay open while slices are lazy"
    for _, w in src.snapshot.heap_chunks:
        if isinstance(w, ChunkSlice):
            w.materialize()
    assert heap.resolved
    assert src._fd is None, "last materialize must release the fd"


def test_gather_reads_sparse_words_without_materializing():
    path = os.path.join(GOLDEN, "ultra64", "full_v3.hckp")
    src = SnapshotSource.open(path, defer=True)
    try:
        base, ws = next(
            (b, w)
            for b, w in src.snapshot.heap_chunks
            if isinstance(w, ChunkSlice)
        )
        idx = np.array([0, 1, len(ws) - 1, 0], dtype=np.int64)
        sparse = ws.gather(idx)
        full = ws.materialize()
        assert np.array_equal(sparse, full[idx])
    finally:
        src.close()


# ---------------------------------------------------------------------------
# Delta chains: partial parent reads
# ---------------------------------------------------------------------------

#: Many untouched chunks, then a delta that dirties only one small
#: array: the parent's other chunks must never leave the disk.
CHAIN_PROGRAM = """
let keep = ref [];;
let () = for i = 1 to 16 do keep := (Array.make 512 i) :: !keep done;;
let arr = Array.make 8 0;;
checkpoint ();;
let () = for i = 0 to 7 do arr.(i) <- i + 1 done;;
checkpoint ();;
print_int arr.(3)
"""


def _write_chain(tmp_path) -> str:
    path = str(tmp_path / "app.hckp")
    cfg = VMConfig(
        chkpt_filename=path,
        chkpt_mode="blocking",
        chkpt_incremental=True,
        chkpt_retain=4,
        chunk_words=2048,
    )
    code = compile_source(CHAIN_PROGRAM)
    vm = VirtualMachine(get_platform("rodrigo"), code, cfg)
    result = vm.run(max_instructions=10_000_000)
    assert result.status == "stopped"
    assert vm.checkpoints_taken == 2
    return path


def test_chain_defer_reads_only_needed_parent_sections(tmp_path):
    path = _write_chain(tmp_path)
    total = sum(
        os.path.getsize(p)
        for p in (path, path + ".1")
        if os.path.exists(p)
    )

    eager = load_snapshot_chain(path)
    merged = load_snapshot_chain(path, defer=True)
    sources = merged._sources
    assert sources, "deferred chain load must track its sources"
    read = sum(s.stats()["bytes_read"] for s in sources)
    # The dirty delta covers one chunk; the base's other chunks stay on
    # disk, so the deferred load reads well under half the chain.
    assert read < total * 0.5, f"read {read} of {total} chain bytes"
    lazy_chunks = [
        w for _, w in merged.heap_chunks if isinstance(w, ChunkSlice)
    ]
    assert lazy_chunks, "untouched parent chunks must stay deferred"

    # ... and the merge is still exactly the eager merge.
    assert [b for b, _ in merged.heap_chunks] == [
        b for b, _ in eager.heap_chunks
    ]
    for (_, wm), (_, we) in zip(merged.heap_chunks, eager.heap_chunks):
        assert np.array_equal(np.asarray(wm), np.asarray(we))
    # Materializing the survivors pushed reads up, but still partial:
    # the merged deltas' own superseded ranges were never fetched twice.
    assert sum(s.stats()["bytes_read"] for s in sources) <= total


# ---------------------------------------------------------------------------
# Fault injection: late typed errors
# ---------------------------------------------------------------------------


def _corrupt_deferred_heap(src: SnapshotSource, path: str) -> None:
    """Flip a byte inside a still-unread chunk payload on disk."""
    slice_ = next(
        w for _, w in src.snapshot.heap_chunks if isinstance(w, ChunkSlice)
    )
    off = slice_._offset + (slice_.n_words // 2) * src.arch.word_bytes
    with open(path, "r+b") as f:
        f.seek(off)
        b = f.read(1)
        f.seek(off)
        f.write(bytes([b[0] ^ 0xFF]))


def test_corrupt_deferred_section_raises_typed_late_error(tmp_path):
    fixture = os.path.join(GOLDEN, "csd", "full_v3.hckp")
    path = str(tmp_path / "c.hckp")
    with open(fixture, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data)

    src = SnapshotSource.open(path, defer=True)
    try:
        # The structural open saw nothing wrong: damage is in bytes it
        # deliberately never read.
        assert src.stats()["bytes_deferred"] > 0
        _corrupt_deferred_heap(src, path)
        with pytest.raises(CheckpointIntegrityError) as exc_info:
            src.finish_verification()
        assert exc_info.value.section == "heap"
        assert "CRC mismatch" in str(exc_info.value)
        # Idempotently corrupt: a retry reports the same typed failure.
        with pytest.raises(CheckpointIntegrityError):
            src.finish_verification()
    finally:
        src.close()


def test_corrupt_deferred_section_fails_lazy_restart_drain(tmp_path):
    """End to end: the drain (or any forced finish) after a lazy
    restart surfaces deferred corruption as a typed, annotated error —
    never a struct/Key/numpy crash mid-execution."""
    prog = """
let keep = ref [];;
let () = for i = 1 to 8 do keep := (Array.make 512 i) :: !keep done;;
checkpoint ();;
print_int (List.length !keep)
"""
    path = str(tmp_path / "c.hckp")
    cfg = VMConfig(
        chkpt_filename=path, chkpt_mode="blocking", chunk_words=2048
    )
    code = compile_source(prog)
    vm = VirtualMachine(get_platform("rodrigo"), code, cfg)
    assert vm.run(max_instructions=10_000_000).status == "stopped"

    before = RESTART.late_failures
    vm_l, st_l = restart_vm(
        get_platform("rodrigo"), code, path,
        VMConfig(chunk_words=2048, lazy_restore=True),
    )
    assert st_l.sections_deferred >= 1
    sources = vm_l.lazy_restore.sources
    assert sources and not sources[0].fully_verified
    _corrupt_deferred_heap(sources[0], path)
    with pytest.raises(CheckpointError) as exc_info:
        vm_l.finish_lazy_restore()
    exc = exc_info.value
    assert isinstance(exc, (CheckpointIntegrityError, CheckpointFormatError))
    assert path in str(exc), "late error must be annotated with the path"
    assert RESTART.late_failures == before + 1


def test_truncated_deferred_payload_is_typed(tmp_path):
    fixture = os.path.join(GOLDEN, "sp2148", "full_v3.hckp")
    path = str(tmp_path / "c.hckp")
    with open(fixture, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data)
    src = SnapshotSource.open(path, defer=True)
    try:
        slice_ = next(
            w
            for _, w in src.snapshot.heap_chunks
            if isinstance(w, ChunkSlice)
        )
        os.truncate(path, slice_._offset + 8)
        with pytest.raises(CheckpointIntegrityError):
            # The fd pins the inode, so reads return short, not stale.
            slice_.materialize()
    finally:
        src.close()


# ---------------------------------------------------------------------------
# Unaligned section tables: verified by handle, parsed sequentially
# ---------------------------------------------------------------------------


def _seal(payload: bytes) -> bytes:
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return payload + b"HCKPEND!" + struct.pack("<I", crc)


def _rename_heap_row(data: bytes) -> bytes:
    """``heap`` -> ``haep`` in the section table, end CRC recomputed:
    every checksum still holds, but the rows no longer name the
    profile's body order."""
    payload = data[:-12]
    (tlen,) = struct.unpack("<I", payload[-4:])
    table = payload.index(b"\x04\x00\x00\x00heap", len(payload) - 4 - tlen)
    return _seal(payload[: table + 4] + b"haep" + payload[table + 8 :])


def test_unaligned_table_restores_bit_identically(tmp_path):
    fixture = os.path.join(GOLDEN, "rodrigo", "full_v3.hckp")
    with open(fixture, "rb") as f:
        renamed = _rename_heap_row(f.read())
    path = str(tmp_path / "renamed.hckp")
    with open(path, "wb") as f:
        f.write(renamed)
    src = SnapshotSource.from_bytes(renamed)
    assert not src._aligned
    assert "haep" in [h.name for h in src.handles]

    code = compile_source(MANIFEST["programs"]["full"])
    ultra64 = get_platform("ultra64")
    want, _ = restart_vm(ultra64, code, fixture)
    eager, st_e = restart_vm(ultra64, code, path)
    lazy, st_l = restart_vm(ultra64, code, path, VMConfig(lazy_restore=True))
    assert not st_e.lazy and st_l.lazy
    # The whole file was read and verified up front: nothing is deferred.
    assert st_l.sections_deferred == 0 and st_l.bytes_deferred == 0
    assert st_l.bytes_verified == sum(h.length for h in src.handles)
    lazy.finish_lazy_restore()
    fp = restored_fingerprint(want)
    assert restored_fingerprint(eager) == fp
    assert restored_fingerprint(lazy) == fp
    for vm in (eager, lazy):
        assert (
            vm.run().stdout.decode()
            == MANIFEST["platforms"]["rodrigo"]["stdout"]["full"]
        )


@pytest.mark.parametrize("lazy", [False, True])
def test_unaligned_table_payload_flip_names_the_section(tmp_path, lazy):
    with open(os.path.join(GOLDEN, "rodrigo", "full_v3.hckp"), "rb") as f:
        renamed = bytearray(_rename_heap_row(f.read()))
    row = next(
        h for h in SnapshotSource.from_bytes(bytes(renamed)).handles
        if h.name == "haep"
    )
    renamed[row.offset + row.length // 2] ^= 0x40
    path = str(tmp_path / "flipped.hckp")
    with open(path, "wb") as f:
        f.write(_seal(bytes(renamed[:-12])))
    code = compile_source(MANIFEST["programs"]["full"])
    with pytest.raises(CheckpointIntegrityError) as exc_info:
        restart_vm(
            get_platform("ultra64"), code, path, VMConfig(lazy_restore=lazy)
        )
    err = exc_info.value
    assert err.section == "haep" and "section 'haep' CRC mismatch" in str(err)
    assert err.path == path and err.offset == row.offset


# ---------------------------------------------------------------------------
# One of each
# ---------------------------------------------------------------------------


class TestOneOfEach:
    """Tier-1 guard: the scalar fork, its knobs, the spare trailer
    parsers and the eager / lazy / fold heap-conversion drivers stay
    deleted (the oracle lives under ``tests/oracle``)."""

    @pytest.mark.parametrize(
        "identifier",
        [
            r"\bvectorize\b", "raw_arrays", "chkpt_format", "_verify_v3_payload",
            "_fix_heap_pointers", "_repack_heap_payloads",
            "_attach_chunk_thunks", "_attach_rebuild_thunks", "_maybe_kernel",
            "_reconvert_chunk", "_reconvert_rebuilt",
        ],
    )
    def test_retired_identifiers_stay_out_of_src(self, identifier):
        assert _modules_matching(identifier) == []

    @pytest.mark.parametrize(
        "kernel",
        [
            "_fix_chunk_pointers", "_repack_chunk_payloads",
            "_fill_rebuilt_payloads", "_fix_rebuilt_heap",
        ],
    )
    def test_each_heap_kernel_has_one_call_site(self, kernel):
        """Its ``def`` and the per-chunk converter's call: eager drain,
        first touch and the standby's fold all go through ``convert``."""
        uses = sum(
            len(re.findall(rf"\b{kernel}\(", path.read_text()))
            for path in SRC.rglob("*.py")
        )
        assert uses == 2

    def test_one_function_unpacks_trailer_rows(self):
        """Section-table rows are ``<QQI``: one function packs them,
        one — ``SnapshotSource._open_trailer`` — unpacks them."""
        unpack = r'unpack\(\s*"<QQI"'
        assert _modules_matching(unpack) == [
            "repro/checkpoint/schema/source.py"
        ]
        for scope in (sys.modules[SnapshotSource.__module__],
                      SnapshotSource._open_trailer):
            assert len(re.findall(unpack, inspect.getsource(scope))) == 1


# ---------------------------------------------------------------------------
# Reporting: info --json / describe_checkpoint
# ---------------------------------------------------------------------------


def test_describe_checkpoint_carries_lazy_report():
    path = os.path.join(GOLDEN, "pc8", "full_v3.hckp")
    desc = describe_checkpoint(path)
    rep = desc["lazy"]
    assert rep["sections"] == len(desc["sections"])
    assert rep["unresolved_names"] == ["heap"]
    assert rep["bytes_deferred"] > 0
    assert rep["bytes_verified"] + rep["bytes_deferred"] <= rep["bytes_total"]
    # v1 files have no section table: the report degrades, not crashes.
    v1 = describe_checkpoint(os.path.join(GOLDEN, "pc8", "full_v1.hckp"))
    assert v1["lazy"]["sections"] is None
    assert v1["lazy"]["sha_verified"]


def test_info_json_reports_lazy_and_restart_counters(capsys):
    from repro.cli import main

    path = os.path.join(GOLDEN, "rodrigo", "full_v3.hckp")
    assert main(["info", path, "--json"]) == 0
    desc = json.loads(capsys.readouterr().out)
    assert desc["lazy"]["unresolved_names"] == ["heap"]
    assert set(desc["restart_counters"]) == {
        "lazy_restores",
        "sections_deferred",
        "bytes_deferred",
        "late_verifications",
        "late_failures",
    }
