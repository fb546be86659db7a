"""Incremental delta checkpointing (format v4): differential and fault
coverage.

The contract under test:

* a delta chain restores to *exactly* the state a full checkpoint taken
  at the same program point restores to — bit-identical restored-memory
  fingerprints and bit-identical continued output, on every simulated
  platform pair including 32<->64-bit and cross-endian hops,
* the writer's fallbacks (dirty ratio, ``full_every`` cadence, retention
  depth, failed commits) degrade deltas to fulls, never to corruption,
* chain damage is detected through the parent-SHA binding and repaired
  (or explicitly refused) by ``fsck_chain``,
* background writer failures surface as typed errors exactly once and
  poison the chain so the next checkpoint is full,
* older format versions (v1-v3) still restore.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro import (
    VirtualMachine,
    VMConfig,
    compile_source,
    get_platform,
    restart_vm,
)
from repro.checkpoint.format import (
    CHECKPOINT_MAGIC_V4,
    read_checkpoint,
)
from repro.checkpoint.fsck import fsck_chain
from repro.checkpoint.reader import load_snapshot_chain, restart_vm_with_fallback
from repro.errors import CheckpointError, CheckpointIntegrityError, RestartError
from repro.metrics import DELTA, INTEGRITY
from repro.store import ChunkStore

from tests.oracle import restamp
from tests.test_vectorized_cr import restored_fingerprint

PLATFORM_NAMES = ["rodrigo", "csd", "sp2148", "ultra64"]

# A handful of checkpoints with *small* mutations in between: the ideal
# delta workload.  Output after the last checkpoint depends on the whole
# mutation history, so a wrong merge cannot produce the right answer.
PROGRAM = """
let rec build n acc = if n = 0 then acc else build (n - 1) (n :: acc);;
let keep = build 150 [];;
let arr = Array.make 24 0;;
let () = for i = 0 to 23 do arr.(i) <- i * 5 done;;
let rec suml l = match l with [] -> 0 | h :: t -> h + suml t;;
checkpoint ();;
let () = for i = 0 to 23 do arr.(i) <- arr.(i) + 1 done;;
checkpoint ();;
let () = for i = 0 to 23 do arr.(i) <- arr.(i) + 2 done;;
checkpoint ();;
let () = for i = 0 to 23 do arr.(i) <- arr.(i) + 4 done;;
print_int (suml keep + arr.(7) + arr.(19));;
print_string " done";;
print_newline ();;
"""

N_CHECKPOINTS = 3


def run_chain(origin: str, path: str, **cfg_overrides):
    """Run PROGRAM on ``origin`` with incremental checkpoints enabled."""
    cfg = VMConfig(
        chkpt_filename=path,
        chkpt_mode="blocking",
        chkpt_incremental=True,
        chkpt_retain=4,
    )
    for k, v in cfg_overrides.items():
        setattr(cfg, k, v)
    code = compile_source(PROGRAM)
    vm = VirtualMachine(get_platform(origin), code, cfg)
    result = vm.run(max_instructions=5_000_000)
    assert result.status == "stopped"
    assert vm.checkpoints_taken == N_CHECKPOINTS
    return code, vm, result


def file_kind(path: str) -> str:
    with open(path, "rb") as f:
        return "delta" if f.read(6) == CHECKPOINT_MAGIC_V4 else "full"


def chain_kinds(path: str) -> list[str]:
    kinds, p, i = [], path, 0
    while os.path.exists(p):
        kinds.append(file_kind(p))
        i += 1
        p = f"{path}.{i}"
    return kinds


# ---------------------------------------------------------------------------
# Writer: chain shape and fallbacks
# ---------------------------------------------------------------------------


class TestWriterChainShape:
    def test_chain_is_delta_over_full(self, tmp_path):
        path = str(tmp_path / "app.hckp")
        _, vm, _ = run_chain("rodrigo", path)
        # first checkpoint full, the two after it deltas; rotation puts
        # the full at the bottom of the chain
        assert chain_kinds(path) == ["delta", "delta", "full"]
        stats = vm.last_checkpoint_stats
        assert stats.kind == "delta"
        assert stats.chain_depth == 2
        assert 0 < stats.dirty_words < stats.total_words

    def test_delta_head_carries_parent_binding(self, tmp_path):
        path = str(tmp_path / "app.hckp")
        run_chain("csd", path)
        head = read_checkpoint(path)
        parent = read_checkpoint(path + ".1")
        assert head.delta is not None and parent.delta is not None
        assert head.delta.parent_sha256 == parent.body_sha256
        base = read_checkpoint(path + ".2")
        assert base.delta is None
        assert parent.delta.parent_sha256 == base.body_sha256

    def test_full_every_forces_periodic_fulls(self, tmp_path):
        path = str(tmp_path / "app.hckp")
        run_chain("rodrigo", path, chkpt_full_every=2)
        # cadence 2: full, delta, full -> newest-first on disk
        assert chain_kinds(path) == ["full", "delta", "full"]

    def test_zero_retention_means_all_fulls(self, tmp_path):
        path = str(tmp_path / "app.hckp")
        _, vm, _ = run_chain("rodrigo", path, chkpt_retain=0)
        assert chain_kinds(path) == ["full"]
        assert vm.last_checkpoint_stats.kind == "full"

    def test_dirty_threshold_zero_falls_back_to_full(self, tmp_path):
        path = str(tmp_path / "app.hckp")
        _, vm, _ = run_chain("rodrigo", path, chkpt_dirty_threshold=0.0)
        assert chain_kinds(path) == ["full"] * N_CHECKPOINTS
        assert vm.last_checkpoint_stats.kind == "full"

    def test_incremental_off_never_writes_v4(self, tmp_path):
        path = str(tmp_path / "app.hckp")
        run_chain("rodrigo", path, chkpt_incremental=False)
        assert chain_kinds(path) == ["full"] * N_CHECKPOINTS

    def test_delta_counters_move(self, tmp_path):
        before_full = DELTA.checkpoints_full
        before_delta = DELTA.checkpoints_delta
        path = str(tmp_path / "app.hckp")
        run_chain("rodrigo", path)
        assert DELTA.checkpoints_full == before_full + 1
        assert DELTA.checkpoints_delta == before_delta + 2
        assert DELTA.delta_bytes_saved > 0

    def test_delta_head_smaller_than_full(self, tmp_path):
        inc = str(tmp_path / "inc.hckp")
        run_chain("rodrigo", inc)
        full = str(tmp_path / "full.hckp")
        run_chain("rodrigo", full, chkpt_incremental=False)
        assert os.path.getsize(inc) < os.path.getsize(full) / 2


# ---------------------------------------------------------------------------
# Differential restore: delta chain == full, on every platform pair
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("origin", PLATFORM_NAMES)
@pytest.mark.parametrize("target", PLATFORM_NAMES)
def test_delta_restore_bit_identical_to_full(origin, target, tmp_path):
    """The tentpole differential: restoring the delta head must be
    indistinguishable — restored memory and continued output — from
    restoring a full checkpoint taken at the same program point, across
    every pair including 32<->64-bit and cross-endian hops."""
    inc_path = str(tmp_path / "inc.hckp")
    code, _, baseline = run_chain(origin, inc_path)
    full_path = str(tmp_path / "full.hckp")
    run_chain(origin, full_path, chkpt_incremental=False)
    assert file_kind(inc_path) == "delta" and file_kind(full_path) == "full"

    vm_inc, _ = restart_vm(get_platform(target), code, inc_path)
    vm_full, _ = restart_vm(get_platform(target), code, full_path)
    assert restored_fingerprint(vm_inc) == restored_fingerprint(vm_full)

    out_inc = vm_inc.run(max_instructions=5_000_000)
    out_full = vm_full.run(max_instructions=5_000_000)
    assert out_inc.vm.channels.stdout_bytes() == baseline.vm.channels.stdout_bytes()
    assert out_full.vm.channels.stdout_bytes() == baseline.vm.channels.stdout_bytes()


def test_chain_merge_equals_full_snapshot(tmp_path):
    """load_snapshot_chain over the v4 chain reproduces the heap image a
    full checkpoint captured at the same point."""
    inc_path = str(tmp_path / "inc.hckp")
    run_chain("sp2148", inc_path)
    full_path = str(tmp_path / "full.hckp")
    run_chain("sp2148", full_path, chkpt_incremental=False)
    merged = load_snapshot_chain(inc_path)
    full = read_checkpoint(full_path)
    assert [
        (b, w.tolist()) for b, w in merged.heap_chunks
    ] == [(b, w.tolist()) for b, w in full.heap_chunks]
    assert merged.global_data == full.global_data
    assert merged.freelist_head == full.freelist_head


def test_every_generation_in_chain_restores(tmp_path):
    """Each rotation slot is a valid restore point (given its parents)."""
    path = str(tmp_path / "app.hckp")
    code, _, _ = run_chain("rodrigo", path)
    outputs = []
    for p in (path, path + ".1", path + ".2"):
        vm, _ = restart_vm(
            get_platform("ultra64"), code, p,
            config=VMConfig(chkpt_state="disable"),
        )
        outputs.append(vm.run(max_instructions=5_000_000).vm.channels.stdout_bytes())
    # later checkpoints replay fewer mutations but land on the same text
    assert len(set(outputs)) == 1


# Allocation-heavy after the checkpoint: a quiet block of long-lived
# rows, then a stream of small short-lived arrays — the allocator carves
# free blocks and relinks the freelist in regions the mutator itself
# never writes.
_ALLOCATING = """
let base = ref [];;
let () = for i = 1 to 60 do base := Array.make 200 i :: !base done;;
let keep = ref [];;
let n = ref 0;;
while !n < 3000 do
  n := !n + 1;
  keep := (Array.make (5 + !n mod 9) !n) :: !keep;
  (if !n mod 40 = 0 then keep := []);
  ()
done;;
print_int (List.length !keep + List.length !base)
"""


@pytest.mark.parametrize("target", ["rodrigo", "ultra64"])
def test_deltas_of_a_restarted_vm_carry_the_allocators_writes(
        target, tmp_path):
    """A VM that was itself restored keeps taking deltas (every HA
    successor does).  Its heap was replaced during the restore; the new
    one must feed the same dirty-region set, or header and freelist
    writes drop out of every later delta.  At each generation the chain
    must restore to what a full checkpoint of the same state restores
    to."""
    def config(name, incremental=True):
        return VMConfig(
            chkpt_filename=str(tmp_path / name), chkpt_mode="blocking",
            chkpt_incremental=incremental, chkpt_retain=8,
            chkpt_full_every=0, minor_words=256, chunk_words=4096,
        )

    code = compile_source(_ALLOCATING)
    origin = VirtualMachine(get_platform("rodrigo"), code, config("a.hckp"))
    assert origin.run(max_instructions=12_000).status == "budget"
    origin.perform_checkpoint()
    vm, _ = restart_vm(
        get_platform(target), code, str(tmp_path / "a.hckp"),
        config("chain.hckp"),
    )
    assert vm.mem.heap.dirty_regions is vm.mem.dirty.regions
    kinds = []
    for _ in range(5):
        assert vm.run(max_instructions=2_500).status == "budget"
        vm.perform_checkpoint()
        kinds.append(vm.last_checkpoint_stats.kind)
        # The same state once more, as a full, beside the chain.
        chain_state = (vm.delta_parent_sha, vm.delta_parent_path,
                       vm.delta_depth)
        vm.config.chkpt_filename = str(tmp_path / "full.hckp")
        vm.config.chkpt_incremental = False
        vm.perform_checkpoint()
        vm.config.chkpt_filename = str(tmp_path / "chain.hckp")
        vm.config.chkpt_incremental = True
        vm.delta_parent_sha, vm.delta_parent_path, vm.delta_depth = (
            chain_state
        )
        restored = [
            restart_vm(get_platform(target), code, str(tmp_path / name),
                       VMConfig(chkpt_state="disable"))[0]
            for name in ("chain.hckp", "full.hckp")
        ]
        assert restored_fingerprint(restored[0]) == restored_fingerprint(
            restored[1]
        )
    assert kinds == ["full"] + ["delta"] * 4


# ---------------------------------------------------------------------------
# Older formats keep restoring
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("version", [1, 2, 3])
def test_older_formats_still_restore(version, tmp_path):
    path = str(tmp_path / f"v{version}.hckp")
    code, _, baseline = run_chain("rodrigo", path, chkpt_incremental=False)
    restamp(path, path, version=version)
    snap = read_checkpoint(path)
    assert snap.header.format_version == version
    vm, _ = restart_vm(get_platform("csd"), code, path)
    out = vm.run(max_instructions=5_000_000)
    assert out.vm.channels.stdout_bytes() == baseline.vm.channels.stdout_bytes()


# ---------------------------------------------------------------------------
# Damage: binding detection, fallback, fsck repair
# ---------------------------------------------------------------------------


def _flip_byte(path: str, frac: float = 0.5) -> None:
    data = bytearray(open(path, "rb").read())
    data[int(len(data) * frac)] ^= 0x5A
    with open(path, "wb") as f:
        f.write(bytes(data))


class TestChainDamage:
    def test_swapped_parent_detected_by_binding(self, tmp_path):
        path = str(tmp_path / "app.hckp")
        code, _, _ = run_chain("rodrigo", path)
        # overwrite the middle delta with the base full: every section
        # CRC still verifies, only the parent-SHA binding can catch it
        with open(path + ".2", "rb") as f:
            impostor = f.read()
        with open(path + ".1", "wb") as f:
            f.write(impostor)
        with pytest.raises(CheckpointIntegrityError, match="parent"):
            restart_vm(get_platform("rodrigo"), code, path)

    def test_fallback_walks_to_undamaged_generation(self, tmp_path):
        path = str(tmp_path / "app.hckp")
        code, _, baseline = run_chain("rodrigo", path)
        _flip_byte(path)  # head unreadable; .1 -> .2 still a valid chain
        before = INTEGRITY.fallback_restores
        vm, stats = restart_vm_with_fallback(
            get_platform("ultra64"), code, path,
            config=VMConfig(chkpt_state="disable"),
        )
        assert stats.restored_path == path + ".1"
        assert INTEGRITY.fallback_restores == before + 1
        out = vm.run(max_instructions=5_000_000)
        assert (
            out.vm.channels.stdout_bytes()
            == baseline.vm.channels.stdout_bytes()
        )

    def test_fsck_chain_reports_healthy(self, tmp_path):
        path = str(tmp_path / "app.hckp")
        run_chain("csd", path)
        report = fsck_chain(path)
        assert report["ok"] and report["kind"] == "delta"
        assert report["chain_depth"] == 2
        assert [e["kind"] for e in report["links"]] == ["delta", "delta", "full"]

    def test_fsck_chain_flags_binding_mismatch(self, tmp_path):
        path = str(tmp_path / "app.hckp")
        run_chain("csd", path)
        with open(path + ".2", "rb") as f:
            impostor = f.read()
        with open(path + ".1", "wb") as f:
            f.write(impostor)
        report = fsck_chain(path)
        assert not report["ok"]
        errors = " ".join(p["error"] for p in report["problems"])
        assert "binding mismatch" in errors

    def _seed_store(self, store_root: str, path: str) -> ChunkStore:
        """Upload the pristine chain with HA-style sha-linked meta."""
        from repro.checkpoint.fsck import _chain_link_report

        store = ChunkStore(store_root)
        for p in (path, path + ".1", path + ".2"):
            link = _chain_link_report(p)
            assert link["ok"]
            meta = {
                "kind": link["kind"],
                "body_sha256": link["body_sha256"],
                "parent_sha256": link.get("parent_sha256") or "",
            }
            with open(p, "rb") as f:
                store.put_checkpoint("vm", f.read(), meta=meta)
        return store

    def test_fsck_chain_repairs_from_store(self, tmp_path):
        path = str(tmp_path / "app.hckp")
        code, _, baseline = run_chain("rodrigo", path)
        from repro.checkpoint.fsck import LocalStoreSource

        store = self._seed_store(str(tmp_path / "store"), path)
        _flip_byte(path + ".1", 0.6)  # middle delta
        _flip_byte(path + ".2", 0.5)  # full base
        assert not fsck_chain(path)["ok"]
        report = fsck_chain(
            path, repair=True, source=LocalStoreSource(store), vm_id="vm"
        )
        assert report["ok"] and report["action"] == "repaired"
        assert report["sections_repaired"] >= 2
        vm, _ = restart_vm(get_platform("sp2148"), code, path)
        out = vm.run(max_instructions=5_000_000)
        assert (
            out.vm.channels.stdout_bytes()
            == baseline.vm.channels.stdout_bytes()
        )

    def test_fsck_chain_refuses_repair_on_unverifiable_base(self, tmp_path):
        path = str(tmp_path / "app.hckp")
        run_chain("rodrigo", path)
        from repro.checkpoint.fsck import LocalStoreSource, _chain_link_report

        # the store holds only head and middle — the base is missing, so
        # repairing the middle delta would graft it onto garbage
        store = ChunkStore(str(tmp_path / "store"))
        for p in (path, path + ".1"):
            link = _chain_link_report(p)
            meta = {
                "kind": link["kind"],
                "body_sha256": link["body_sha256"],
                "parent_sha256": link.get("parent_sha256") or "",
            }
            with open(p, "rb") as f:
                store.put_checkpoint("vm", f.read(), meta=meta)
        _flip_byte(path + ".1", 0.6)
        _flip_byte(path + ".2", 0.5)
        report = fsck_chain(
            path, repair=True, source=LocalStoreSource(store), vm_id="vm"
        )
        assert not report["ok"]
        assert report["action"] == "refused"
        errors = " ".join(p["error"] for p in report["problems"])
        assert "refused" in errors and "no store generation" in errors


def test_delta_fuzz_scenarios_recover():
    """The fault-injection matrix over delta chains: corrupt base,
    corrupt middle, swapped parent — all detected and recovered, on
    every pair."""
    from repro.faults.fuzz import LINK_SCENARIOS, fuzz_matrix

    report = fuzz_matrix(mutations=4, platforms=["rodrigo", "ultra64"])
    assert report["ok"], report["failures"]
    assert report["pairs"] == 4
    assert report["scenarios"] == dict.fromkeys(LINK_SCENARIOS, 4)
    outcomes = report["outcomes"]
    assert outcomes.get("detected_and_recovered", 0) > 0
    assert outcomes.get("clean_restore", 0) > 0


# ---------------------------------------------------------------------------
# Background failures, stats races, and the no-fork fallback
# ---------------------------------------------------------------------------


class TestBackgroundAndModes:
    def _finished_vm(self, platform: str, mode: str, path: str):
        code = compile_source("print_string \"x\";;")
        vm = VirtualMachine(
            get_platform(platform),
            code,
            VMConfig(
                chkpt_filename=path, chkpt_mode=mode, chkpt_incremental=True,
                chkpt_retain=4,
            ),
        )
        assert vm.run(max_instructions=1_000_000).status == "stopped"
        return vm

    def test_background_failure_surfaces_typed_error_once(self, tmp_path):
        path = str(tmp_path / "nodir" / "app.hckp")  # parent dir missing
        vm = self._finished_vm("rodrigo", "background", str(tmp_path / "ok"))
        vm.config.chkpt_filename = path
        before = INTEGRITY.background_checkpoint_failures
        vm.perform_checkpoint()
        stats = vm.last_checkpoint_stats
        assert stats.mode == "background"
        with pytest.raises(CheckpointError):
            vm.join_background_checkpoint()
        assert INTEGRITY.background_checkpoint_failures == before + 1
        # surfaced exactly once; the next join is clean
        vm.join_background_checkpoint()
        # the chain is poisoned: the next checkpoint must be full
        assert vm.delta_parent_sha is None
        vm.config.chkpt_filename = str(tmp_path / "app2.hckp")
        vm.perform_checkpoint()
        vm.join_background_checkpoint()
        assert vm.last_checkpoint_stats.kind == "full"

    def test_stats_not_completed_until_join(self, tmp_path, monkeypatch):
        """Regression for the file_bytes race: background stats must not
        claim completion (nor expose file_bytes) while the writer thread
        is still running."""
        import repro.checkpoint.writer as writer_mod

        path = str(tmp_path / "app.hckp")
        vm = self._finished_vm("rodrigo", "background", path)
        gate = threading.Event()
        real = writer_mod.write_snapshot

        def gated(*a, **kw):
            gate.wait(timeout=30)
            return real(*a, **kw)

        monkeypatch.setattr(writer_mod, "write_snapshot", gated)
        vm.perform_checkpoint()
        stats = vm.last_checkpoint_stats
        assert stats.completed is False  # writer is parked on the gate
        gate.set()
        vm.join_background_checkpoint()
        assert stats.completed is True
        assert stats.file_bytes == os.path.getsize(path)

    def test_blocking_stats_complete_immediately(self, tmp_path):
        path = str(tmp_path / "app.hckp")
        vm = self._finished_vm("rodrigo", "blocking", path)
        vm.perform_checkpoint()
        stats = vm.last_checkpoint_stats
        assert stats.completed is True
        assert stats.file_bytes == os.path.getsize(path)

    def test_no_fork_platform_degrades_background_to_blocking(self, tmp_path):
        """pc8 (Windows NT personality) has no fork: an explicit
        background request must degrade to blocking, not hand a mutating
        VM to a concurrent serializer."""
        path = str(tmp_path / "app.hckp")
        vm = self._finished_vm("pc8", "background", path)
        vm.perform_checkpoint()
        stats = vm.last_checkpoint_stats
        assert stats.mode == "blocking"
        assert stats.completed is True
        assert vm._background_writer is None

    def test_forking_platform_honors_background(self, tmp_path):
        path = str(tmp_path / "app.hckp")
        vm = self._finished_vm("rodrigo", "background", path)
        vm.perform_checkpoint()
        assert vm.last_checkpoint_stats.mode == "background"
        vm.join_background_checkpoint()

    def test_deltas_work_on_no_fork_platform(self, tmp_path):
        path = str(tmp_path / "app.hckp")
        code, vm, baseline = run_chain("pc8", path, chkpt_mode="background")
        assert vm.last_checkpoint_stats.mode == "blocking"
        assert chain_kinds(path) == ["delta", "delta", "full"]
        restored, _ = restart_vm(get_platform("ultra64"), code, path)
        out = restored.run(max_instructions=5_000_000)
        assert (
            out.vm.channels.stdout_bytes()
            == baseline.vm.channels.stdout_bytes()
        )


# ---------------------------------------------------------------------------
# Exhausted chains fail loudly, not wrongly
# ---------------------------------------------------------------------------


def test_missing_base_is_a_typed_chain_error(tmp_path):
    path = str(tmp_path / "app.hckp")
    code, _, _ = run_chain("rodrigo", path)
    os.unlink(path + ".2")
    with pytest.raises(CheckpointIntegrityError, match="chain"):
        restart_vm(get_platform("rodrigo"), code, path)
    with pytest.raises(RestartError):
        restart_vm_with_fallback(get_platform("rodrigo"), code, path)
