"""Lazy first-touch restore: differential and fault-injection tests.

``--lazy-restore`` defers per-chunk heap conversion (pointer fixing,
endianness repack, 32<->64 payload fill) into first-touch thunks.  The
thunks run the same kernels the eager pass runs, restricted to one
chunk, so a lazy restore must be *observationally identical* to an
eager one:

* restarted runs print the same bytes on every endianness x word-size
  pairing,
* once drained, the restored memory fingerprint matches eager exactly,
* a checkpoint taken *mid-lazy-restore* — some chunks converted by
  touch, the rest still raw — commits bit-identically to a checkpoint
  taken after an eager restore,
* a corrupt chunk whose thunk fires arbitrarily late surfaces as a
  typed :class:`CheckpointIntegrityError`, never a raw numpy crash —
  and, eager being the same thunks drained inside the restart, so does
  one whose thunk fires there, in time for the generation fallback.
"""

from __future__ import annotations

import os

import pytest

from repro import (
    VirtualMachine,
    VMConfig,
    compile_source,
    errors,
    get_platform,
    restart_vm,
)
from repro.checkpoint.format import read_checkpoint, serialize_snapshot
from repro.checkpoint.reader import restart_vm_with_fallback
from repro.errors import CheckpointFormatError, CheckpointIntegrityError
from repro.metrics import INTEGRITY

#: rodrigo is the 32-bit little-endian origin; the targets cover the
#: four conversion pairings: nothing / endianness / word size / both.
ORIGIN = "rodrigo"
TARGETS = ["rodrigo", "csd", "sp2148", "ultra64"]

PROGRAM = """
let r = ref 0;;
let arr = Array.make 16 3;;
let lst = ref [];;
let fl = ref 2.25;;
let s = ref "seed";;
for i = 0 to 15 do arr.(i) <- i * i done;;
for i = 1 to 40 do begin
  r := !r + i;
  lst := (i * 7) :: !lst;
  fl := !fl *. 1.0625;
  if i mod 3 = 0 then s := !s ^ "x" else ()
end done;;
checkpoint ();;
let rec suml l = match l with [] -> 0 | h :: t -> h + suml t;;
r := !r + suml !lst + Array.length arr;;
print_int !r;;
print_string (" " ^ !s ^ " ");;
print_float !fl
"""

#: Fills several heap chunks (small ``chunk_words``), then only reads
#: the list head after the checkpoint — most chunks are never touched.
MULTI_CHUNK_PROGRAM = """
let keep = ref [];;
let () =
  for i = 1 to 24 do
    let a = Array.make 512 i in
    keep := a :: !keep
  done;;
checkpoint ();;
let rec first l = match l with [] -> 0 | h :: _ -> h.(0);;
print_int (first !keep)
"""

SMALL_CHUNKS = 2048  # words; forces the heap across many chunks


def _checkpoint(code, path: str, source_cfg=None) -> bytes:
    cfg = source_cfg or VMConfig()
    cfg.chkpt_filename = path
    cfg.chkpt_mode = "blocking"
    vm = VirtualMachine(get_platform(ORIGIN), code, cfg)
    result = vm.run(max_instructions=10_000_000)
    assert result.status == "stopped"
    assert vm.checkpoints_taken == 1
    return result


def _fingerprint(vm: VirtualMachine) -> dict:
    """Restored memory as plain data (materializes staged chunks)."""
    heap = vm.mem.heap
    return {
        "chunks": [(c.base, list(c.area.words)) for c in heap.chunks],
        "freelist_head": heap.freelist_head,
        "global_data": vm.global_data,
        "threads": {
            tid: (t.accu, t.env, t.stack.sp, list(t.stack.used_slice()))
            for tid, t in sorted(vm.sched.threads.items())
        },
    }


# ---------------------------------------------------------------------------
# Differential: lazy == eager on every pairing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", TARGETS)
def test_lazy_restore_matches_eager(target, tmp_path):
    code = compile_source(PROGRAM)
    path = str(tmp_path / "c.hckp")
    origin_out = _checkpoint(code, path)

    tp = get_platform(target)
    vm_e, st_e = restart_vm(tp, code, path)
    vm_l, st_l = restart_vm(tp, code, path, VMConfig(lazy_restore=True))

    assert not st_e.lazy
    assert st_l.lazy
    assert st_l.lazy_chunks_total >= 1
    # Nothing touched the heap yet: all conversion is still pending.
    assert st_l.lazy_chunks_converted == 0
    assert vm_l.lazy_restore is not None

    # Drained, the lazy restore reproduces the eager memory exactly.
    vm_l.finish_lazy_restore()
    assert st_l.lazy_chunks_converted == st_l.lazy_chunks_total
    assert _fingerprint(vm_l) == _fingerprint(vm_e)

    out_e = vm_e.run(max_instructions=10_000_000)
    out_l = vm_l.run(max_instructions=10_000_000)
    assert out_l.stdout == out_e.stdout == origin_out.stdout


@pytest.mark.parametrize("target", TARGETS)
def test_lazy_restore_converges_by_first_touch_alone(target, tmp_path):
    """No explicit drain: demand faults + the tick drainer finish it."""
    code = compile_source(PROGRAM)
    path = str(tmp_path / "c.hckp")
    origin_out = _checkpoint(code, path)

    vm_l, st_l = restart_vm(
        get_platform(target), code, path, VMConfig(lazy_restore=True)
    )
    out = vm_l.run(max_instructions=10_000_000)
    assert out.stdout == origin_out.stdout
    assert st_l.lazy_seconds > 0.0
    assert st_l.completion_seconds >= st_l.total_seconds


# ---------------------------------------------------------------------------
# Checkpoint taken mid-lazy-restore
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", TARGETS)
def test_checkpoint_during_lazy_restore_is_bit_identical(target, tmp_path):
    code = compile_source(MULTI_CHUNK_PROGRAM)
    path = str(tmp_path / "c.hckp")
    _checkpoint(code, path, VMConfig(chunk_words=SMALL_CHUNKS))

    tp = get_platform(target)
    cfg = lambda **kw: VMConfig(  # noqa: E731
        chunk_words=SMALL_CHUNKS,
        chkpt_mode="blocking",
        **kw,
    )
    pe = str(tmp_path / f"eager-{target}.hckp")
    pl = str(tmp_path / f"lazy-{target}.hckp")

    vm_e, _ = restart_vm(tp, code, path, cfg(chkpt_filename=pe))
    vm_e.perform_checkpoint()

    vm_l, st_l = restart_vm(
        tp, code, path, cfg(chkpt_filename=pl, lazy_restore=True)
    )
    assert st_l.lazy_chunks_total > 1, "program must span several chunks"
    # Touch a strict subset: dereference the globals block only.
    vm_l.mem.space.load(vm_l.global_data)
    touched = st_l.lazy_chunks_converted
    assert 1 <= touched < st_l.lazy_chunks_total
    # Mid-restore checkpoint: the writer must force the remaining
    # thunks inside the blocking window and dump converted words.
    vm_l.perform_checkpoint()
    assert vm_l.lazy_restore is None
    assert st_l.lazy_chunks_converted == st_l.lazy_chunks_total
    assert "lazy_finish" in vm_l.last_checkpoint_stats.phases.report()

    with open(pe, "rb") as f:
        eager_bytes = f.read()
    with open(pl, "rb") as f:
        lazy_bytes = f.read()
    assert lazy_bytes == eager_bytes


def test_partial_touch_then_drain_matches_eager(tmp_path):
    """The tick drainer converts untouched chunks; memory still matches."""
    code = compile_source(MULTI_CHUNK_PROGRAM)
    path = str(tmp_path / "c.hckp")
    origin_out = _checkpoint(code, path, VMConfig(chunk_words=SMALL_CHUNKS))

    tp = get_platform("csd")  # opposite endianness
    vm_e, _ = restart_vm(tp, code, path, VMConfig(chunk_words=SMALL_CHUNKS))
    vm_l, st_l = restart_vm(
        tp, code, path,
        VMConfig(chunk_words=SMALL_CHUNKS, lazy_restore=True),
    )
    # Drain one chunk at a time, interleaved with demand touches.
    vm_l.mem.space.load(vm_l.global_data)
    while vm_l.lazy_restore is not None:
        vm_l.drain_lazy_restore()
    assert st_l.lazy_chunks_converted == st_l.lazy_chunks_total
    assert _fingerprint(vm_l) == _fingerprint(vm_e)
    out = vm_l.run(max_instructions=10_000_000)
    assert out.stdout == origin_out.stdout


# ---------------------------------------------------------------------------
# Fault injection: late-firing thunk over a corrupt chunk
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", ["csd", "ultra64"])
def test_corrupt_chunk_late_thunk_raises_typed_error(target, tmp_path):
    code = compile_source(MULTI_CHUNK_PROGRAM)
    path = str(tmp_path / "c.hckp")
    _checkpoint(code, path, VMConfig(chunk_words=SMALL_CHUNKS))

    vm_l, st_l = restart_vm(
        get_platform(target), code, path,
        VMConfig(chunk_words=SMALL_CHUNKS, lazy_restore=True),
    )
    assert st_l.lazy
    chunk = vm_l.mem.heap.chunks[0]
    area = chunk.area
    assert area.pending_conversion
    arr = area.peek_staged()
    if hasattr(arr, "materialize"):
        # Deferred-section restore stages an unread chunk slice; pull
        # the (verified) payload in so we can corrupt the staged words
        # that the conversion thunk will consume.
        arr = arr.materialize()
        area._staged = arr
    if target == "csd":
        # Same word size: the thunk re-reads headers from the staged
        # words.  Word 0 is always a header; give it an impossible size
        # so the conversion kernel indexes out of range.
        arr[0] = (2 * arr.size) << 10  # white, tag 0, size 2x the chunk
    else:
        # Cross word size: block metadata was classified eagerly, so
        # corrupt the staged backing itself (truncated array) — the
        # deferred payload fill then scatters past the end.
        area._staged = arr[:8]
    with pytest.raises(CheckpointIntegrityError) as exc_info:
        vm_l.mem.space.load(chunk.base + vm_l.platform.arch.word_bytes)
    assert exc_info.value.section == "heap"
    assert "lazy conversion" in str(exc_info.value)


def _damage(path: str, section: str) -> None:
    """Make a checkpoint lie about its heap and re-seal every checksum,
    so only the conversion itself can notice."""
    snap = read_checkpoint(path)
    if section == "heap":
        # Word 0 is always a header: white, tag 0, twice the chunk.
        _, words = snap.heap_chunks[0]
        words[0] = (2 * words.size) << 10
    else:
        snap.chunk_index[0][0][-1] = 10_000_000
    with open(path, "wb") as f:
        f.write(serialize_snapshot(snap))
    read_checkpoint(path)


@pytest.mark.parametrize(
    "section,lazy", [("heap", False), ("index", False), ("index", True)]
)
@pytest.mark.parametrize("target", ["rodrigo", "csd", "ultra64"])
def test_corrupt_chunk_is_typed_in_time_for_the_fallback(
        target, section, lazy, tmp_path):
    """An eager restore drains the same thunks before it returns, so
    the same damage is the same typed error — raised while the previous
    generation can still take over.  (A wild index position is refused
    before any thunk exists, on either schedule.)"""
    code = compile_source(
        MULTI_CHUNK_PROGRAM.replace("checkpoint ();;", "checkpoint ();;" * 2)
    )
    path = str(tmp_path / "c.hckp")
    vm = VirtualMachine(
        get_platform(ORIGIN), code,
        VMConfig(chunk_words=SMALL_CHUNKS, chkpt_filename=path,
                 chkpt_mode="blocking", chkpt_retain=1),
    )
    origin_out = vm.run(max_instructions=10_000_000)
    assert vm.checkpoints_taken == 2
    _damage(path, section)

    cfg = VMConfig(
        chunk_words=SMALL_CHUNKS, lazy_restore=lazy, chkpt_state="disable"
    )
    before = INTEGRITY.fallback_restores
    vm_r, stats = restart_vm_with_fallback(
        get_platform(target), code, path, cfg
    )
    assert stats.restored_path == path + ".1"
    failed = stats.fallback_failures[0]
    assert issubclass(
        getattr(errors, failed["error_type"]), CheckpointFormatError
    )
    assert failed["section"] == section
    assert INTEGRITY.fallback_restores == before + 1
    assert vm_r.run(max_instructions=10_000_000).stdout == origin_out.stdout

    os.remove(path + ".1")
    with pytest.raises(CheckpointFormatError) as exc_info:
        restart_vm_with_fallback(get_platform(target), code, path, cfg)
    assert exc_info.value.section == section


# ---------------------------------------------------------------------------
# Deferred sections: the restore defers bytes, the drain verifies late
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", TARGETS)
def test_lazy_restart_defers_sections_then_verifies(target, tmp_path):
    """A lazy restart leaves the heap section unread/unverified; the
    drain completes the whole-file verification afterwards and the
    RESTART counters record both halves."""
    from repro.metrics import RESTART

    code = compile_source(MULTI_CHUNK_PROGRAM)
    path = str(tmp_path / "c.hckp")
    origin_out = _checkpoint(code, path, VMConfig(chunk_words=SMALL_CHUNKS))

    before = RESTART.as_dict()
    vm_l, st_l = restart_vm(
        get_platform(target), code, path,
        VMConfig(chunk_words=SMALL_CHUNKS, lazy_restore=True),
    )
    assert st_l.sections_deferred >= 1
    assert st_l.bytes_deferred > 0
    assert st_l.bytes_verified > 0
    moved = RESTART.delta_since(before)
    assert moved["lazy_restores"] == 1
    assert moved["bytes_deferred"] == st_l.bytes_deferred
    assert moved["late_verifications"] == 0

    out = vm_l.run(max_instructions=10_000_000)
    assert out.stdout == origin_out.stdout
    vm_l.finish_lazy_restore()
    moved = RESTART.delta_since(before)
    assert moved["late_verifications"] == 1
    assert moved["late_failures"] == 0


# ---------------------------------------------------------------------------
# Knob semantics
# ---------------------------------------------------------------------------


def test_lazy_env_knob():
    assert VMConfig.from_env({"CHKPT_LAZY": "1"}).lazy_restore
    assert not VMConfig.from_env({"CHKPT_LAZY": "off"}).lazy_restore
    assert not VMConfig.from_env({}).lazy_restore
