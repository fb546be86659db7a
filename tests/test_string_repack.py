"""Cross-word-size restart kernels: batch string repack, placement
replay, and the rebuilt heap against the scalar oracle.

* the batch kernel (``ValueConverter.repack_string_batch``) equals the
  per-block scalar ``oracle.repack_string`` on every cross-word-size
  pairing,
* the cumulative-sum placement replay equals ``Heap.alloc``,
* a heap of every string length 0..17, boxed floats, word arrays and a
  freelist hole rebuilds to the scalar oracle's chunk images, eager and
  after a full lazy drain, in both directions,
* a CRC-valid file whose STRING block carries an impossible pad byte
  is a typed :class:`CheckpointFormatError` that the generation
  fallback walks past.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    VirtualMachine,
    VMConfig,
    compile_source,
    get_platform,
    restart_vm,
)
from repro.checkpoint.convert import ValueConverter
from repro.checkpoint.format import read_checkpoint, serialize_snapshot
from repro.checkpoint.reader import (
    _simulate_first_fit,
    restart_vm_with_fallback,
)
from repro.errors import CheckpointFormatError
from repro.memory.blocks import STRING_TAG, Color
from repro.memory.heap import Heap
from repro.memory.layout import AddressSpace
from repro.memory.strings import StringCodec
from tests import oracle
from tests.test_vectorized_cr import ARCHES, PLATFORM_NAMES

#: The 8 ordered pairs whose word sizes differ.
CROSS_SIZE_PAIRS = [
    (a, b)
    for a in PLATFORM_NAMES
    for b in PLATFORM_NAMES
    if ARCHES[a].bits != ARCHES[b].bits
]


# ---------------------------------------------------------------------------
# (a) batch kernel == scalar repack, block by block
# ---------------------------------------------------------------------------

#: Lengths 0 and every ``len % 8`` residue, one and several words deep.
_LENGTHS = st.sampled_from(list(range(0, 18)) + [23, 24, 31, 32, 255])
_BYTES = st.sampled_from([0x00, 0xFF, 0x61, 0x80, 0x01])


@settings(max_examples=200, deadline=None)
@given(
    pair=st.sampled_from(CROSS_SIZE_PAIRS),
    batch=st.lists(
        _LENGTHS.flatmap(
            lambda n: st.lists(_BYTES, min_size=n, max_size=n).map(bytes)
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_string_batch_kernel_equals_scalar(pair, batch):
    src, dst = ARCHES[pair[0]], ARCHES[pair[1]]
    vc = ValueConverter(src, dst)
    blocks = [StringCodec(src).encode(data) for data in batch]
    words = np.asarray([w for b in blocks for w in b], dtype=np.uint64)
    sizes = np.asarray([len(b) for b in blocks], dtype=np.int64)
    out = vc.repack_string_batch(words, sizes).tolist()
    expected = [oracle.repack_string(vc, b) for b in blocks]
    assert out == [w for e in expected for w in e]
    # ... and the bytes survive.
    at = 0
    for data, e in zip(batch, expected):
        assert StringCodec(dst).decode(out[at : at + len(e)]) == data
        at += len(e)


@pytest.mark.parametrize("pair", CROSS_SIZE_PAIRS)
def test_string_batch_kernel_rejects_impossible_pad(pair):
    src, dst = ARCHES[pair[0]], ARCHES[pair[1]]
    vc = ValueConverter(src, dst)
    good = StringCodec(src).encode(b"fine")
    bad = StringCodec(src).encode(b"broken!")
    bad[-1] = src.set_byte_of_word(bad[-1], src.word_bytes - 1, 0xFF)
    words = np.asarray(good + bad, dtype=np.uint64)
    sizes = np.asarray([len(good), len(bad)], dtype=np.int64)
    with pytest.raises(CheckpointFormatError, match="pad byte 255"):
        vc.repack_string_batch(words, sizes)


# ---------------------------------------------------------------------------
# Placement replay == the allocator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("platform", ["rodrigo", "sp2148"])
@pytest.mark.parametrize("seed", range(6))
def test_placement_replay_equals_heap_alloc(platform, seed):
    rng = random.Random(seed)
    plat = get_platform(platform)
    arch, layout = plat.arch, plat.layout
    page = 4096 // arch.word_bytes
    chunk_words = rng.choice([64, page, 4 * page])

    def fresh():
        return Heap(
            AddressSpace(arch), arch, layout.heap_base, layout.chunk_stride,
            chunk_words=chunk_words,
        )

    # Small blocks, blocks that leave 0/1/2-word remnants of a page, and
    # blocks too big for the remnants earlier chunks keep on the list.
    menu = [1, 2, 3, 33, page - 3, page - 2, page - 1, page, 2 * page - 1]
    sizes = [rng.choice(menu) for _ in range(rng.randrange(1, 300))]
    real = fresh()
    expected = [real.alloc(w, 0, Color.WHITE) for w in sizes]
    blocks, chunks, freelist = _simulate_first_fit(
        fresh(), np.asarray(sizes, dtype=np.int64), arch.word_bytes
    )
    assert blocks.tolist() == expected
    assert chunks == [(c.base, c.n_words) for c in real.chunks]
    assert sorted(map(tuple, freelist)) == sorted(
        (b, real.headers.size(real.load_header(b)))
        for b in real.iter_freelist()
    )


# ---------------------------------------------------------------------------
# (b) rebuilt chunk images == scalar oracle
# ---------------------------------------------------------------------------

STRINGS_PROGRAM = """
let strs = ref [];;
let flts = ref [];;
let arrs = ref [];;
let () =
  for i = 0 to 17 do
    let s = String.make i 'a' in
    begin
      (if i > 0 then s.[i - 1] <- 'z');
      strs := s :: !strs;
      flts := (float_of_int i *. 0.75) :: !flts;
      arrs := Array.make (40 * i + 1) (i - 9) :: !arrs
    end
  done;;
let hole = ref (Array.make 300 7);;
let _ = Gc.full_major ();;
hole := Array.make 1 0;;
let _ = Gc.full_major ();;
checkpoint ();;
let rec cat l = match l with [] -> "" | h :: t -> h ^ "|" ^ cat t;;
let rec sumf l = match l with [] -> 0.0 | h :: t -> h +. sumf t;;
let rec suma l = match l with [] -> 0 | h :: t -> h.(0) + Array.length h + suma t;;
print_string (cat !strs);;
print_float (sumf !flts);;
print_string " ";;
print_int (suma !arrs)
"""

SMALL_CHUNKS = 1024


def _checkpoint(code, origin: str, path: str) -> bytes:
    vm = VirtualMachine(
        get_platform(origin),
        code,
        VMConfig(
            chkpt_filename=path, chkpt_mode="blocking",
            chunk_words=SMALL_CHUNKS,
        ),
    )
    result = vm.run()
    assert result.status == "stopped" and vm.checkpoints_taken == 1
    return result.stdout


def _chunk_images(vm: VirtualMachine) -> list[tuple[int, list[int]]]:
    return [(c.base, list(c.area.words)) for c in vm.mem.heap.chunks]


@pytest.mark.parametrize(
    "origin,target",
    [
        ("rodrigo", "sp2148"),
        ("rodrigo", "ultra64"),
        ("ultra64", "rodrigo"),
        ("ultra64", "csd"),
    ],
)
def test_rebuilt_heap_equals_scalar_oracle(origin, target, tmp_path):
    code = compile_source(STRINGS_PROGRAM)
    path = str(tmp_path / "s.hckp")
    origin_out = _checkpoint(code, origin, path)
    # The checkpoint really holds a freelist hole and every string size.
    snap = read_checkpoint(path)
    blue = strings = 0
    for (_, words), (pos, _cls) in zip(snap.heap_chunks, snap.chunk_index):
        hds = words[pos.astype(np.int64)]
        blue += int((((hds >> np.uint64(8)) & np.uint64(3)) == 2).sum())
        strings += int(((hds & np.uint64(0xFF)) == STRING_TAG).sum())
    assert blue >= 2 and strings >= 18

    plat = get_platform(target)
    restored = {}
    vm = oracle.restart_vm(
        plat, code, path, VMConfig(chunk_words=SMALL_CHUNKS)
    )
    restored["oracle"] = (vm, _chunk_images(vm), vm.mem.heap.freelist_head)
    for label, cfg in (
        ("eager", VMConfig(chunk_words=SMALL_CHUNKS)),
        ("lazy", VMConfig(lazy_restore=True, chunk_words=SMALL_CHUNKS)),
    ):
        vm, stats = restart_vm(plat, code, path, cfg)
        assert stats.converted_word_size
        if label == "lazy":
            assert vm.lazy_restore.pending >= 2
            vm.lazy_restore.finish()
            assert vm.lazy_restore.pending == 0
        restored[label] = (vm, _chunk_images(vm), vm.mem.heap.freelist_head)
    _, oracle_chunks, oracle_head = restored["oracle"]
    assert len(oracle_chunks) >= 2
    for label in ("eager", "lazy"):
        vm, chunks, head = restored[label]
        assert chunks == oracle_chunks, label
        assert head == oracle_head, label
        out = vm.run()
        assert out.status == "stopped"
        assert origin_out.endswith(out.stdout) and out.stdout


# ---------------------------------------------------------------------------
# (c) damaged string padding: typed error, generation fallback
# ---------------------------------------------------------------------------

PAD_PROGRAM = """
let s = String.make 201 'q';;
let n = ref 0;;
checkpoint ();;
n := !n + String.length s;;
checkpoint ();;
print_int !n
"""


def _corrupt_string_pad(path: str) -> int:
    """Give the 201-byte string's block pad byte 0xFF, re-sealing every
    checksum; returns the block's source address."""
    snap = read_checkpoint(path)
    arch = snap.arch
    wb = arch.word_bytes
    want = 201 // wb + 1
    for (base, words), (pos, _cls) in zip(snap.heap_chunks, snap.chunk_index):
        p = pos.astype(np.int64)
        hds = words[p]
        hit = np.flatnonzero(
            ((hds & np.uint64(0xFF)) == STRING_TAG)
            & ((hds >> np.uint64(10)) == want)
            & (((hds >> np.uint64(8)) & np.uint64(3)) != 2)
        )
        if hit.size:
            i = int(p[hit[0]])
            words[i + want] = arch.set_byte_of_word(
                int(words[i + want]), wb - 1, 0xFF
            )
            with open(path, "wb") as f:
                f.write(serialize_snapshot(snap))
            return base + (i + 1) * wb
    raise AssertionError("no 201-byte string block in the checkpoint")


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("target", ["sp2148", "ultra64"])
def test_corrupt_string_pad_is_typed_and_falls_back(target, lazy, tmp_path):
    code = compile_source(PAD_PROGRAM)
    path = str(tmp_path / "p.hckp")
    vm = VirtualMachine(
        get_platform("rodrigo"),
        code,
        VMConfig(chkpt_filename=path, chkpt_mode="blocking", chkpt_retain=1),
    )
    assert vm.run().stdout == b"201"
    assert vm.checkpoints_taken == 2
    addr = _corrupt_string_pad(path)
    read_checkpoint(path)  # every checksum still holds

    cfg = VMConfig(lazy_restore=lazy, chkpt_state="disable")
    with pytest.raises(CheckpointFormatError) as exc_info:
        restart_vm(get_platform(target), code, path, cfg)
    err = exc_info.value
    assert f"{addr:#x}" in str(err) and "pad byte 255" in str(err)
    assert err.section == "heap" and err.path == path

    vm2, stats = restart_vm_with_fallback(
        get_platform(target), code, path, cfg
    )
    assert stats.restored_path == path + ".1"
    assert [f["error_type"] for f in stats.fallback_failures] == [
        "CheckpointFormatError"
    ]
    assert vm2.run().stdout == b"201"
