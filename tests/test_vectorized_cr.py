"""Differential tests: production C/R == the word-at-a-time oracle.

The production paths (numpy kernels for checkpoint heap save, restart
pointer fixing and the 32<->64 heap rebuild) must be *exactly*
interchangeable with the scalar implementation kept under
``tests/oracle``:

* both writers capture the same VM state (identical decoded snapshots),
* both readers rebuild the same VM state (identical restored-memory
  fingerprints) from either writer's file,
* restarted runs produce identical output either way,
* format-v1 files (no block-extent index) restore correctly on every
  simulated platform pair — the index is an accelerator, never a
  requirement.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    VirtualMachine,
    VMConfig,
    compile_source,
    get_platform,
    restart_vm,
)
from repro.arch.codec import WordCodec
from repro.checkpoint.convert import ValueConverter
from repro.checkpoint.format import read_checkpoint
from repro.memory.strings import StringCodec
from tests import oracle

PLATFORM_NAMES = ["rodrigo", "csd", "sp2148", "ultra64"]
ARCHES = {name: get_platform(name).arch for name in PLATFORM_NAMES}

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


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


restored_fingerprint = oracle.fingerprint


def checkpointed_run(code, origin: str, path: str, scalar: bool = False):
    vm = VirtualMachine(
        get_platform(origin),
        code,
        VMConfig(chkpt_filename=path, chkpt_mode="blocking"),
    )
    if scalar:
        vm.perform_checkpoint = functools.partial(
            oracle.write_checkpoint, vm, path
        )
    result = vm.run(max_instructions=5_000_000)
    assert result.status == "stopped"
    assert vm.checkpoints_taken == 1
    return result


def snapshot_facts(path: str):
    """The decoded content of a checkpoint file (index excluded)."""
    snap = read_checkpoint(path)
    return {
        "header": dataclasses.replace(snap.header),
        "boundaries": snap.boundaries,
        "freelist_head": snap.freelist_head,
        "global_data": snap.global_data,
        "allocated_words": snap.allocated_words,
        "heap_chunks": [(b, w.tolist()) for b, w in snap.heap_chunks],
        "atom_words": list(snap.atom_words),
        "cglobal_words": list(snap.cglobal_words),
        "cglobal_roots": list(snap.cglobal_roots),
        "threads": [
            dataclasses.replace(t, stack_words=t.stack_words.tolist())
            for t in snap.threads
        ],
        "channels": snap.channels,
    }


# ---------------------------------------------------------------------------
# Writer equivalence: both paths save the same state
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("origin", PLATFORM_NAMES)
def test_writers_capture_identical_snapshots(origin, tmp_path):
    code = compile_source(PROGRAM)
    pv = str(tmp_path / "vec.hckp")
    ps = str(tmp_path / "scl.hckp")
    out_v = checkpointed_run(code, origin, pv)
    out_s = checkpointed_run(code, origin, ps, scalar=True)
    assert out_v.stdout == out_s.stdout
    assert snapshot_facts(pv) == snapshot_facts(ps)
    # Only the production writer emits the block-extent index.
    assert read_checkpoint(pv).chunk_index is not None
    assert read_checkpoint(ps).chunk_index is None


# ---------------------------------------------------------------------------
# Reader equivalence + v1 compatibility, every platform pair
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("origin", PLATFORM_NAMES)
@pytest.mark.parametrize("target", PLATFORM_NAMES)
def test_restore_paths_and_v1_files_agree(origin, target, tmp_path):
    code = compile_source(PROGRAM)
    path = str(tmp_path / "v2.hckp")
    path_v1 = str(tmp_path / "v1.hckp")
    origin_out = checkpointed_run(code, origin, path)
    oracle.restamp(path, path_v1, version=1)
    assert read_checkpoint(path_v1).header.format_version == 1

    tp = get_platform(target)
    vm_vec, _ = restart_vm(tp, code, path)
    vm_scl = oracle.restart_vm(tp, code, path)
    # v1 file through the production reader: no index, so the block
    # discovery walk feeds the same kernels.
    vm_v1, _ = restart_vm(tp, code, path_v1)
    vm_v1_scl = oracle.restart_vm(tp, code, path_v1)

    fp = restored_fingerprint(vm_vec)
    assert fp == restored_fingerprint(vm_scl)
    assert fp == restored_fingerprint(vm_v1)
    assert fp == restored_fingerprint(vm_v1_scl)

    for vm in (vm_vec, vm_scl, vm_v1, vm_v1_scl):
        vm.mem.heap.check_integrity()
        out = vm.run(max_instructions=5_000_000)
        assert out.status == "stopped"
        assert out.stdout == origin_out.stdout


# ---------------------------------------------------------------------------
# Random programs: the property-based differential
# ---------------------------------------------------------------------------

STATEMENTS = [
    "r := !r + {k}",
    "arr.({i}) <- !r + arr.({j})",
    "lst := {k} :: !lst",
    "fl := !fl *. 1.5",
    "s := !s ^ \"{c}\"",
    "if !r mod 2 = 0 then r := !r + 1 else arr.(0) <- arr.(0) + 1",
    "for q = 1 to {i} + 1 do r := !r + q done",
]

PRELUDE = """
let r = ref 0;;
let arr = Array.make 8 0;;
let lst = ref [];;
let fl = ref 1.5;;
let s = ref "a";;
"""

DIGEST = """
let rec suml l = match l with [] -> 0 | h :: t -> h + suml t;;
print_int (!r + suml !lst + arr.(0));;
print_string (" " ^ !s ^ " ");;
print_float !fl
"""


@st.composite
def random_case(draw):
    n = draw(st.integers(2, 8))
    stmts = []
    for _ in range(n):
        template = draw(st.sampled_from(STATEMENTS))
        stmts.append(
            template.format(
                k=draw(st.integers(-50, 50)),
                i=draw(st.integers(0, 7)),
                j=draw(st.integers(0, 7)),
                c=draw(st.sampled_from("xyz")),
            )
        )
    cut = draw(st.integers(0, n))
    body = ";;\n".join(stmts[:cut] + ["checkpoint ()"] + stmts[cut:])
    origin = draw(st.sampled_from(PLATFORM_NAMES))
    target = draw(st.sampled_from(PLATFORM_NAMES))
    return PRELUDE + body + ";;\n" + DIGEST, origin, target


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(random_case())
def test_vectorized_equals_scalar_on_random_programs(
    tmp_path_factory, case
):
    src, origin, target = case
    tmp = tmp_path_factory.mktemp("diff")
    pv = str(tmp / "vec.hckp")
    ps = str(tmp / "scl.hckp")
    code = compile_source(src)

    out_v = checkpointed_run(code, origin, pv)
    out_s = checkpointed_run(code, origin, ps, scalar=True)
    assert out_v.stdout == out_s.stdout
    assert snapshot_facts(pv) == snapshot_facts(ps)

    tp = get_platform(target)
    # Cross the files and the reader paths.
    vm_vv, _ = restart_vm(tp, code, pv)
    vm_vs = oracle.restart_vm(tp, code, pv)
    vm_sv, _ = restart_vm(tp, code, ps)

    fp = restored_fingerprint(vm_vv)
    assert fp == restored_fingerprint(vm_vs)
    assert fp == restored_fingerprint(vm_sv)
    for vm in (vm_vv, vm_vs, vm_sv):
        out = vm.run(max_instructions=5_000_000)
        assert out.status == "stopped"
        assert out.stdout == out_v.stdout


# ---------------------------------------------------------------------------
# Converter kernels: batch == scalar
# ---------------------------------------------------------------------------

ARCH_PAIRS = [
    (a, b) for a in PLATFORM_NAMES for b in PLATFORM_NAMES
]


@settings(max_examples=60, deadline=None)
@given(
    pair=st.sampled_from(ARCH_PAIRS),
    words=st.lists(st.integers(0, 2**32 - 1), max_size=64),
)
def test_convert_raw_batch_equals_scalar(pair, words):
    vc = ValueConverter(ARCHES[pair[0]], ARCHES[pair[1]])
    expected = [vc.convert_raw(w) for w in words]
    arr = np.asarray(words, dtype=np.uint64)
    assert vc.convert_raw_array(arr).tolist() == expected


@settings(max_examples=60, deadline=None)
@given(
    pair=st.sampled_from(ARCH_PAIRS),
    words=st.lists(
        st.integers(0, 2**31 - 1).map(lambda v: v * 2 + 1), max_size=64
    ),
)
def test_convert_immediate_batch_equals_scalar(pair, words):
    vc = ValueConverter(ARCHES[pair[0]], ARCHES[pair[1]])
    expected = [vc.convert_immediate(w) for w in words]
    arr = np.asarray(words, dtype=np.uint64)
    assert vc.convert_immediate_array(arr).tolist() == expected


@settings(max_examples=60, deadline=None)
@given(
    pair=st.sampled_from(ARCH_PAIRS),
    data=st.binary(max_size=40),
)
def test_repack_string_batch_equals_scalar(pair, data):
    src, dst = ARCHES[pair[0]], ARCHES[pair[1]]
    vc = ValueConverter(src, dst)
    words = StringCodec(src).encode(data)
    expected = oracle.repack_string(vc, words)
    # The array kernel's contract is same-word-size (an endian swap in
    # place); cross-word-size repacks go through the batch kernel.
    arr = np.asarray(words, dtype=np.uint64)
    if src.word_bytes == dst.word_bytes:
        assert vc.repack_string_array(arr).tolist() == expected
    else:
        sizes = np.asarray([len(words)], dtype=np.int64)
        assert vc.repack_string_batch(arr, sizes).tolist() == expected
    assert StringCodec(dst).decode(expected) == data


@settings(max_examples=60, deadline=None)
@given(
    pair=st.sampled_from(ARCH_PAIRS),
    pattern=st.integers(0, 2**64 - 1),
)
def test_repack_double_batch_equals_scalar(pair, pattern):
    src, dst = ARCHES[pair[0]], ARCHES[pair[1]]
    # Build the double's source-machine words from its 64-bit pattern.
    identity = ValueConverter(src, src)
    words = [
        int(w)
        for w in identity.double_words_from_patterns(
            np.asarray([pattern], dtype=np.uint64)
        )
    ]
    vc = ValueConverter(src, dst)
    expected = oracle.repack_double(vc, words)
    if src.word_bytes == dst.word_bytes:
        arr = np.asarray(words, dtype=np.uint64)
        assert vc.repack_double_array(arr).tolist() == expected
    # Cross-size: the pattern must survive the scalar repack.
    back = ValueConverter(dst, dst).double_pattern_array(
        np.asarray(expected, dtype=np.uint64)
    )
    assert int(back[0]) == pattern


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(PLATFORM_NAMES),
    words=st.lists(st.integers(0, 2**32 - 1), max_size=64),
)
def test_word_codec_array_roundtrip_equals_scalar(name, words):
    codec = WordCodec(ARCHES[name])
    data = codec.encode(words)
    assert codec.encode_array(np.asarray(words, dtype=np.uint64)) == data
    assert codec.decode(data) == words
    assert codec.decode_array(data).tolist() == words
