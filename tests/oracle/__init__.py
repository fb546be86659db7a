"""The word-at-a-time checkpoint/restart: the differential oracle.

The algorithm of the paper's Figures 6 and 7 written the obvious way —
one Python int at a time, blocks placed by calling the real allocator —
as it ran in ``src/`` behind ``--no-vectorize`` until the numpy kernels
became the only production path.  Tests compare production against it
bit for bit; nothing under ``src/`` imports it.  Whatever is not a
per-word loop is shared with ``repro.checkpoint.reader``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.checkpoint import reader
from repro.checkpoint.convert import ValueConverter
from repro.checkpoint.format import read_checkpoint, serialize_snapshot
from repro.checkpoint.relocate import AddressMapper
from repro.checkpoint.writer import build_snapshot
from repro.errors import RestartError
from repro.memory.blocks import Color, DOUBLE_TAG, HeaderCodec, STRING_TAG
from repro.memory.floats import FloatCodec
from repro.memory.layout import AreaKind, MemoryArea
from repro.memory.strings import StringCodec
from repro.vm import VirtualMachine

def _area_words(area) -> list[int]:
    staged = area.peek_staged()
    if staged is not None:
        return [int(w) for w in staged]
    return list(area.words)


def fingerprint(vm: VirtualMachine, header_maps: bool = False) -> dict:
    """Everything restart rebuilds, as plain comparable data.

    ``header_maps`` adds each chunk's header map: comparable between
    two production restores only (the oracle's same-word-size path
    leaves them to the discovery walk).
    """
    heap = vm.mem.heap
    threads = {}
    for tid in sorted(vm.sched.threads):
        t = vm.sched.threads[tid]
        threads[tid] = (
            t.state.value,
            t.block_kind.value,
            t.blocked_on,
            t.pending_mutex,
            t.result,
            t.accu,
            t.env,
            t.pc,
            t.extra_args,
            t.trapsp,
            t.stack.sp,
            t.stack.n_words,
            list(t.stack.used_slice()),
        )
    interp = vm.interp
    return {
        "chunks": [(c.base, _area_words(c.area)) for c in heap.chunks],
        "header_maps": [
            bytes(c.header_map) for c in heap.chunks
        ] if header_maps else None,
        "freelist_head": heap.freelist_head,
        "allocated_words": heap.allocated_words,
        "global_data": vm.global_data,
        "cglobals": list(
            vm.mem.cglobals.area.words[: vm.mem.cglobals.used_words]
        ),
        "cglobal_roots": list(vm.mem.cglobals.root_indices),
        "threads": threads,
        "current": vm.sched.current.tid,
        "registers": (
            interp.accu, interp.env, interp.pc, interp.extra_args,
            interp.trapsp,
        ),
        "multithreaded": vm.sched.ever_multithreaded,
    }


def write_checkpoint(vm, path: str) -> None:
    """Stand-in for ``vm.perform_checkpoint``: every chunk copied as a
    Python list at the safe point, serialized without an index."""
    snap = build_snapshot(vm)
    snap.heap_chunks = [(c.base, list(c.area.words)) for c in vm.mem.heap.chunks]
    snap._chunk_positions = None
    with open(path, "wb") as f:
        f.write(serialize_snapshot(snap))
    vm.checkpoints_taken += 1


def restamp(path_in: str, path_out: str, version: int) -> None:
    """Re-serialize a checkpoint as format ``version``: byte for byte
    the file the retired ``--format`` writer emitted."""
    snap = read_checkpoint(path_in)
    snap.header = dataclasses.replace(snap.header, format_version=version)
    with open(path_out, "wb") as f:
        f.write(serialize_snapshot(snap))


def restart_vm(platform, code, path, config=None) -> VirtualMachine:
    """Restore a VM on ``platform`` from ``path``: eager, word by word."""
    snap = reader.load_snapshot_chain(path)
    snap.heap_chunks = [(b, ws.tolist()) for b, ws in snap.heap_chunks]
    converter = ValueConverter(snap.arch, platform.arch)
    vm = VirtualMachine(platform, code, config=config, boot=False)
    vm.gc.disabled = True
    try:
        relocation = None
        if converter.word_size_differs:
            table = _rebuild_heap(vm, snap, converter)
            relocation = tuple(
                np.asarray(list(column), dtype=np.uint64)
                for column in (table.keys(), table.values())
            )
        else:
            _restore_heap_chunks(vm, snap)
        reader._restore_threads_raw(vm, snap)
        mapper = AddressMapper(snap, vm, relocation)
        fix = reader._value_fixer(vm, mapper, converter)
        if converter.word_size_differs:
            _fix_rebuilt_heap(vm, table, fix)
            vm.mem.heap.rebuild_freelist()
        else:
            _fix_heap_pointers(vm, mapper)
            if converter.endian_differs:
                _repack_heap_payloads(vm, converter)
            head = snap.freelist_head
            vm.mem.heap.freelist_head = mapper.map(head) or 0 if head else 0
        vm.global_data = mapper.map(snap.global_data)
        reader._restore_cglobals(vm, snap, fix, converter)
        for rec in snap.threads:
            stack = vm.sched.threads[rec.tid].stack
            first = (stack.sp - stack.area.base) // vm.mem.arch.word_bytes
            words = stack.area.words
            for k in range(first, len(words)):
                words[k] = fix(words[k])
        reader._fix_thread_registers(vm, snap, mapper, fix)
        reader._restore_current(vm, snap, mapper)
        vm.channels.restore(snap.channels)
    finally:
        vm.gc.disabled = False
    vm.restarted = True
    vm.mem.heap.allocated_words = 0
    if snap.header.multithreaded:
        vm.sched.ever_multithreaded = True
    return vm


def repack_string(converter: ValueConverter, words: list[int]) -> list[int]:
    """Re-pack a string payload: the byte *sequence* is the invariant."""
    return StringCodec(converter.dst).encode(
        StringCodec(converter.src).decode(words)
    )


def repack_double(converter: ValueConverter, words: list[int]) -> list[int]:
    """Re-encode an IEEE double payload for the target architecture."""
    return FloatCodec(converter.dst).encode(
        FloatCodec(converter.src).decode(words)
    )


def _restore_heap_chunks(vm, snap) -> None:
    """Same-word-size path: re-instantiate chunks with the saved image,
    block layout and freelist links verbatim."""
    layout = vm.platform.layout
    arch = vm.platform.arch
    for slot, (src_base, words) in enumerate(snap.heap_chunks):
        base = layout.heap_base + slot * layout.chunk_stride
        if len(words) * arch.word_bytes > layout.chunk_stride:
            raise RestartError("checkpointed chunk exceeds platform stride")
        area = MemoryArea(
            AreaKind.HEAP_CHUNK, base, len(words), arch,
            label=f"heap-chunk-{slot}",
        )
        area.words = list(words)
        vm.mem.heap.adopt_chunk(area)


def _fix_heap_pointers(vm, mapper: AddressMapper) -> None:
    """Paper Figure 7: walk every chunk, fix pointers in scannable
    blocks and freelist links in BLUE blocks, whiten GRAY/BLACK headers."""
    mem = vm.mem
    headers = mem.headers
    values = mem.values
    for chunk in mem.heap.chunks:
        words = chunk.area.words
        i = 0
        n = len(words)
        while i < n:
            hd = words[i]
            size = headers.size(hd)
            color = headers.color(hd)
            tag = headers.tag(hd)
            if color is Color.BLUE:
                if size >= 1:
                    link = words[i + 1]
                    if link:
                        words[i + 1] = mapper.map(link) or 0
            else:
                if color in (Color.GRAY, Color.BLACK):
                    words[i] = headers.with_color(hd, Color.WHITE)
                if tag < 251:  # No_scan_tag
                    for j in range(i + 1, i + 1 + size):
                        w = words[j]
                        if values.is_block(w):
                            mapped = mapper.map(w)
                            if mapped is not None:
                                words[j] = mapped
            i += 1 + size


def _repack_heap_payloads(vm, converter: ValueConverter) -> None:
    """Endianness-only conversion of the byte-oriented payloads."""
    mem = vm.mem
    headers = mem.headers
    for chunk in mem.heap.chunks:
        words = chunk.area.words
        i = 0
        n = len(words)
        while i < n:
            hd = words[i]
            size = headers.size(hd)
            if headers.color(hd) is not Color.BLUE:
                tag = headers.tag(hd)
                if tag == STRING_TAG:
                    words[i + 1 : i + 1 + size] = repack_string(
                        converter, words[i + 1 : i + 1 + size]
                    )
                elif tag == DOUBLE_TAG:
                    words[i + 1 : i + 1 + size] = repack_double(
                        converter, words[i + 1 : i + 1 + size]
                    )
            i += 1 + size


def _rebuild_heap(vm, snap, converter: ValueConverter) -> dict[int, int]:
    """Cross-word-size path: re-encode every non-free block through the
    target allocator; returns old block pointer -> new block pointer."""
    src_arch = snap.arch
    src_headers = HeaderCodec(src_arch)
    src_wb = src_arch.word_bytes
    relocation: dict[int, int] = {}
    heap = vm.mem.heap
    for src_base, words in snap.heap_chunks:
        i = 0
        n = len(words)
        while i < n:
            hd = words[i]
            size = src_headers.size(hd)
            color = src_headers.color(hd)
            tag = src_headers.tag(hd)
            src_block = src_base + (i + 1) * src_wb
            if color is not Color.BLUE and size > 0:
                payload = words[i + 1 : i + 1 + size]
                if tag == STRING_TAG:
                    new_payload = repack_string(converter, payload)
                elif tag == DOUBLE_TAG:
                    new_payload = repack_double(converter, payload)
                elif tag >= 251:  # opaque no-scan data
                    new_payload = [converter.convert_raw(w) for w in payload]
                else:
                    # Scannable: copy raw now, fix in the second pass.
                    new_payload = list(payload)
                block = heap.alloc(len(new_payload), tag, Color.WHITE)
                for j, w in enumerate(new_payload):
                    heap.set_field(block, j, w)
                relocation[src_block] = block
            i += 1 + size
    return relocation


def _fix_rebuilt_heap(vm, relocation: dict[int, int], fix) -> None:
    """Second pass over rebuilt scannable blocks: convert every field."""
    mem = vm.mem
    headers = mem.headers
    for block in relocation.values():
        hd = mem.header_of(block)
        if headers.tag(hd) < 251:
            size = headers.size(hd)
            for j in range(size):
                mem.heap.set_field(block, j, fix(mem.heap.field(block, j)))
