"""Stop-the-world heap compaction (OCaml's ``Gc.compact``).

Slides every live block into a minimal set of fresh chunks and fixes
all pointers — the same classify-and-relocate machinery the restart
path uses for cross-word-size checkpoints, applied within one VM.  Its
practical payoff here is the paper's file-size concern: a compacted
heap dumps into a smaller checkpoint (see the A5 ablation benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.memory.blocks import Color
from repro.memory.heap import Heap

if TYPE_CHECKING:  # pragma: no cover
    from repro.gc.controller import GCController


@dataclass(frozen=True)
class CompactionStats:
    """Before/after sizes of one compaction."""

    words_before: int
    words_after: int
    chunks_before: int
    chunks_after: int
    blocks_moved: int


def compact(gc: "GCController") -> CompactionStats:
    """Compact the major heap; returns the stats.

    Runs a full major collection first, so liveness is exact; the young
    generation is empty afterwards, which also guarantees the reference
    table is empty and no young-to-old pointers complicate the move.
    """
    if gc.disabled:
        raise RuntimeError("cannot compact while GC is disabled")
    gc.full_major()
    mem = gc.mem
    heap = mem.heap
    headers = mem.headers
    values = mem.values
    wb = mem.arch.word_bytes

    words_before = heap.total_words()
    chunks_before = len(heap.chunks)

    # 1. Snapshot the live blocks (payload copied out of the old chunks).
    live: list[tuple[int, int, int, list[int]]] = []  # (old_ptr, tag, size, payload)
    for chunk in heap.chunks:
        words = chunk.area.words
        i = 0
        n = len(words)
        while i < n:
            hd = words[i]
            size = headers.size(hd)
            color = headers.color(hd)
            if color is not Color.BLUE and size > 0:
                old_ptr = chunk.base + (i + 1) * wb
                live.append(
                    (old_ptr, headers.tag(hd), size, words[i + 1 : i + 1 + size])
                )
            i += 1 + size

    # 2. Replace the heap with a fresh one and re-allocate densely.
    for chunk in list(heap.chunks):
        mem.space.unmap(chunk.area)
    new_heap = Heap(
        mem.space,
        mem.arch,
        heap._heap_base,
        heap._chunk_stride,
        chunk_words=heap.chunk_words,
    )
    # Keep dirty-region tracking attached: the fresh chunks mark
    # themselves fully dirty as they are added, and stale regions of
    # now-unmapped chunks are clipped away at capture time.
    new_heap.dirty_regions = heap.dirty_regions
    new_heap.dirty_shift = heap.dirty_shift
    mem.heap = new_heap
    relocation: dict[int, int] = {}
    for old_ptr, tag, size, payload in live:
        block = new_heap.alloc(size, tag, Color.WHITE)
        for j, w in enumerate(payload):
            new_heap.set_field(block, j, w)
        relocation[old_ptr] = block

    # 3. Fix pointers: every root, then every field of every scannable
    #    block (pointers to non-heap areas pass through untouched).
    def fix(v: int) -> int:
        if values.is_block(v):
            return relocation.get(v, v)
        return v

    for slot in gc.roots.iter_roots():
        v = slot.load()
        nv = fix(v)
        if nv != v:
            slot.store(nv)
    for block in relocation.values():
        hd = new_heap.load_header(block)
        if headers.scannable(hd):
            for j in range(headers.size(hd)):
                new_heap.set_field(block, j, fix(new_heap.field(block, j)))

    return CompactionStats(
        words_before=words_before,
        words_after=new_heap.total_words(),
        chunks_before=chunks_before,
        chunks_after=len(new_heap.chunks),
        blocks_moved=len(live),
    )
