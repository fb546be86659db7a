"""The resident image: folding a generation into a restored VM in place.

An eager restore leaves a :class:`ResidentImage` behind (``RestartStats
.image``) for a caller that keeps the VM warm instead of running it —
the warm standby.  A later generation that keeps the block layout folds
into that VM in place at a cost proportional to what it carries, and
leaves the VM word for word what a cold restore of the same chain
builds.  The image keeps no saved copy of the heap:

* a delta's dirty words convert one by one, straight from the delta:
  immediates and pointers are per word at any word size, as are string
  and double words at equal word sizes;
* across word sizes a string or a double it touched re-converts whole:
  its saved words are recovered from the resident VM's own converted
  words by the inverse conversion (a string's bytes and a double's bit
  pattern are what both representations share), the dirty words are
  spliced in, and the restore's own converter runs on the result;
* a full goes through the restore's own per-chunk converter, one saved
  chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.arch.architecture import Architecture
from repro.checkpoint.convert import ValueConverter, ragged_indices
from repro.checkpoint.format import (
    VMSnapshot,
    check_delta_parent,
    check_delta_region,
)
from repro.checkpoint.reader import (
    _ChunkConverter,
    _RebuildContext,
    _gather_words,
    _rebuilt_fields,
    _restore_roots,
    _restore_threads_raw,
)
from repro.checkpoint.schema import ChunkSlice, SnapshotSource
from repro.errors import CheckpointFormatError, RestartError
from repro.memory.blocks import Color, DOUBLE_TAG, NO_SCAN_TAG, STRING_TAG
from repro.memory.layout import AreaKind
from repro.metrics import INTEGRITY
from repro.vm import VirtualMachine


def _same_block_shape(new: np.ndarray, old: np.ndarray) -> bool:
    """Whether rewritten headers kept size, tag and blue-ness (a GC
    color that moved between white, gray and black moves no block)."""
    blue = np.uint64(Color.BLUE.value)
    return bool(
        (((new ^ old) & ~np.uint64(0x300)) == 0).all()
        and (
            (((new >> np.uint64(8)) & np.uint64(3)) == blue)
            == (((old >> np.uint64(8)) & np.uint64(3)) == blue)
        ).all()
    )


def read_generation(data, digests=None) -> VMSnapshot:
    """Verify one generation file held in memory — every section CRC,
    the body SHA-256 and the end CRC — and parse it, a full's heap left
    as chunk slices over ``data`` (decoded by whoever converts it).
    ``digests`` is the :class:`~repro.checkpoint.schema.ImageDigest`
    that hashed ``data`` as it arrived."""
    try:
        return SnapshotSource.from_bytes(data, digests=digests).resolve_all(
            defer_heap=True
        )
    except CheckpointFormatError:
        INTEGRITY.integrity_failures += 1
        raise


def _fold_chunk_words(
    conv: _ChunkConverter,
    words: np.ndarray,
    c: int,
    start: int,
    vals: np.ndarray,
) -> None:
    """Convert the run ``vals`` of saved chunk ``c`` (its words from
    ``start`` on) into the staged chunk ``words``, word by word, to what
    :meth:`_ChunkConverter.convert` makes of them.

    A header keeps its converted value (its block kept its shape); a
    free block's link and a scannable block's even words are pointers;
    across endiannesses a string word swaps its bytes and a 32-bit
    double's two words trade places; every other word stays as saved.
    """
    pos = conv.positions[c].astype(np.int64)
    idx = np.arange(start, start + vals.size, dtype=np.int64)
    head = pos[np.searchsorted(pos, idx, side="right") - 1]
    field = idx > head
    idx, head, vals = idx[field], head[field], vals[field]
    off = idx - head
    hds = words[head]
    colors = (hds >> np.uint64(8)) & np.uint64(3)
    tags = hds & np.uint64(0xFF)
    blue = colors == Color.BLUE.value
    out = vals.copy()
    link = blue & (off == 1) & (vals != 0)
    even = (vals & np.uint64(1)) == 0
    scan = ~blue & (tags < np.uint64(NO_SCAN_TAG)) & even
    ptr = link | scan
    if ptr.any():
        with conv.timer.kernel("map_many"):
            mapped, ok = conv.mapper.map_many(vals[ptr])
        unmapped = np.where(link[ptr], np.uint64(0), vals[ptr])
        out[ptr] = np.where(ok, mapped, unmapped)
    converter = conv.converter
    if converter.endian_differs:
        strs = ~blue & (tags == np.uint64(STRING_TAG))
        if strs.any():
            out[strs] = converter.repack_string_array(vals[strs])
        dbls = ~blue & (tags == np.uint64(DOUBLE_TAG))
        if converter.src.word_bytes == 4 and dbls.any():
            if ((hds[dbls] >> np.uint64(10)) % np.uint64(2)).any():
                raise CheckpointFormatError(
                    "a 32-bit double block of an odd word count",
                    section="heap",
                )
            idx[dbls] = head[dbls] + 1 + ((off[dbls] - 1) ^ 1)
    words[idx] = out


def _fold_rebuilt_words(
    ctx: _RebuildContext,
    staged: list,
    c: int,
    start: int,
    vals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert the run ``vals`` of saved chunk ``c`` (its words from
    ``start`` on) into the rebuilt chunks ``staged``, word by word, to
    what :meth:`_RebuildContext.convert` makes of them.

    Scannable fields and opaque words convert on their own; headers
    (which kept their shape) and free blocks (dropped by the rebuild)
    have nothing to take.  String and double words cannot: returns them
    as ``(live block numbers, payload offsets, words)`` to re-convert
    their blocks whole.
    """
    lo, hi = int(ctx.src_first[c]), int(ctx.src_first[c + 1])
    idx = np.arange(start, start + vals.size, dtype=np.int64)
    k = np.searchsorted(ctx.src_pos[lo:hi], idx, side="right") - 1
    inside = k >= 0
    k = lo + np.where(inside, k, 0)
    off = idx - ctx.src_pos[k]
    inside &= off < ctx.src_size[k]
    k, off, vals = k[inside], off[inside], vals[inside]
    tags = ctx.tags[k]
    whole = (tags == STRING_TAG) | (tags == DOUBLE_TAG)
    part = ~whole
    out = ctx.converter.convert_raw_array(vals[part])
    scan = tags[part] < NO_SCAN_TAG
    if scan.any():
        out[scan] = _rebuilt_fields(ctx, vals[part][scan])
    dst = ctx.dst_chunk[k[part]]
    at = ctx.dst_pos[k[part]] + off[part]
    for d in np.unique(dst).tolist():
        mine = dst == d
        staged[d][at[mine]] = out[mine]
    return k[whole], off[whole], vals[whole]


def _saved_payloads(
    ctx: _RebuildContext, staged: list, blocks: np.ndarray
) -> np.ndarray:
    """The saved payloads of the live string and double ``blocks``, back
    to back, recovered from their converted words in ``staged``: the
    inverse conversion, since a string keeps its bytes and a double its
    bit pattern in every representation (and a string's words beyond
    its bytes and pad count are never read)."""
    inverse = ValueConverter(ctx.converter.dst, ctx.converter.src)
    sizes = ctx.src_size[blocks]
    at = np.cumsum(sizes) - sizes
    out = np.empty(int(sizes.sum()), dtype=np.uint64)
    for tag in (STRING_TAG, DOUBLE_TAG):
        mine = np.flatnonzero(ctx.tags[blocks] == tag)
        if not mine.size:
            continue
        ks = blocks[mine]
        words = np.concatenate([
            staged[d][p : p + n] for d, p, n in zip(
                ctx.dst_chunk[ks].tolist(), ctx.dst_pos[ks].tolist(),
                ctx.dst_size[ks].tolist(),
            )
        ])
        if tag == STRING_TAG:
            words = inverse.repack_string_batch(words, ctx.dst_size[ks])
        else:
            words = inverse.double_words_from_patterns(
                inverse.double_pattern_array(words)
            )
        out[ragged_indices(at[mine], sizes[mine])] = words
    return out


@dataclass(repr=False, eq=False)
class ResidentImage:
    """What an eager restore knows that a later generation can reuse.

    The restored VM ``vm`` as long as nothing has run it or unstaged its
    heap, and the per-chunk converter the restore drained — the
    block-header positions, the value converter, the address mapper
    and (across word sizes) the rebuild tables.  Two operations:
    :meth:`fold_reason` decides whether a verified generation folds in
    place; :meth:`apply` folds it — a delta's dirty words converted one
    by one straight from the delta, a full's chunks converted whole by
    the restore's own converter, then the generation's non-heap state
    restored — leaving the VM word for word what a cold restore of the
    same chain builds.  It keeps no saved copy of the heap.
    """

    vm: VirtualMachine
    code_digest: bytes
    src_arch: Architecture
    #: Body SHA-256 of the generation the VM stands at (``None`` when
    #: its file recorded none): what the next delta must bind to.
    head_sha: Optional[bytes]
    #: ``(base, n_words)`` of every saved chunk.
    chunks: list
    #: The restore's per-chunk converter.
    conversion: _ChunkConverter | _RebuildContext

    @classmethod
    def after_restore(
        cls,
        vm: VirtualMachine,
        code_digest: bytes,
        snap: VMSnapshot,
        conversion: _ChunkConverter | _RebuildContext,
    ) -> "ResidentImage":
        """The image of an eager restore of ``snap`` that has drained
        ``conversion``: it keeps none of the saved chunks the restore
        converted from."""
        if isinstance(conversion, _RebuildContext):
            conversion.sources = None
        return cls(
            vm=vm,
            code_digest=code_digest,
            src_arch=snap.arch,
            head_sha=snap.body_sha256,
            chunks=[(base, len(ws)) for base, ws in snap.heap_chunks],
            conversion=conversion,
        )

    @property
    def rebuilt(self) -> bool:
        """Whether the restore rebuilt the heap (across word sizes)."""
        return isinstance(self.conversion, _RebuildContext)

    def _staged(self) -> Optional[list]:
        """The VM's heap chunk arrays, or None once any was unstaged."""
        arrs = [c.area.peek_staged() for c in self.vm.mem.heap.chunks]
        return None if any(a is None for a in arrs) else arrs

    def fold_reason(self, snap: VMSnapshot) -> str:
        """Whether the verified generation ``snap`` folds in place:
        ``""``, or why it needs a restore of its own ("layout",
        "unstaged").

        Every check a chain restore makes on this link beyond the
        file's own digests is made here: the code digest, a delta's
        parent binding against the held head and its region bounds.  A
        misbound generation raises the same typed
        :class:`~repro.errors.RestartError`.  The VM and the image stay
        as they are.
        """
        if snap.header.code_digest != self.code_digest:
            raise RestartError(
                "checkpoint was taken from a different program "
                "(digest mismatch)"
            )
        info = snap.delta
        if info is None:
            # A full folds like a delta that dirtied every word.
            geometry = [(base, len(ws)) for base, ws in snap.heap_chunks]
            runs = [[(0, ws)] for _, ws in snap.heap_chunks]
        else:
            check_delta_parent(info, self.head_sha)
            geometry = [(r.base, r.n_words) for r in info.chunks]
            runs = [r.regions for r in info.chunks]
        heap_areas = sorted(
            (a.base, a.n_words)
            for a in snap.boundaries
            if a.kind == AreaKind.HEAP_CHUNK.value
        )
        index = snap.chunk_index
        conv = self.conversion
        if (
            snap.arch != self.src_arch
            or geometry != self.chunks
            or heap_areas != sorted(self.chunks)
            or index is None
            or len(index) != len(conv.positions)
            or any(
                not np.array_equal(pos, held)
                for (pos, _), held in zip(index, conv.positions)
            )
            or {t.tid for t in snap.threads} != set(self.vm.sched.threads)
        ):
            return "layout"
        staged = self._staged()
        if staged is None:
            return "unstaged"
        for c, regions in enumerate(runs):
            for start, words in regions:
                check_delta_region(start, len(words), geometry[c][1])
                if not self._keeps_shape(c, start, words, staged):
                    return "layout"
        return ""

    def _keeps_shape(self, c: int, start: int, words, staged: list) -> bool:
        """Whether the run ``words`` of saved chunk ``c`` (from word
        ``start`` on) leaves every block it overlaps in place: the same
        size, tag and blue-ness, and across word sizes every string it
        rewrites the same word count."""
        conv = self.conversion
        pos = conv.positions[c]
        end = start + len(words)
        a, b = np.searchsorted(pos, start), np.searchsorted(pos, end)
        heads = pos[a:b].astype(np.int64)
        if self.rebuilt:
            held = conv.headers[c][a:b].astype(np.uint64)
        else:
            # A staged header is the saved one recolored: same shape.
            held = staged[c][heads]
        if not _same_block_shape(_gather_words(words, heads - start), held):
            return False
        if not self.rebuilt:
            return True
        lo, hi = int(conv.src_first[c]), int(conv.src_first[c + 1])
        strs = lo + np.flatnonzero(conv.tags[lo:hi] == STRING_TAG)
        last = conv.src_pos[strs] + conv.src_size[strs] - 1
        hit = (last >= start) & (last < end)
        strs, last = strs[hit], last[hit]
        if not strs.size:
            return True
        blen = conv.converter.string_byte_lengths(
            _gather_words(words, last - start),
            conv.src_size[strs],
            conv.relocation[0][strs],
        )
        dst_wb = conv.converter.dst.word_bytes
        return bool(np.array_equal(blen // dst_wb + 1, conv.dst_size[strs]))

    def apply(self, snap: VMSnapshot) -> None:
        """Fold a generation :meth:`fold_reason` passed into the VM.  A
        failure part-way leaves the VM torn: the caller restores its
        chain afresh."""
        vm = self.vm
        conv = self.conversion
        staged = self._staged()
        vm.gc.disabled = True
        try:
            for thread in vm.sched.threads.values():
                thread.stack.reset()
            _restore_threads_raw(vm, snap)
            conv.mapper.refresh(snap, vm.sched.threads)
            if snap.delta is None:
                self._fold_full(snap, staged)
            else:
                self._fold_delta(snap.delta, staged)
            _restore_roots(
                vm, snap, conv.mapper, conv.converter, conv.timer,
                cglobals=snap.delta is None or snap.delta.has_cglobals,
            )
        finally:
            vm.gc.disabled = False
        self.head_sha = snap.body_sha256

    def _fold_full(self, snap: VMSnapshot, staged: list) -> None:
        """Every chunk through the restore's converter, one saved chunk
        at a time."""
        conv = self.conversion
        sources = [ws for _, ws in snap.heap_chunks]
        if self.rebuilt:
            for d, words in enumerate(staged):
                conv.convert(d, words, sources=sources)
            return
        for c, ws in enumerate(sources):
            # The converter converts the words where they lie: the new
            # ones go in first.
            staged[c][:] = ws.stored() if isinstance(ws, ChunkSlice) else ws
            conv.convert(c, staged[c])

    def _fold_delta(self, info, staged: list) -> None:
        """Each dirty run word by word; across word sizes, the strings
        and doubles it touched re-convert whole."""
        conv = self.conversion
        if not self.rebuilt:
            for c, rec in enumerate(info.chunks):
                for start, words in rec.regions:
                    _fold_chunk_words(conv, staged[c], c, start, words)
            return
        spliced = [
            _fold_rebuilt_words(conv, staged, c, start, words)
            for c, rec in enumerate(info.chunks)
            for start, words in rec.regions
        ]
        if not spliced:
            return
        ks, offs, vals = (np.concatenate(parts) for parts in zip(*spliced))
        blocks = np.unique(ks)
        if not blocks.size:
            return
        payloads = _saved_payloads(conv, staged, blocks)
        sizes = conv.src_size[blocks]
        at = np.cumsum(sizes) - sizes
        payloads[at[np.searchsorted(blocks, ks)] + offs] = vals
        # The spliced payloads stand in for the saved chunks they are
        # from: one zeroed chunk each, holding just those blocks.
        sources: list = [None] * len(self.chunks)
        for c, (_base, n_words) in enumerate(self.chunks):
            mine = np.flatnonzero(
                (blocks >= conv.src_first[c])
                & (blocks < conv.src_first[c + 1])
            )
            if not mine.size:
                continue
            arr = np.zeros(n_words, dtype=np.uint64)
            arr[ragged_indices(conv.src_pos[blocks[mine]], sizes[mine])] = (
                payloads[ragged_indices(at[mine], sizes[mine])]
            )
            sources[c] = arr
        chunk_of = conv.dst_chunk[blocks]
        for d in np.unique(chunk_of).tolist():
            conv.convert(d, staged[d], blocks[chunk_of == d], sources)
