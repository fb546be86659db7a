"""The section codecs: the checkpoint body, one registered unit each.

Registration order IS body order (header, boundaries, globals, heap,
index, atoms, cglobals, threads, channels); a
:class:`~repro.checkpoint.schema.profiles.FormatProfile` selects the
subset a version carries (v1 has no index section).  Codecs branch on
profile *capabilities* (``profile.delta``, ``profile.block_index``),
never on version numbers — the version-ladder lint enforces that
outside this package.

The byte layouts here are the seed implementation's, moved verbatim:
the golden fixtures under ``tests/fixtures/golden/`` pin every encoded
byte, so any drift fails the schema-compat tests.
"""

from __future__ import annotations

import numpy as np

from repro.arch.architecture import Architecture, Endianness
from repro.channels.manager import ChannelRecord
from repro.checkpoint.schema.registry import (
    SectionCodec,
    SnapshotBuilder,
    register,
)
from repro.errors import CheckpointFormatError


@register
class HeaderSection(SectionCodec):
    """Magic, architecture marker, identity, v4 parent binding."""

    name = "header"
    sid = 1

    def encode(self, w, snap, profile) -> None:
        w.raw(profile.magic)
        arch = snap.arch
        h = snap.header
        # Architecture marker (paper step 5): word size then native "one".
        w.u8(arch.word_bytes)
        w.word(1)
        w.str_lp(h.platform_name)
        w.str_lp(h.os_name)
        w.u8(1 if h.multithreaded else 0)
        w.u32(h.current_tid)
        w.bytes_lp(h.code_digest)
        w.u32(h.code_len)
        if profile.delta:
            # Parent binding: the delta only applies on top of the exact
            # generation whose body hashed to this digest.
            d = snap.delta
            w.raw(d.parent_sha256)
            w.u32(d.chain_depth)
            w.u64(d.dirty_words)
            w.u64(d.total_words)

    def decode(self, r, b, profile) -> None:
        r._take(len(profile.magic))  # matched by the profile lookup
        # Architecture marker (paper §4.2 step 2): detect word size and
        # endianness from the saved constant one.
        word_bytes = r.u8()
        if word_bytes not in (4, 8):
            raise CheckpointFormatError(f"impossible word size {word_bytes}")
        marker = r._take(word_bytes)
        if int.from_bytes(marker, "little") == 1:
            endianness = Endianness.LITTLE
        elif int.from_bytes(marker, "big") == 1:
            endianness = Endianness.BIG
        else:
            raise CheckpointFormatError("unreadable architecture marker")
        r.set_arch(Architecture(word_bytes * 8, endianness, "saved"))
        b.word_bytes = word_bytes
        b.endianness = endianness
        b.platform_name = r.str_lp()
        b.os_name = r.str_lp()
        b.multithreaded = bool(r.u8())
        b.current_tid = r.u32()
        b.code_digest = r.bytes_lp()
        b.code_len = r.u32()
        if profile.delta:
            b.parent_sha = r._take(32)
            b.chain_depth = r.u32()
            b.dirty_words = r.u64()
            b.total_words = r.u64()

    def layout(self, profile):
        rows = [
            ("magic", "raw[6]", f"`{profile.magic_repr}`"),
            ("word_bytes", "u8", "word size of the saving machine"),
            ("arch_marker", "word", "the value 1 in native representation"),
            ("platform", "lp-str", "platform name"),
            ("os", "lp-str", "OS personality name"),
            ("multithreaded", "u8", "application type"),
            ("current_tid", "u32", "thread running at the safe point"),
            ("code_digest", "lp-bytes", "program identity"),
            ("code_len", "u32", "code units"),
        ]
        if profile.delta:
            rows += [
                ("parent_sha256", "raw[32]", "parent body digest binding"),
                ("chain_depth", "u32", "1 = delta directly on a full"),
                ("dirty_words", "u64", "heap words carried in this delta"),
                ("total_words", "u64", "mapped heap words at capture"),
            ]
        return rows


@register
class BoundariesSection(SectionCodec):
    """Boundary addresses of every memory area (paper step 6)."""

    name = "boundaries"
    sid = 2

    def encode(self, w, snap, profile) -> None:
        w.u32(len(snap.boundaries))
        for area in snap.boundaries:
            w.str_lp(area.kind)
            w.str_lp(area.label)
            w.word(area.base)
            w.u64(area.n_words)

    def decode(self, r, b, profile) -> None:
        from repro.checkpoint.format import AreaRecord

        for _ in range(r.u32()):
            kind = r.str_lp()
            label = r.str_lp()
            base = r.word()
            n_words = r.u64()
            b.boundaries.append(AreaRecord(kind, label, base, n_words))

    def layout(self, profile):
        return [
            ("count", "u32", "number of areas"),
            ("kind, label", "lp-str x2", "per area"),
            ("base", "word", "byte address (native word)"),
            ("n_words", "u64", "area size"),
        ]


@register
class GlobalsSection(SectionCodec):
    """VM globals: freelist head, global_data, allocation counter."""

    name = "globals"
    sid = 3

    def encode(self, w, snap, profile) -> None:
        w.word(snap.freelist_head)
        w.word(snap.global_data)
        w.u64(snap.allocated_words)

    def decode(self, r, b, profile) -> None:
        b.freelist_head = r.word()
        b.global_data = r.word()
        b.allocated_words = r.u64()

    def layout(self, profile):
        return [
            ("freelist_head", "word", "major-heap freelist"),
            ("global_data", "word", "the program's global block"),
            ("allocated_words", "u64", "allocation counter"),
        ]


@register
class HeapSection(SectionCodec):
    """Major heap: full chunk dumps, or dirty regions under a delta."""

    name = "heap"
    sid = 4
    delta_capable = True

    def encode(self, w, snap, profile) -> None:
        if profile.delta:
            delta = snap.delta
            w.u32(len(delta.chunks))
            for rec in delta.chunks:
                w.word(rec.base)
                w.u64(rec.n_words)
                w.u32(len(rec.regions))
                for start, words in rec.regions:
                    w.u64(start)
                    w.words(words)
        else:
            w.u32(len(snap.heap_chunks))
            for base, words in snap.heap_chunks:
                w.word(base)
                w.words(words)

    def decode(self, r, b, profile) -> None:
        from repro.checkpoint.format import DeltaChunkRecord

        b.n_chunks = n_chunks = r.u32()
        if profile.delta:
            for _ in range(n_chunks):
                base = r.word()
                n_words = r.u64()
                regions = []
                for _ in range(r.u32()):
                    start = r.u64()
                    regions.append((start, r.words_array()))
                b.delta_chunks.append(DeltaChunkRecord(base, n_words, regions))
        else:
            for _ in range(n_chunks):
                base = r.word()
                b.heap_chunks.append((base, r.words_array()))

    def layout(self, profile):
        rows = [("n_chunks", "u32", "mapped heap chunks")]
        if profile.delta:
            rows += [
                ("base", "word", "per chunk (every mapped chunk)"),
                ("n_words", "u64", "chunk geometry"),
                ("n_regions", "u32", "dirty runs in this chunk"),
                ("start, words", "u64 + word-array", "per dirty run"),
            ]
        else:
            rows += [
                ("base", "word", "per chunk"),
                ("words", "word-array", "u64 count + native words"),
            ]
        return rows


@register
class IndexSection(SectionCodec):
    """The optional v2 block-extent index (delta-coded positions)."""

    name = "index"
    sid = 5
    presence_gated = True  # one presence byte in every carrying profile

    def presence_gated_in(self, profile) -> bool:
        return profile.block_index

    def encode(self, w, snap, profile) -> None:
        n_chunks = (
            len(snap.delta.chunks) if profile.delta else len(snap.heap_chunks)
        )
        if snap.chunk_index is not None and len(snap.chunk_index) != n_chunks:
            raise CheckpointFormatError(
                "block-extent index does not cover every heap chunk"
            )
        w.u8(1 if snap.chunk_index is not None else 0)
        if snap.chunk_index is not None:
            _encode_chunk_index(w, snap.chunk_index)

    def decode(self, r, b, profile) -> None:
        if r.u8():
            b.chunk_index = _decode_chunk_index(r, b.n_chunks)

    def layout(self, profile):
        return [
            ("present", "u8", "0 = no index (older writers)"),
            ("count", "u32", "per chunk: block header count"),
            ("deltas", "lp-bytes", "u8 position deltas, 0xFF = escape"),
            ("escapes", "u32 + <u4[]", "positions whose delta >= 0xFF"),
            ("classes", "lp-bytes", "one CLASS_* byte per block"),
        ]


@register
class AtomsSection(SectionCodec):
    """Atom table dump (paper step 9); omitted from deltas when static."""

    name = "atoms"
    sid = 6
    presence_gated = True

    def encode(self, w, snap, profile) -> None:
        if profile.delta:
            w.u8(1 if snap.delta.has_atoms else 0)
            if not snap.delta.has_atoms:
                return
        w.words(snap.atom_words)

    def decode(self, r, b, profile) -> None:
        b.has_atoms = bool(r.u8()) if profile.delta else True
        b.atom_words = r.words() if b.has_atoms else []

    def layout(self, profile):
        rows = []
        if profile.delta:
            rows.append(("present", "u8", "0 = unchanged since the parent"))
        rows.append(("atoms", "word-array", "the atom table"))
        return rows


@register
class CGlobalsSection(SectionCodec):
    """C-global area dump + registered root indices."""

    name = "cglobals"
    sid = 7
    presence_gated = True

    def encode(self, w, snap, profile) -> None:
        if profile.delta:
            w.u8(1 if snap.delta.has_cglobals else 0)
            if not snap.delta.has_cglobals:
                return
        w.words(snap.cglobal_words)
        w.u32(len(snap.cglobal_roots))
        for idx in snap.cglobal_roots:
            w.u32(idx)

    def decode(self, r, b, profile) -> None:
        b.has_cglobals = bool(r.u8()) if profile.delta else True
        if b.has_cglobals:
            b.cglobal_words = r.words()
            b.cglobal_roots = [r.u32() for _ in range(r.u32())]
        else:
            b.cglobal_words, b.cglobal_roots = [], []

    def layout(self, profile):
        rows = []
        if profile.delta:
            rows.append(("present", "u8", "0 = untouched since the parent"))
        rows += [
            ("cglobals", "word-array", "the C-global area"),
            ("n_roots", "u32", "registered root count"),
            ("roots", "u32[]", "root word indices"),
        ]
        return rows


@register
class ThreadsSection(SectionCodec):
    """Per-thread registers, scheduling state, used stack region."""

    name = "threads"
    sid = 8

    def encode(self, w, snap, profile) -> None:
        w.u32(len(snap.threads))
        for t in snap.threads:
            w.u32(t.tid)
            w.str_lp(t.state)
            w.str_lp(t.block_kind)
            w.word(t.blocked_on)
            w.word(t.pending_mutex)
            w.word(t.result)
            w.word(t.regs.pc)
            w.word(t.regs.sp)
            w.word(t.regs.accu)
            w.word(t.regs.env)
            w.i64(t.regs.extra_args)
            w.word(t.regs.trapsp)
            w.word(t.stack_base)
            w.word(t.stack_high)
            w.u64(t.capacity_words)
            w.words(t.stack_words)

    def decode(self, r, b, profile) -> None:
        from repro.checkpoint.format import RegisterRecord, ThreadRecord

        for _ in range(r.u32()):
            tid = r.u32()
            state = r.str_lp()
            block_kind = r.str_lp()
            blocked_on = r.word()
            pending_mutex = r.word()
            result = r.word()
            regs = RegisterRecord(
                pc=r.word(), sp=r.word(), accu=r.word(), env=r.word(),
                extra_args=r.i64(), trapsp=r.word(),
            )
            stack_base = r.word()
            stack_high = r.word()
            capacity_words = r.u64()
            stack_words = r.words_array()
            b.threads.append(
                ThreadRecord(
                    tid, state, block_kind, blocked_on, pending_mutex,
                    result, regs, stack_base, stack_high, capacity_words,
                    stack_words,
                )
            )

    def layout(self, profile):
        return [
            ("count", "u32", "threads"),
            ("tid", "u32", "per thread"),
            ("state, block_kind", "lp-str x2", "scheduling state"),
            ("blocked_on, pending_mutex, result", "word x3", ""),
            ("pc, sp, accu, env", "word x4", "abstract registers"),
            ("extra_args", "i64", ""),
            ("trapsp", "word", "innermost trap frame, 0 = none"),
            ("stack_base, stack_high", "word x2", "stack geometry"),
            ("capacity_words", "u64", ""),
            ("stack", "word-array", "used region, top first"),
        ]


@register
class ChannelsSection(SectionCodec):
    """Channel records (paper step 12)."""

    name = "channels"
    sid = 9

    def encode(self, w, snap, profile) -> None:
        w.u32(len(snap.channels))
        for ch in snap.channels:
            w.u32(ch.cid)
            w.u8(1 if ch.path is not None else 0)
            if ch.path is not None:
                w.str_lp(ch.path)
            w.str_lp(ch.mode)
            w.u8(1 if ch.std_name is not None else 0)
            if ch.std_name is not None:
                w.str_lp(ch.std_name)
            w.u64(ch.position)
            w.bytes_lp(ch.out_buffer)
            w.u8(1 if ch.closed else 0)

    def decode(self, r, b, profile) -> None:
        for _ in range(r.u32()):
            cid = r.u32()
            path = r.str_lp() if r.u8() else None
            mode = r.str_lp()
            std_name = r.str_lp() if r.u8() else None
            position = r.u64()
            out_buffer = r.bytes_lp()
            closed = bool(r.u8())
            b.channels.append(
                ChannelRecord(
                    cid, path, mode, std_name, position, out_buffer, closed
                )
            )

    def layout(self, profile):
        return [
            ("count", "u32", "channels"),
            ("cid", "u32", "per channel"),
            ("has_path [+path]", "u8 [+lp-str]", "file-backed channels"),
            ("mode", "lp-str", ""),
            ("has_std [+std_name]", "u8 [+lp-str]", "stdin/stdout/stderr"),
            ("position", "u64", "file offset"),
            ("out_buffer", "lp-bytes", "unflushed output"),
            ("closed", "u8", ""),
        ]


# ---------------------------------------------------------------------------
# Block-extent index encoding (shared by the index codec)
# ---------------------------------------------------------------------------


def _encode_chunk_index(w, index) -> None:
    """Write the v2 block-extent index (delta-coded header positions).

    Positions are ascending word indices; each is stored as a ``u8``
    delta from its predecessor (the first from zero).  A delta that does
    not fit (>= 0xFF) stores the escape marker 0xFF and its real value
    in a side array of ``<u4``.  Classes are one ``u8`` per block.
    """
    for positions, classes in index:
        pos = np.asarray(positions, dtype=np.uint32)
        n = int(pos.size)
        w.u32(n)
        deltas = np.diff(pos, prepend=np.uint32(0))
        escaped = deltas >= 0xFF
        small = deltas.astype(np.uint8)
        small[escaped] = 0xFF
        w.bytes_lp(small.tobytes())
        escapes = deltas[escaped].astype("<u4")
        w.u32(int(escapes.size))
        w.raw(escapes.tobytes())
        w.bytes_lp(np.asarray(classes, dtype=np.uint8).tobytes())


def _decode_chunk_index(r, n_chunks: int):
    index = []
    for _ in range(n_chunks):
        n = r.u32()
        small = np.frombuffer(r.bytes_lp(), dtype=np.uint8)
        n_esc = r.u32()
        escapes = np.frombuffer(r._take(4 * n_esc), dtype="<u4")
        classes = np.frombuffer(r.bytes_lp(), dtype=np.uint8)
        if small.size != n or classes.size != n:
            raise CheckpointFormatError("malformed block-extent index")
        deltas = small.astype(np.uint32)
        escaped = small == 0xFF
        if int(escaped.sum()) != n_esc:
            raise CheckpointFormatError("block-extent escape count mismatch")
        deltas[escaped] = escapes
        positions = np.cumsum(deltas, dtype=np.uint64).astype(np.uint32)
        index.append((positions, classes))
    return index
