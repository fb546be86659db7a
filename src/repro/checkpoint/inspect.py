"""Checkpoint inspection: deep structural validation and statistics.

A release-grade C/R system needs a way to answer "is this checkpoint
file sane, and what is in it?" without restoring it.  The validator
re-runs the restart logic's *read-only* half: it walks every heap chunk
block by block using the saved architecture's header layout, classifies
every field against the saved boundary addresses, and reports
malformations — exactly the checks a restart would trip over, minus the
rebuild.

Used by ``python -m repro info --deep`` and by tests as a
property-style oracle over generated checkpoints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.checkpoint.format import (
    VMSnapshot,
    annotate_restore_error,
)
from repro.checkpoint.schema import FormatProfile, SnapshotSource, all_codecs
from repro.errors import CheckpointFormatError
from repro.metrics import INTEGRITY
from repro.memory.blocks import (
    CLOSURE_TAG,
    Color,
    DOUBLE_TAG,
    HeaderCodec,
    NO_SCAN_TAG,
    STRING_TAG,
)
from repro.memory.layout import AreaKind
from repro.memory.strings import StringCodec


@dataclass
class InspectionReport:
    """Findings of one checkpoint inspection."""

    platform_name: str = ""
    format_version: int = 1
    #: Whether the file carries the v2 block-extent index.
    has_block_index: bool = False
    word_bytes: int = 0
    endianness: str = ""
    multithreaded: bool = False
    thread_count: int = 0
    heap_chunks: int = 0
    heap_words: int = 0
    live_blocks: int = 0
    free_blocks: int = 0
    live_words: int = 0
    free_words: int = 0
    #: Blocks by class: "structured", "closure", "string", "double", ...
    blocks_by_class: Counter = field(default_factory=Counter)
    #: Pointers by destination area kind.
    pointers_by_area: Counter = field(default_factory=Counter)
    stack_words: int = 0
    channels: int = 0
    #: v3 section table (name, offset, length, crc32) as verified at
    #: parse time; empty for v1/v2 files.
    sections: list = field(default_factory=list)
    #: Human-readable problems; empty means the checkpoint validates.
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def render(self) -> str:
        index_note = (
            "block-extent index present"
            if self.has_block_index
            else "no block index"
        )
        if self.sections:
            index_note += f", integrity trailer ({len(self.sections)} sections verified)"
        lines = [
            f"format     : v{self.format_version}, {index_note}",
            f"platform   : {self.platform_name} "
            f"({self.word_bytes * 8}-bit {self.endianness}-endian)",
            f"application: {'multi' if self.multithreaded else 'single'}"
            f"-threaded, {self.thread_count} thread(s), "
            f"{self.stack_words} stack words, {self.channels} channel(s)",
            f"heap       : {self.heap_chunks} chunk(s), {self.heap_words} words "
            f"({self.live_words} live in {self.live_blocks} blocks, "
            f"{self.free_words} free in {self.free_blocks} blocks)",
        ]
        if self.blocks_by_class:
            parts = ", ".join(
                f"{n} {k}" for k, n in self.blocks_by_class.most_common()
            )
            lines.append(f"blocks     : {parts}")
        if self.pointers_by_area:
            parts = ", ".join(
                f"{n} -> {k}" for k, n in self.pointers_by_area.most_common()
            )
            lines.append(f"pointers   : {parts}")
        if self.problems:
            lines.append(f"PROBLEMS ({len(self.problems)}):")
            lines.extend(f"  - {p}" for p in self.problems)
        else:
            lines.append("validation : OK")
        return "\n".join(lines)


def _classify_tag(tag: int) -> str:
    if tag == STRING_TAG:
        return "string"
    if tag == DOUBLE_TAG:
        return "double"
    if tag == CLOSURE_TAG:
        return "closure"
    if tag >= NO_SCAN_TAG:
        return "abstract"
    return "structured"


def inspect_snapshot(snap: VMSnapshot) -> InspectionReport:
    """Validate a parsed checkpoint; never raises on content problems."""
    report = InspectionReport(
        platform_name=snap.header.platform_name,
        format_version=snap.header.format_version,
        has_block_index=snap.chunk_index is not None,
        word_bytes=snap.header.word_bytes,
        endianness=snap.header.endianness.value,
        multithreaded=snap.header.multithreaded,
        thread_count=len(snap.threads),
        heap_chunks=len(snap.heap_chunks),
        channels=len(snap.channels),
        sections=[
            {
                "name": s.name,
                "offset": s.offset,
                "length": s.length,
                "crc32": f"{s.crc32:08x}",
            }
            for s in (snap.sections or [])
        ],
    )
    arch = snap.arch
    headers = HeaderCodec(arch)
    strings = StringCodec(arch)
    wb = arch.word_bytes

    areas = sorted(snap.boundaries, key=lambda a: a.base)

    def area_of(addr: int):
        for a in areas:
            if a.base <= addr < a.base + a.n_words * wb:
                return a
        return None

    def check_pointer(w: int, where: str) -> None:
        a = area_of(w)
        if a is None:
            report.problems.append(
                f"{where}: pointer {w:#x} lies in no saved area"
            )
        else:
            report.pointers_by_area[a.kind] += 1

    # --- heap walk -------------------------------------------------------
    code_end = None
    for a in areas:
        if a.kind == "code":
            code_end = a.base + a.n_words * 4
    for ci, (base, words) in enumerate(snap.heap_chunks):
        # The walk below is word-at-a-time: unbox the chunk once.
        words = words.tolist()
        report.heap_words += len(words)
        walk_positions: list[int] = []
        i = 0
        n = len(words)
        while i < n:
            walk_positions.append(i)
            hd = words[i]
            size = headers.size(hd)
            tag = headers.tag(hd)
            color = headers.color(hd)
            if i + 1 + size > n:
                report.problems.append(
                    f"chunk {base:#x}: block at word {i} (size {size}) "
                    f"overruns the chunk"
                )
                break
            if color is Color.BLUE:
                report.free_blocks += 1
                report.free_words += size + 1
                if size >= 1:
                    link = words[i + 1]
                    if link and area_of(link) is None:
                        report.problems.append(
                            f"chunk {base:#x}: freelist link {link:#x} "
                            f"points nowhere"
                        )
            else:
                report.live_blocks += 1
                report.live_words += size + 1
                cls = _classify_tag(tag)
                report.blocks_by_class[cls] += 1
                payload = words[i + 1 : i + 1 + size]
                if cls == "string":
                    try:
                        strings.byte_length(payload)
                    except ValueError:
                        report.problems.append(
                            f"chunk {base:#x}: corrupt string padding at "
                            f"word {i}"
                        )
                elif cls == "double" and size != 8 // wb:
                    report.problems.append(
                        f"chunk {base:#x}: double block of {size} words"
                    )
                elif cls in ("structured", "closure"):
                    for j, w in enumerate(payload):
                        if w & 1:
                            continue
                        check_pointer(
                            w, f"chunk {base:#x} block@{i} field {j}"
                        )
            i += 1 + size
        if snap.chunk_index is not None:
            # The v2 index must agree with the discovery walk exactly —
            # restart trusts it without re-walking.
            indexed = [int(p) for p in snap.chunk_index[ci][0]]
            if indexed != walk_positions:
                report.problems.append(
                    f"chunk {base:#x}: block-extent index lists "
                    f"{len(indexed)} block(s) but the discovery walk "
                    f"found {len(walk_positions)}"
                    if len(indexed) != len(walk_positions)
                    else f"chunk {base:#x}: block-extent index disagrees "
                    f"with the discovery walk"
                )

    # --- threads -----------------------------------------------------------
    for t in snap.threads:
        report.stack_words += len(t.stack_words)
        pc = t.regs.pc
        a = area_of(pc)
        ok_pc = (a is not None and a.kind == "code") or pc == code_end
        if not ok_pc:
            report.problems.append(
                f"thread {t.tid}: PC {pc:#x} is not a code address"
            )
        for k, w in enumerate(t.stack_words.tolist()):
            if w & 1:
                continue
            if w == 0:
                continue
            if area_of(w) is None:
                report.problems.append(
                    f"thread {t.tid}: stack word {k} = {w:#x} points nowhere"
                )
        if t.regs.trapsp:
            a = area_of(t.regs.trapsp)
            if a is None or a.kind not in (
                AreaKind.STACK.value, AreaKind.THREAD_STACK.value
            ):
                report.problems.append(
                    f"thread {t.tid}: trap pointer {t.regs.trapsp:#x} is "
                    f"not a stack address"
                )

    # --- globals -------------------------------------------------------------
    if snap.global_data and area_of(snap.global_data) is None:
        report.problems.append("global_data pointer lies in no saved area")
    if snap.freelist_head and area_of(snap.freelist_head) is None:
        report.problems.append("freelist head lies in no saved area")
    return report


def inspect_checkpoint(path: str) -> InspectionReport:
    """Read, verify (signature + CRC) and deep-validate a checkpoint.

    A v4 delta head is reconstructed through its chain first — the
    structural walk only makes sense over a complete heap image.
    """
    from repro.checkpoint.reader import load_snapshot_chain

    return inspect_snapshot(load_snapshot_chain(path))


def describe_snapshot(snap: VMSnapshot) -> dict:
    """A machine-readable description of a parsed checkpoint.

    The JSON backbone of ``repro info --json``; the checkpoint store's
    deep integrity audit consumes the same structure to decide whether a
    stored payload is still a restorable checkpoint.
    """
    h = snap.header
    heap_words = sum(len(w) for _, w in snap.heap_chunks)
    delta = None
    if snap.delta is not None:
        delta = {
            "parent_sha256": snap.delta.parent_sha256.hex(),
            "chain_depth": snap.delta.chain_depth,
            "dirty_words": snap.delta.dirty_words,
            "total_words": snap.delta.total_words,
            "dirty_ratio": snap.delta.dirty_ratio,
        }
    profile = FormatProfile.for_version(h.format_version)
    codecs = all_codecs()
    # v1/v2 files carry no section table at all: report null, not an
    # empty list — "no sections" and "none recorded" are different facts.
    sections = None
    section_bytes = None
    if snap.sections is not None:
        sections = [
            {
                "name": s.name,
                "offset": s.offset,
                "length": s.length,
                "crc32": f"{s.crc32:08x}",
                "flags": (
                    codecs[s.name].flags(profile) if s.name in codecs else []
                ),
            }
            for s in snap.sections
        ]
        section_bytes = {s.name: s.length for s in snap.sections}
    return {
        "format_version": h.format_version,
        "kind": "full" if snap.delta is None else "delta",
        "delta": delta,
        "has_block_index": snap.chunk_index is not None,
        "integrity_verified": snap.sections is not None,
        "sections": sections,
        "section_bytes": section_bytes,
        "platform": h.platform_name,
        "os": h.os_name,
        "word_bits": h.word_bytes * 8,
        "endianness": h.endianness.value,
        "multithreaded": h.multithreaded,
        "current_tid": h.current_tid,
        "code_digest": h.code_digest.hex(),
        "code_len": h.code_len,
        "heap": {
            "chunks": len(snap.heap_chunks),
            "words": int(heap_words),
            "allocated_words": snap.allocated_words,
        },
        "threads": [
            {
                "tid": t.tid,
                "state": t.state,
                "stack_words": len(t.stack_words),
            }
            for t in snap.threads
        ],
        "channels": len(snap.channels),
    }


def describe_checkpoint(path: str, deep: bool = False) -> dict:
    """Read a checkpoint file and describe it as JSON-able data.

    The shallow path opens the file through a deferred
    :class:`~repro.checkpoint.schema.SnapshotSource`: section geometry
    comes from the handles, heap payloads are sized (``len``) but never
    parsed, and ``desc["lazy"]`` records the section-resolution state
    as a lazy consumer would first see it — sections resolved vs.
    deferred, bytes verified vs. deferred.  Verification still
    completes before returning (``finish_verification``), so a corrupt
    file fails ``repro info`` exactly as it always did.

    With ``deep``, the full structural validation runs too and its
    findings land under ``"problems"`` / ``"ok"``.
    """
    try:
        src = SnapshotSource.open(path, defer=True)
    except CheckpointFormatError as e:
        INTEGRITY.integrity_failures += 1
        raise annotate_restore_error(e, path) from e
    try:
        lazy_report = src.stats()
        try:
            if deep:
                snap = src.resolve_all()
            else:
                src.finish_verification()
                snap = src.snapshot
        except CheckpointFormatError as e:
            INTEGRITY.integrity_failures += 1
            raise annotate_restore_error(e, path) from e
        desc = describe_snapshot(snap)
    finally:
        src.close()
    desc["path"] = path
    desc["lazy"] = lazy_report
    if deep:
        target = snap
        if snap.delta is not None:
            from repro.checkpoint.reader import load_snapshot_chain

            target = load_snapshot_chain(path)
        report = inspect_snapshot(target)
        desc["problems"] = list(report.problems)
        desc["ok"] = report.ok
        desc["blocks_by_class"] = dict(report.blocks_by_class)
        desc["pointers_by_area"] = dict(report.pointers_by_area)
    return desc
