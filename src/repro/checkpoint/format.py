"""The checkpoint file format.

Layout (sections in the order of the paper's §4.1 steps 5-13):

1.  magic + format version
2.  architecture marker: one byte giving the word size in bytes, then
    the *word value 1 in the saving machine's native representation* —
    the restarting machine compares it against its own encoding of 1 to
    detect an endianness mismatch (paper step 5)
3.  platform/OS names, application type (single/multi-threaded)
4.  code identity: digest + length (restart must resume the same program)
5.  boundary addresses of every memory area (paper step 6)
6.  VM globals: freelist head, global_data pointer, allocated words
    (paper step 9)
7.  heap chunks, dumped raw in native representation (paper step 8)
7b. block-extent index (format v2 only, optional): per chunk, the
    delta-coded word positions of every block header plus a one-byte
    class per block, so restart can convert each block class in bulk
    without re-discovering headers word-by-word
8.  atom table dump (paper step 9)
9.  C-global area dump + registered root indices
10. per-thread records: registers (paper step 7), scheduling state and
    the used stack region (paper steps 10-11)
11. channel records (paper step 12)
11b. integrity trailer (format v3 only): a section table naming every
    body section with its byte extent and CRC32, plus a SHA-256 of the
    whole body — so a reader can verify section-at-a-time, name the
    exact damaged section on a mismatch, and ``repro fsck`` can repair
    just the damaged byte range from a store replica
12. end signature + CRC32 of everything before it (paper step 13)

Framing integers (counts, lengths) are fixed little-endian; *VM data
words* (heap, stacks, registers, boundaries) are in the native
representation of the checkpointing machine, exactly as the paper
prescribes — conversion happens only at restart, and only if needed.
"""

from __future__ import annotations

import hashlib
import io
import struct
import zlib
from dataclasses import dataclass, field, replace
from typing import BinaryIO, Optional

import numpy as np

from repro.arch.architecture import Architecture, Endianness
from repro.channels.manager import ChannelRecord
from repro.checkpoint.schema import FormatProfile
from repro.checkpoint.schema.source import ChunkSlice, SnapshotSource
from repro.errors import CheckpointFormatError, CheckpointIntegrityError
from repro.metrics import INTEGRITY

CHECKPOINT_MAGIC_V1 = b"HCKP\x01\x00"
CHECKPOINT_MAGIC_V2 = b"HCKP\x02\x00"
CHECKPOINT_MAGIC_V3 = b"HCKP\x03\x00"
#: Format v4 marks *delta* checkpoints only: the heap section holds
#: dirty regions relative to a parent generation (bound by the parent's
#: body SHA-256 in the header) instead of full chunk dumps.  Full
#: checkpoints keep the v3 magic, so v4 never appears at the base of a
#: chain.
CHECKPOINT_MAGIC_V4 = b"HCKP\x04\x00"
#: The magic current writers emit (format v3: per-section CRCs + trailer).
CHECKPOINT_MAGIC = CHECKPOINT_MAGIC_V3
CHECKPOINT_END = b"HCKPEND!"
#: Leads the v3 integrity trailer (section table + whole-body SHA-256);
#: v4 files reuse it unchanged.
TRAILER_MAGIC = b"HCKPTBL3"

#: Block classes recorded in the v2 block-extent index.  They partition
#: blocks by how restart must treat the payload: FREE blocks carry a
#: freelist link in field 0; SCAN payloads are values (pointers or
#: immediates); STRING/DOUBLE payloads are byte-oriented and repack by
#: their own rules on an endianness or word-size change; OPAQUE payloads
#: (NO_SCAN custom data) are raw machine words.
CLASS_FREE = 0
CLASS_SCAN = 1
CLASS_STRING = 2
CLASS_DOUBLE = 3
CLASS_OPAQUE = 4


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectionEntry:
    """One row of the v3 section table: a named body byte range + CRC."""

    name: str
    offset: int
    length: int
    crc32: int

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclass(frozen=True)
class DeltaChunkRecord:
    """Dirty regions of one heap chunk in a v4 delta.

    Every chunk mapped at capture time gets a record — even with zero
    dirty regions — because the record also carries the chunk geometry a
    reconstruction needs (new chunks materialize from it, vanished
    chunks are dropped because no record mentions them).
    """

    base: int
    n_words: int
    #: ``(start_word, words)`` runs, ascending and non-overlapping;
    #: ``words`` is a numpy array (a list only between a background
    #: capture and the writer thread's unboxing).
    regions: list


@dataclass(frozen=True)
class DeltaInfo:
    """The v4 header extension + delta-encoded heap payload."""

    #: Body SHA-256 of the parent generation this delta applies on top
    #: of — the same digest the parent's v3/v4 trailer records.
    parent_sha256: bytes
    #: 1 for a delta directly on a full checkpoint, +1 per further hop.
    chain_depth: int
    #: Dirty heap words serialized in this delta.
    dirty_words: int
    #: Total mapped heap words at capture (for dirty-ratio reporting).
    total_words: int
    #: Whether the atom-table / C-global sections are present (omitted
    #: when untouched since the parent; reconstruction walks back).
    has_atoms: bool = True
    has_cglobals: bool = True
    chunks: list = field(default_factory=list)

    @property
    def dirty_ratio(self) -> float:
        return self.dirty_words / self.total_words if self.total_words else 0.0


@dataclass(frozen=True)
class AreaRecord:
    """Boundary addresses of one memory area on the saving machine."""

    kind: str       # AreaKind value string
    label: str
    base: int       # byte address (native word in the file)
    n_words: int


@dataclass(frozen=True)
class RegisterRecord:
    """One thread's abstract registers (paper §3.1.5)."""

    pc: int          # code address value
    sp: int          # stack pointer byte address
    accu: int
    env: int
    extra_args: int
    trapsp: int = 0  # innermost trap-frame stack address, 0 = none


@dataclass(frozen=True)
class ThreadRecord:
    """Scheduling state + registers + stack of one VM thread."""

    tid: int
    state: str        # ThreadState value
    block_kind: str   # BlockKind value
    blocked_on: int   # value or tid (see block_kind)
    pending_mutex: int
    result: int
    regs: RegisterRecord
    stack_base: int
    stack_high: int
    capacity_words: int
    stack_words: list[int]  # used region, top of stack first


@dataclass(frozen=True)
class CheckpointHeader:
    """Everything the restart logic needs before touching VM data."""

    word_bytes: int
    endianness: Endianness
    platform_name: str
    os_name: str
    multithreaded: bool
    current_tid: int
    code_digest: bytes
    code_len: int
    format_version: int = 3

    @property
    def arch(self) -> Architecture:
        """The saving machine's architecture."""
        return Architecture(self.word_bytes * 8, self.endianness, "saved")


@dataclass
class VMSnapshot:
    """A complete, self-contained copy of checkpointable VM state.

    Built at the safe point; the writer serializes it (possibly on a
    background thread, playing the role of the forked child process).
    """

    header: CheckpointHeader
    boundaries: list[AreaRecord]
    freelist_head: int
    global_data: int
    allocated_words: int
    #: ``(base, words)`` per chunk; ``words`` is a ``uint64`` array or a
    #: deferred ``ChunkSlice`` once parsed (a list only between a
    #: background capture and the writer thread's unboxing).
    heap_chunks: list[tuple[int, object]]
    atom_words: list[int]
    cglobal_words: list[int]
    cglobal_roots: list[int]
    threads: list[ThreadRecord]
    channels: list[ChannelRecord]
    #: Format-v2 block-extent index: one ``(positions, classes)`` pair
    #: per heap chunk (uint32 header word-indices, uint8 CLASS_* codes),
    #: or None when the file carries no index (v1, or an older writer).
    chunk_index: Optional[list[tuple[np.ndarray, np.ndarray]]] = None
    #: The verified v3 section table (None for v1/v2 files).
    sections: Optional[list[SectionEntry]] = None
    #: Delta payload + parent binding (format v4 only; None for fulls).
    delta: Optional[DeltaInfo] = None
    #: SHA-256 of the serialized body — set by the serializers and by
    #: the reader for v3+ files; it is the identity a child delta's
    #: ``parent_sha256`` binds to.
    body_sha256: Optional[bytes] = None

    @property
    def arch(self) -> Architecture:
        return self.header.arch


# ---------------------------------------------------------------------------
# Low-level framing
# ---------------------------------------------------------------------------


class SectionWriter:
    """Little-endian framing plus native-representation word dumps."""

    def __init__(self, arch: Architecture) -> None:
        self.arch = arch
        self._dtype = np.dtype(arch.numpy_dtype)
        self.buf = io.BytesIO()
        #: ``(name, start_offset)`` marks; each section runs to the next
        #: mark (the last to the end of the body).
        self.section_marks: list[tuple[str, int]] = []
        #: The finished image's SHA-256 (hex), once serialized.
        self.sha256: Optional[str] = None

    def begin_section(self, name: str) -> None:
        """Mark the start of a named section at the current offset."""
        self.section_marks.append((name, self.buf.tell()))

    def section_extents(self, body_len: int) -> list[tuple[str, int, int]]:
        """``(name, offset, length)`` per section, covering the body."""
        out = []
        for i, (name, start) in enumerate(self.section_marks):
            end = (
                self.section_marks[i + 1][1]
                if i + 1 < len(self.section_marks)
                else body_len
            )
            out.append((name, start, end - start))
        return out

    def u8(self, v: int) -> None:
        self.buf.write(struct.pack("<B", v))

    def u32(self, v: int) -> None:
        self.buf.write(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        self.buf.write(struct.pack("<Q", v))

    def i64(self, v: int) -> None:
        self.buf.write(struct.pack("<q", v))

    def raw(self, data: bytes) -> None:
        self.buf.write(data)

    def bytes_lp(self, data: bytes) -> None:
        self.u32(len(data))
        self.buf.write(data)

    def str_lp(self, s: str) -> None:
        self.bytes_lp(s.encode())

    def word(self, w: int) -> None:
        """One VM word in native representation."""
        self.buf.write(self.arch.word_to_bytes(w))

    def words(self, ws) -> None:
        """A word array in native representation.

        Accepts a list of ints, a numpy array or an array-like that
        unboxes itself when written; an array already in the
        architecture's native dtype is written without any copy/convert.
        """
        self.u64(len(ws))
        if not isinstance(ws, (np.ndarray, list)):
            ws = np.asarray(ws)
        if isinstance(ws, np.ndarray) and ws.dtype == self._dtype:
            # Buffer protocol: no intermediate bytes copy.
            self.buf.write(ws.data if ws.flags.c_contiguous else ws.tobytes())
            return
        arr = np.asarray(ws, dtype=np.uint64) & np.uint64(self.arch.word_mask)
        self.buf.write(arr.astype(self._dtype).data)

    def getvalue(self) -> bytes:
        return self.buf.getvalue()


_U8, _U32, _U64, _I64 = (struct.Struct(f) for f in ("<B", "<I", "<Q", "<q"))


class SectionReader:
    """Mirror of :class:`SectionWriter`."""

    def __init__(self, data: bytes, arch: Optional[Architecture] = None) -> None:
        self.data = data
        self.off = 0
        #: Absolute byte position of ``data[0]`` in the file, so error
        #: reports from a single-section reader (``SnapshotSource``)
        #: carry file offsets; 0 for whole-body readers, where reader
        #: offsets and file offsets already coincide.
        self.base = 0
        self.arch = None
        self._dtype = None
        self._word: Optional[struct.Struct] = None
        if arch is not None:
            self.set_arch(arch)
        #: The section the parser is currently inside, for error reports.
        self.section = "header"

    def begin(self, name: str) -> None:
        self.section = name

    def set_arch(self, arch: Architecture) -> None:
        self.arch = arch
        self._dtype = np.dtype(arch.numpy_dtype)
        size = "I" if arch.word_bytes == 4 else "Q"
        self._word = struct.Struct(arch.endianness.numpy_prefix + size)

    def _skip(self, n: int) -> int:
        """Step over ``n`` bytes; returns the offset they start at."""
        off = self.off
        if off + n > len(self.data):
            raise CheckpointFormatError(
                f"truncated checkpoint file: section '{self.section}' "
                f"needs {n} byte(s) at offset {self.base + off} but "
                f"only {len(self.data) - off} remain",
                section=self.section,
                offset=self.base + off,
            )
        self.off = off + n
        return off

    def _take(self, n: int) -> bytes:
        off = self._skip(n)
        return bytes(self.data[off : off + n])

    def _take_view(self, n: int) -> memoryview:
        """The next ``n`` bytes, not copied (a word array's payload)."""
        off = self._skip(n)
        return memoryview(self.data)[off : off + n]

    def u8(self) -> int:
        return _U8.unpack_from(self.data, self._skip(1))[0]

    def u32(self) -> int:
        return _U32.unpack_from(self.data, self._skip(4))[0]

    def u64(self) -> int:
        return _U64.unpack_from(self.data, self._skip(8))[0]

    def i64(self) -> int:
        return _I64.unpack_from(self.data, self._skip(8))[0]

    def bytes_lp(self) -> bytes:
        return self._take(self.u32())

    def str_lp(self) -> str:
        return self.bytes_lp().decode()

    def word(self) -> int:
        word = self._word
        return word.unpack_from(self.data, self._skip(word.size))[0]

    def words(self) -> list[int]:
        return self.words_array().tolist()

    def words_array(self) -> np.ndarray:
        """A word array decoded to canonical ``uint64`` (no Python ints)."""
        n = self.u64()
        raw = self._take_view(n * self.arch.word_bytes)
        return np.frombuffer(raw, dtype=self._dtype).astype(np.uint64)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _encode_integrity_trailer(view, extents) -> tuple:
    """The v3 integrity trailer for a complete body + the SHA-256 object
    that hashed the body (the caller runs it on over the trailer).

    ``view`` may be a ``bytes`` or ``memoryview`` of the body;
    ``extents`` is ``SectionWriter.section_extents`` output.  Layout:
    trailer magic, u32 section count, per section (lp-str name, u64
    offset, u64 length, u32 CRC32), 32 raw SHA-256 bytes of the body,
    and finally a u32 byte length of everything from the trailer magic
    through the SHA — so a reader can locate the trailer from the end
    of the file without parsing the body first.
    """
    parts = [TRAILER_MAGIC, struct.pack("<I", len(extents))]
    for name, off, length in extents:
        raw = name.encode()
        parts.append(struct.pack("<I", len(raw)) + raw)
        parts.append(
            struct.pack(
                "<QQI", off, length,
                zlib.crc32(view[off : off + length]) & 0xFFFFFFFF,
            )
        )
    sha = hashlib.sha256(view)
    parts.append(sha.digest())
    blob = b"".join(parts)
    return blob + struct.pack("<I", len(blob)), sha


def serialize_snapshot_writer(snap: VMSnapshot) -> "SectionWriter":
    """Serialize a snapshot; returns the filled :class:`SectionWriter`,
    whose ``sha256`` is the whole image's SHA-256 (hex).

    The CRCs run over the live buffer view and the trailer is appended
    in place, so callers streaming straight to a file
    (``w.buf.getbuffer()``) never copy the multi-megabyte body.  The
    body's SHA-256 runs on over the trailer and the end signature to
    the whole image's: the body is hashed once.
    """
    profile = FormatProfile.for_snapshot(snap)
    w = profile.write_body(snap)
    sha = None
    if profile.integrity_trailer:
        body_len = w.buf.tell()
        with w.buf.getbuffer() as view:
            trailer, sha = _encode_integrity_trailer(
                view, w.section_extents(body_len)
            )
        w.raw(trailer)
        snap.body_sha256 = sha.digest()
        sha.update(trailer)
    with w.buf.getbuffer() as view:
        crc = zlib.crc32(view) & 0xFFFFFFFF
    end = CHECKPOINT_END + struct.pack("<I", crc)
    w.raw(end)
    if sha is None:
        with w.buf.getbuffer() as view:
            sha = hashlib.sha256(view)
    else:
        sha.update(end)
    w.sha256 = sha.hexdigest()
    return w


def serialize_snapshot(snap: VMSnapshot) -> bytes:
    """The on-disk checkpoint image of a snapshot, as ``bytes``."""
    return serialize_snapshot_writer(snap).getvalue()


def magic_version(image: bytes) -> Optional[int]:
    """The format version an image's leading magic claims, or None."""
    profile = FormatProfile.for_magic(image[: FormatProfile.magic_len()], None)
    return profile.version if profile is not None else None


def detect_format_version(path: str) -> Optional[int]:
    """The format version a file's magic claims, or None if unreadable."""
    try:
        with open(path, "rb") as f:
            magic = f.read(FormatProfile.magic_len())
    except OSError:
        return None
    return magic_version(magic)


def annotate_restore_error(
    exc: Exception, path: str, data: Optional[bytes] = None
) -> Exception:
    """Attach file path, format version, and section to a restore error.

    Re-raising a failed restore without saying *which* file (a periodic
    checkpoint setup juggles several), *what* format it carries, or
    *where* in it the failure lies makes corruption reports useless;
    every error leaving this module or the restart path is annotated
    exactly once (marked via the ``path`` attribute).  The structured
    context also lands on the :class:`~repro.errors.CheckpointError`
    ``path``/``format_version``/``section`` attributes.  A checkpoint
    held in memory passes its ``data`` and names itself with ``path``.
    """
    if getattr(exc, "path", None) is not None:
        return exc
    version = (
        detect_format_version(path) if data is None else magic_version(data)
    )
    vnote = (
        f"format v{version}"
        if version is not None
        else "format version undetectable"
    )
    section = getattr(exc, "section", None)
    snote = f", section '{section}'" if section else ""
    err = type(exc)(f"{path}: {exc} ({vnote}{snote})")
    for attr in ("section", "offset", "length", "expected", "actual"):
        if hasattr(exc, attr):
            setattr(err, attr, getattr(exc, attr))
    err.path = path  # type: ignore[attr-defined]
    err.format_version = version  # type: ignore[attr-defined]
    return err


def read_checkpoint(path: str) -> VMSnapshot:
    """Read and validate a checkpoint file; detect its architecture.

    Every format version reads (v1 files simply carry no block-extent
    index).  The bulk word sections — heap chunks, delta regions and
    thread stacks — come back as numpy ``uint64`` arrays.

    Any :class:`~repro.errors.CheckpointFormatError` raised here carries
    the file path and the format version its magic claims.
    """
    try:
        src = SnapshotSource.open(path)
        return src.resolve_all()
    except CheckpointFormatError as e:
        INTEGRITY.integrity_failures += 1
        raise annotate_restore_error(e, path) from e


def _parse_checkpoint(data: bytes) -> VMSnapshot:
    """Verify and parse a file without a section table (v1/v2, or an
    unknown magic): one CRC over everything, one sequential parse.

    :class:`SnapshotSource` has already checked the size and the end
    signature.
    """
    payload = data[:-12]
    (crc,) = struct.unpack("<I", data[-4:])
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if actual != crc:
        raise CheckpointIntegrityError(
            "checkpoint CRC mismatch (corrupt file)",
            section="file",
            offset=0,
            length=len(payload),
            expected=crc,
            actual=actual,
        )
    return _parse_body(SectionReader(payload))


def _raise_truncation(data: bytes) -> None:
    """Diagnose a file with no end signature: name where the data ends.

    A tolerant body parse locates the section and byte offset at which
    the data runs out, so a torn write is reported as *where* it tore
    instead of a bare "not committed".
    """
    section, offset = _locate_parse_end(data)
    raise CheckpointFormatError(
        f"missing end signature: the checkpoint was not committed or was "
        f"truncated (data ends in section '{section}' at byte offset "
        f"{offset})",
        section=section,
        offset=offset,
    )


def _locate_parse_end(data: bytes) -> tuple[str, int]:
    r = SectionReader(data)
    try:
        _parse_body(r)
    except CheckpointFormatError as e:
        return e.section or r.section, e.offset if e.offset is not None else r.off
    except Exception:  # pragma: no cover - defensive; _parse_body wraps
        return r.section, r.off
    # The whole body parsed: the cut lies in the trailer region.
    return "trailer", r.off


def read_section_table(data: bytes) -> Optional[list[SectionEntry]]:
    """Best-effort section table of a v3 file's bytes (None otherwise).

    Used by fsck and the fault injectors to locate section boundaries
    without requiring the file to verify — tolerates a damaged body but
    returns None when the trailer itself is unusable.
    """
    profile = FormatProfile.for_magic(data[: FormatProfile.magic_len()], None)
    if profile is None or not profile.integrity_trailer:
        return None
    src = SnapshotSource.from_bytes(data, tolerant=True)
    return src.section_entries() if src.handles is not None else None


def _parse_body(r: SectionReader) -> VMSnapshot:
    try:
        r.begin("header")
        magic = r.data[r.off : r.off + FormatProfile.magic_len()]
        profile = FormatProfile.for_magic(magic)  # raises the typed bad-magic
        return profile.parse_body(r)
    except CheckpointFormatError:
        raise
    except (ValueError, struct.error, UnicodeDecodeError, IndexError,
            OverflowError) as e:
        # Corrupt-but-CRC-passing data cannot normally get here; the
        # tolerant truncation diagnosis can.  Never leak a raw
        # struct.error/IndexError to callers.
        raise CheckpointFormatError(
            f"malformed checkpoint data in section '{r.section}' at byte "
            f"offset {r.off}: {e}",
            section=r.section,
            offset=r.off,
        ) from e


# ---------------------------------------------------------------------------
# Delta-chain reconstruction (format v4)
# ---------------------------------------------------------------------------


#: What :func:`merge_delta_chain` takes from a chain's *parents* — the
#: delta header and heap regions, the base's heap, atoms and C-globals
#: where a link carries them; everything else comes from the head.
SPLICE_SECTIONS = frozenset({"header", "heap", "atoms", "cglobals"})


def check_delta_parent(info: DeltaInfo, parent_sha: Optional[bytes]) -> None:
    """The chain binding: a delta applies only on top of the generation
    whose body SHA-256 its header records."""
    if parent_sha is None or info.parent_sha256 != parent_sha:
        have = parent_sha.hex()[:16] if parent_sha else "unknown"
        raise CheckpointIntegrityError(
            f"delta parent hash mismatch: delta binds to "
            f"{info.parent_sha256.hex()[:16]}... but the preceding "
            f"generation's body is {have}...",
            section="header",
            expected=info.parent_sha256.hex(),
            actual=parent_sha.hex() if parent_sha else None,
        )


def check_delta_region(start: int, n_words: int, chunk_words: int) -> None:
    """A dirty region must lie inside the chunk it patches."""
    if start + n_words > chunk_words:
        raise CheckpointIntegrityError(
            f"delta region [{start}, {start + n_words}) "
            f"overruns chunk of {chunk_words} word(s)",
            section="heap",
        )


def merge_delta_chain(chain: list[VMSnapshot]) -> VMSnapshot:
    """Reconstruct a full snapshot from a base + ordered deltas.

    ``chain`` is ordered base-first: element 0 must be a full (non-delta)
    snapshot and every later element a v4 delta whose recorded parent
    SHA-256 matches the body digest of the element before it — the
    binding that stops a delta from being spliced onto the wrong
    generation.  Heap regions are applied oldest-to-newest with
    vectorized array splices; non-heap sections (threads, channels,
    boundaries, globals, index) come from the newest element, and
    omitted atom/C-global sections walk back to the nearest element that
    carries them.

    The merged snapshot presents itself as a plain full checkpoint
    (``delta`` is ``None``, header version
    ``FormatProfile.newest_full()``) so the existing restore pipeline —
    pointer fixing, endianness/word-size conversion — runs on it
    unchanged.
    """
    if not chain:
        raise CheckpointFormatError("empty delta chain")
    base = chain[0]
    if base.delta is not None:
        raise CheckpointIntegrityError(
            "delta chain has no full base: the oldest element is itself "
            f"a delta (chain depth {base.delta.chain_depth})",
            section="header",
        )
    if len(chain) == 1:
        return base
    # A base chunk is copied only when a delta first splices into it;
    # an untouched one passes through as the base holds it.  A lazily
    # opened base contributes ChunkSlice payloads, so splicing a chain
    # reads only the parent chunks the dirty set touches.
    state: dict[int, object] = dict(base.heap_chunks)
    #: Chunks whose array this merge allocated, written in place since.
    owned: set[int] = set()
    for prev, snap in zip(chain, chain[1:]):
        info = snap.delta
        if info is None:
            raise CheckpointFormatError(
                "full checkpoint in the middle of a delta chain"
            )
        check_delta_parent(info, prev.body_sha256)
        current: dict[int, object] = {}
        for rec in info.chunks:
            arr = state.get(rec.base)
            if arr is None or arr.size != rec.n_words:
                # A chunk the parent didn't have (or whose geometry
                # changed): it was freshly mapped, so its regions cover
                # every meaningful word.
                arr = np.zeros(rec.n_words, dtype=np.uint64)
                owned.add(rec.base)
            elif rec.regions and rec.base not in owned:
                # First dirty write into an inherited chunk: copy it now
                # (a lazy parent's payload bytes are read only now).
                arr = np.array(
                    arr.stored() if isinstance(arr, ChunkSlice) else arr,
                    dtype=np.uint64,
                )
                owned.add(rec.base)
            for start, words in rec.regions:
                wa = np.asarray(words, dtype=np.uint64)
                check_delta_region(start, wa.size, arr.size)
                arr[start : start + wa.size] = wa
            current[rec.base] = arr
        # Chunks absent from this delta's records were unmapped on the
        # saving machine (compaction) and are dropped here too.
        state = current
    head = chain[-1]
    heap_chunks = [(rec.base, state[rec.base]) for rec in head.delta.chunks]
    atom_words = base.atom_words
    cglobal_words = base.cglobal_words
    cglobal_roots = base.cglobal_roots
    for snap in chain[1:]:
        if snap.delta.has_atoms:
            atom_words = snap.atom_words
        if snap.delta.has_cglobals:
            cglobal_words = snap.cglobal_words
            cglobal_roots = snap.cglobal_roots
    return VMSnapshot(
        header=replace(
            head.header, format_version=FormatProfile.newest_full().version
        ),
        boundaries=head.boundaries,
        freelist_head=head.freelist_head,
        global_data=head.global_data,
        allocated_words=head.allocated_words,
        heap_chunks=heap_chunks,
        atom_words=atom_words,
        cglobal_words=cglobal_words,
        cglobal_roots=cglobal_roots,
        threads=head.threads,
        channels=head.channels,
        chunk_index=head.chunk_index,
        sections=None,
        delta=None,
        body_sha256=head.body_sha256,
    )
