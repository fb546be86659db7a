"""Streaming snapshot access: lazily-verified section handles.

A :class:`SnapshotSource` opens a checkpoint and resolves the *cheap*
identity eagerly — magic, format profile, end signature, and (for
trailer-carrying profiles) the v3 section table — then exposes each
body section behind a :class:`SectionHandle` that performs the read,
the per-section CRC32 verification, and the codec parse on first
access.  Eager mode (`resolve_all`) resolves every handle immediately
in body order, replicating the classic whole-file verification exactly,
so readers that want the old behavior get it through the same code
path the lazy consumers use.

Deferred verification bookkeeping: the whole-body SHA-256 and the
end-of-file CRC run over the body *in order*, so the source keeps an
incremental accumulator with a byte frontier.  Sections verified
in order feed it directly; sections verified out of order (everything
after a deferred heap) park their bytes until the frontier passes.
:meth:`SnapshotSource.finish_verification` reads whatever is still
unverified, completes both digests, and raises the same typed
:class:`~repro.errors.CheckpointIntegrityError` the eager path raises —
arbitrarily late, which is the contract the lazy-restore drain and the
checkpoint writer's ``lazy_finish`` barrier rely on.

Heap payloads — ~99.8% of a big checkpoint — additionally defer their
*parse*: :class:`ChunkSlice` records a chunk's geometry and byte offset
and materializes (or gathers sparse words from) the payload only when
touched.

Profiles without an integrity trailer (v1/v2) have no section table to
hand out, so the source degrades to the classic eager
read-verify-parse; the API is uniform either way.

An image that arrived over the network was already hashed once, as it
arrived: :class:`ImageDigest` is the digest object that pass feeds, and
a source opened with it (``digests=``) adopts the body SHA-256 and the
end-CRC accumulator it holds instead of hashing the body again.  The
section CRCs and every comparison stay the source's own.
"""

from __future__ import annotations

import hashlib
import os
import struct
import weakref
import zlib
from collections import deque
from typing import Optional

import numpy as np

from repro.checkpoint.schema import registry
from repro.checkpoint.schema.profiles import FormatProfile
from repro.errors import CheckpointFormatError, CheckpointIntegrityError

#: Gather runs separated by at most this many words are coalesced into
#: one read — block headers a few words apart cost one syscall, not N.
_GATHER_SLACK = 64

#: How much of an image's tail :class:`ImageDigest` keeps unhashed until
#: the image ends — far more than any integrity trailer, so the
#: body/trailer boundary the tail names falls inside it.
_TAIL_HOLD = 64 * 1024

_format_mod = None


def _fmt():
    """The format module, imported lazily to break the import cycle
    (``format.py`` imports this package at module level)."""
    global _format_mod
    if _format_mod is None:
        from repro.checkpoint import format as format_mod

        _format_mod = format_mod
    return _format_mod


class ImageDigest:
    """The digests of one checkpoint image, computed in the pass that
    receives it (a store download, a received frame).

    A ``hashlib``-style object — :meth:`update` in image order, then
    :meth:`hexdigest` — whose one SHA-256 and one CRC-32 pass also
    yield what the reader verifies: the bytes are hashed as they come
    except the last :data:`_TAIL_HOLD`, which wait until the image ends
    and its tail names where the body stops.  There the body SHA-256
    (the one the v3 trailer records) and the body's CRC-32 (the
    end-of-file CRC before the trailer) are taken; the same SHA-256 then
    runs on over the trailer to the whole-image digest a store manifest
    or a ``GEN`` frame names.

    The bytes fed are held by reference until the image ends: they must
    not change before :meth:`hexdigest` is first read.
    """

    __slots__ = ("_sha", "_crc", "_tail", "_held", "_size", "_hex", "_body")

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self._crc = 0
        self._tail: deque = deque()
        self._held = 0
        self._size = 0
        self._hex: Optional[str] = None
        self._body: Optional[tuple[int, bytes, int]] = None

    def update(self, data) -> None:
        view = memoryview(data).cast("B")
        if not view.nbytes:
            return
        self._tail.append(view)
        self._held += view.nbytes
        self._size += view.nbytes
        while self._held > _TAIL_HOLD:
            first = self._tail[0]
            excess = self._held - _TAIL_HOLD
            if first.nbytes > excess:
                self._hash(first[:excess])
                self._tail[0] = first[excess:]
                self._held -= excess
                break
            self._hash(self._tail.popleft())
            self._held -= first.nbytes

    def _hash(self, data) -> None:
        self._sha.update(data)
        self._crc = zlib.crc32(data, self._crc)

    def _finish(self) -> None:
        if self._hex is not None:
            return
        tail = b"".join(self._tail)
        self._tail.clear()
        start = self._size - len(tail)
        body_len = None
        if len(tail) >= 16 and tail[-12:-4] == _fmt().CHECKPOINT_END:
            (tlen,) = struct.unpack_from("<I", tail, len(tail) - 16)
            body_len = self._size - 16 - tlen
        if body_len is not None and start <= body_len:
            cut = memoryview(tail)[: body_len - start]
            self._hash(cut)
            self._body = (body_len, self._sha.copy().digest(), self._crc)
            self._sha.update(memoryview(tail)[body_len - start :])
        else:
            self._sha.update(tail)
        self._hex = self._sha.hexdigest()

    def hexdigest(self) -> str:
        """The SHA-256 of every byte fed."""
        self._finish()
        return self._hex

    def body(self) -> Optional[tuple[int, bytes, int]]:
        """``(body_len, body SHA-256, body CRC-32)`` at the boundary the
        image's tail names, or None when the tail names none."""
        self._finish()
        return self._body


class _Backing:
    """Where a source's bytes live — an in-memory image or a pinned file
    descriptor — and what still keeps the descriptor open: unfinished
    verification, chunk slices not yet read.

    Shared by the :class:`SnapshotSource` and the :class:`ChunkSlice`
    objects it hands out.  A slice reads through this and not through
    the source: the source holds the snapshot that holds the slice.
    """

    __slots__ = ("data", "fd", "size", "bytes_read", "verified",
                 "slices_pending", "sliced_handles", "_close_fd", "_view",
                 "__weakref__")

    def __init__(self, data, fd: Optional[int], size: int) -> None:
        self.data = data
        # An image held in memory (a file read whole, a store download
        # assembled in place, a received frame) is read through a view:
        # a section or a chunk payload is never copied out of it.
        self._view = (
            None if data is None else memoryview(data).toreadonly()
        )
        self.fd = fd
        self.size = size
        self.bytes_read = size if data is not None else 0
        #: Every section CRC, the body SHA-256 and the end CRC checked.
        self.verified = False
        self.slices_pending = 0
        #: Section handles that count as resolved once the last slice
        #: has been read (the heap's).
        self.sliced_handles: list = []
        # Closes the descriptor if the last holder drops this still open.
        self._close_fd = (
            weakref.finalize(self, os.close, fd) if fd is not None else None
        )

    @property
    def in_memory(self) -> bool:
        return self._view is not None

    def read(self, off: int, n: int):
        """``n`` bytes at ``off``: a read-only view of an image held in
        memory, the bytes themselves from a file.  A caller that keeps
        a small piece (a digest, a name) copies it out."""
        if self._view is not None:
            return self._view[off : off + n]
        self.bytes_read += n
        return os.pread(self.fd, n, off)

    def whole(self) -> bytes:
        if self.data is None:
            self.data = os.pread(self.fd, self.size, 0)
            self.bytes_read = self.size
        elif not isinstance(self.data, bytes):
            return bytes(self._view)
        return self.data

    def close(self) -> None:
        if self.fd is not None:
            self.fd = None
            self._close_fd()

    def release(self) -> None:
        """Drop the fd once nothing can ask for more reads."""
        if self.verified and self.slices_pending == 0:
            self.close()

    def slice_materialized(self) -> None:
        if self.slices_pending > 0:
            self.slices_pending -= 1
            if self.slices_pending == 0:
                for h in self.sliced_handles:
                    h.resolved = True
                self.release()


class ChunkSlice:
    """One heap chunk's payload, unread until touched.

    Array-like enough for the restore pipeline: ``len``/``size`` answer
    geometry without IO, ``numpy.asarray`` (via ``__array__``) and
    :meth:`materialize` read, decode and keep the full payload as
    canonical ``uint64``, :meth:`stored` hands out the words as stored
    without decoding or keeping them, and :meth:`gather` reads only the
    words a sparse index needs (block headers, string last-words) with
    run coalescing.
    """

    __slots__ = ("base", "n_words", "_backing", "_dtype", "_offset", "_arr",
                 "_read")

    def __init__(self, backing: _Backing, dtype: np.dtype, base: int,
                 n_words: int, offset: int) -> None:
        self._backing = backing
        #: The words as stored: source word size and byte order.
        self._dtype = dtype
        self.base = base
        self.n_words = n_words
        self._offset = offset
        self._arr: Optional[np.ndarray] = None
        self._read = False

    @property
    def size(self) -> int:
        return self.n_words

    def __len__(self) -> int:
        return self.n_words

    def _raw(self):
        """The payload bytes as stored, checked for length."""
        wb = self._dtype.itemsize
        raw = self._backing.read(self._offset, self.n_words * wb)
        if len(raw) != self.n_words * wb:
            raise CheckpointIntegrityError(
                f"heap chunk payload truncated: needed "
                f"{self.n_words * wb} byte(s) at offset {self._offset} "
                f"but only {len(raw)} could be read",
                section="heap",
                offset=self._offset,
                length=self.n_words * wb,
            )
        return raw

    def stored(self) -> np.ndarray:
        """The payload words as stored (source word size and byte
        order), read-only: a view of an image held in memory, decoding
        nothing.  A pass that reads the words once, converting them as
        it copies them out, needs no decoded chunk."""
        arr = np.frombuffer(self._raw(), dtype=self._dtype)
        self._read_once()
        return arr

    def materialize(self) -> np.ndarray:
        """Read, decode, and cache the full payload (uint64)."""
        if self._arr is None:
            self._arr = self.stored().astype(np.uint64)
        return self._arr

    def _read_once(self) -> None:
        """The backing counts each slice read once, whichever way."""
        if not self._read:
            self._read = True
            self._backing.slice_materialized()

    def gather(self, idx) -> np.ndarray:
        """The payload words at ``idx`` (any order, repeats allowed),
        reading only the coalesced byte runs that cover them."""
        if self._arr is not None:
            return self._arr[np.asarray(idx, dtype=np.int64)]
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return np.empty(0, dtype=np.uint64)
        if self._backing.in_memory:
            # A view of the payload costs nothing: index it directly.
            words = np.frombuffer(self._raw(), dtype=self._dtype)
            return words[idx].astype(np.uint64)
        read = self._backing.read
        wb = self._dtype.itemsize
        uniq = idx if (np.diff(idx) > 0).all() else np.unique(idx)
        bounds = np.flatnonzero(np.diff(uniq) > _GATHER_SLACK) + 1
        lo = uniq[np.concatenate(([0], bounds))]
        n = uniq[np.concatenate((bounds - 1, [uniq.size - 1]))] + 1 - lo
        spans = np.frombuffer(
            b"".join(
                read(self._offset + a * wb, k * wb)
                for a, k in zip(lo.tolist(), n.tolist())
            ),
            dtype=self._dtype,
        )
        # Where each run's first word landed in ``spans``.
        run = np.searchsorted(lo, uniq, side="right") - 1
        out = spans[uniq - lo[run] + (np.cumsum(n) - n)[run]].astype(np.uint64)
        return out if uniq is idx else out[np.searchsorted(uniq, idx)]

    def tolist(self) -> list:
        return self.materialize().tolist()

    def copy(self) -> np.ndarray:
        return self.materialize().copy()

    def __getitem__(self, key):
        return self.materialize()[key]

    def __array__(self, dtype=None, copy=None):
        arr = self.materialize()
        if dtype is not None and arr.dtype != np.dtype(dtype):
            return arr.astype(dtype)
        return arr


class SectionHandle:
    """One body section: a named byte extent and how far its lazy
    read/verify/parse has come.  A plain record — the bytes are read
    through the :class:`SnapshotSource` that lists it
    (:meth:`SnapshotSource.read_section`), which it does not refer to."""

    __slots__ = ("name", "offset", "length", "crc32", "verified", "resolved")

    def __init__(self, name: str, offset: int, length: int,
                 crc32: int) -> None:
        self.name = name
        self.offset = offset
        self.length = length
        self.crc32 = crc32
        #: CRC-checked (and fed to the body digest accumulators).
        self.verified = False
        #: Parsed into the snapshot (heap: payloads materialized too).
        self.resolved = False

    @property
    def end(self) -> int:
        return self.offset + self.length


class SnapshotSource:
    """A checkpoint opened for section-at-a-time access.

    ``open(path)`` (eager) reads the whole file into memory;
    ``open(path, defer=True)`` keeps a file descriptor and reads
    sections on demand via ``os.pread`` (safe across the atomic-commit
    rename: the fd pins the inode).  ``from_bytes`` wraps an in-memory
    image (fsck, a chain fetched from the store); with ``defer`` its
    heap payloads stay behind chunk slices over those bytes.
    ``tolerant=True`` stashes open-time structural errors instead of
    raising, for damage-probing callers.  ``decode`` names the sections
    to parse (default: all); the others are still read and verified but
    never decoded — a chain parent needs only what the splice takes.
    ``digests`` is the :class:`ImageDigest` the image's bytes were fed
    to as they arrived.
    """

    def __init__(self, path: Optional[str], data: Optional[bytes],
                 fd: Optional[int], size: int, defer: bool,
                 tolerant: bool,
                 decode: Optional[frozenset] = None,
                 digests: Optional[ImageDigest] = None) -> None:
        self.path = path
        self._backing = _Backing(data, fd, size)
        self.size = size
        self._defer = defer
        self._decode = decode
        self.profile: Optional[FormatProfile] = None
        self.handles: Optional[list[SectionHandle]] = None
        self.snapshot = None
        self.arch = None
        self._dtype = None
        self.body_len = 0
        self.recorded_sha: Optional[bytes] = None
        self.end_crc = 0
        self._trailer_bytes = b""
        # Incremental body digests: frontier = next body byte to hash.
        self._sha = hashlib.sha256()
        self._crc = 0
        self._frontier = 0
        self._pending_feed: dict[int, bytes] = {}
        #: The body SHA-256 of an image hashed as it arrived (its CRC
        #: accumulator is then ``_crc``): nothing is fed.
        self._body_sha: Optional[bytes] = None
        self._digests = digests
        self._builder: Optional[registry.SnapshotBuilder] = None
        self._next_parse = 0
        self._aligned = True
        self._open_error: Optional[CheckpointFormatError] = None
        try:
            self._open()
        except CheckpointFormatError as e:
            if not tolerant:
                self.close()
                raise
            self._open_error = e
        except BaseException:
            self.close()
            raise

    # -- constructors --------------------------------------------------------

    @classmethod
    def open(cls, path: str, defer: bool = False, tolerant: bool = False,
             decode: Optional[frozenset] = None) -> "SnapshotSource":
        if defer:
            fd = os.open(path, os.O_RDONLY)
            size = os.fstat(fd).st_size
            return cls(path, None, fd, size, True, tolerant, decode)
        with open(path, "rb") as f:
            data = f.read()
        return cls(path, data, None, len(data), False, tolerant, decode)

    @classmethod
    def from_bytes(cls, data: bytes, tolerant: bool = False,
                   defer: bool = False, decode: Optional[frozenset] = None,
                   name: Optional[str] = None,
                   digests: Optional[ImageDigest] = None) -> "SnapshotSource":
        """An in-memory image in any byte buffer, held as it is (not
        copied); ``name`` stands in for its path in errors, ``digests``
        is what hashed ``data`` as it arrived."""
        return cls(name, data, None, len(data), defer, tolerant, decode,
                   digests)

    # -- raw IO --------------------------------------------------------------

    def _read(self, off: int, n: int) -> bytes:
        return self._backing.read(off, n)

    def _whole(self) -> bytes:
        return self._backing.whole()

    def close(self) -> None:
        self._backing.close()

    @property
    def data(self) -> Optional[bytes]:
        """The whole image, when it is held in memory."""
        return self._backing.data

    @property
    def _fd(self) -> Optional[int]:
        return self._backing.fd

    @property
    def bytes_read(self) -> int:
        return self._backing.bytes_read

    @property
    def fully_verified(self) -> bool:
        """Every section CRC, the whole-body SHA-256 and the
        end-of-file CRC have been checked."""
        return self._backing.verified

    @fully_verified.setter
    def fully_verified(self, done: bool) -> None:
        self._backing.verified = done

    def read_section(self, h: SectionHandle) -> bytes:
        """The section's bytes, CRC-verified on first call."""
        data = self._read(h.offset, h.length)
        if not h.verified:
            actual = zlib.crc32(data) & 0xFFFFFFFF
            if actual != h.crc32:
                raise CheckpointIntegrityError(
                    f"section '{h.name}' CRC mismatch at bytes "
                    f"{h.offset}..{h.end} (expected "
                    f"{h.crc32:#010x}, got {actual:#010x})",
                    section=h.name,
                    offset=h.offset,
                    length=h.length,
                    expected=h.crc32,
                    actual=actual,
                )
            h.verified = True
            self._feed(h.offset, data)
        return data

    def section_crc(self, h: SectionHandle) -> int:
        """The CRC32 of the section bytes as stored (no verify, no
        state change) — fsck's damage probe."""
        return zlib.crc32(self._read(h.offset, h.length)) & 0xFFFFFFFF

    # -- open-time resolution ------------------------------------------------

    def _open(self) -> None:
        fmt = _fmt()
        if self.size < len(fmt.CHECKPOINT_MAGIC) + len(fmt.CHECKPOINT_END) + 4:
            raise CheckpointFormatError(
                f"checkpoint file too small ({self.size} byte(s)): "
                f"truncated in section 'header'",
                section="header",
                offset=self.size,
            )
        end = self._read(self.size - 12, 12)
        if end[:8] != fmt.CHECKPOINT_END:
            fmt._raise_truncation(self._whole())
        (self.end_crc,) = struct.unpack("<I", end[8:])
        magic = self._read(0, FormatProfile.magic_len())
        self.profile = FormatProfile.for_magic(magic, None)
        if self.profile is None or not self.profile.integrity_trailer:
            # No section table (v1/v2, or unknown magic): the classic
            # whole-file read + CRC + parse is the only access path.
            self.snapshot = fmt._parse_checkpoint(self._whole())
            self.fully_verified = True
            self._release_backing()
            return
        self._open_trailer(fmt)
        body = self._digests.body() if self._digests is not None else None
        if body is not None and body[0] == self.body_len:
            _len, self._body_sha, self._crc = body
        self._aligned = (
            tuple(h.name for h in self.handles) == self.profile.section_names
        )
        if self._defer:
            if not self._aligned:
                self._resolve_unaligned()
                return
            self._resolve_sections(defer_heap=not self.profile.delta)
            self._build()

    def _open_trailer(self, fmt) -> None:
        """Locate and structurally validate the v3 integrity trailer —
        the one parser of its section table.

        Only structure is checked here; the CRC/SHA *content* checks
        belong to the handles and :meth:`finish_verification`.
        """
        payload_len = self.size - 12
        min_trailer = len(fmt.TRAILER_MAGIC) + 4 + 32
        if payload_len < min_trailer + 4:
            raise CheckpointIntegrityError(
                "v3 integrity trailer missing (file too small)",
                section="trailer",
                offset=payload_len,
            )
        (tlen,) = struct.unpack("<I", self._read(payload_len - 4, 4))
        tstart = payload_len - 4 - tlen
        usable = tlen >= min_trailer and tstart >= len(fmt.CHECKPOINT_MAGIC)
        blob = self._read(tstart, payload_len - tstart) if usable else b""
        if not usable or blob[: len(fmt.TRAILER_MAGIC)] != fmt.TRAILER_MAGIC:
            raise CheckpointIntegrityError(
                "v3 integrity trailer is missing or corrupt",
                section="trailer",
                offset=max(tstart, 0),
                length=min(tlen + 4, payload_len),
            )
        self._trailer_bytes = bytes(blob)
        self.body_len = tstart
        tr = fmt.SectionReader(blob[:-4])
        tr.begin("trailer")
        try:
            tr._take(len(fmt.TRAILER_MAGIC))
            n = tr.u32()
            if n > 256:
                raise CheckpointFormatError(
                    f"implausible section count {n}", section="trailer"
                )
            entries = []
            for _ in range(n):
                name = tr.str_lp()
                off, length, crc32v = struct.unpack("<QQI", tr._take(20))
                entries.append((name, off, length, crc32v))
            sha = tr._take(32)
        except (CheckpointFormatError, UnicodeDecodeError) as e:
            raise CheckpointIntegrityError(
                f"v3 section table unreadable: {e}",
                section="trailer",
                offset=tstart,
                length=tlen + 4,
            ) from e
        pos = 0
        for name, off, length, _crc in entries:
            if off != pos or off + length > self.body_len:
                raise CheckpointIntegrityError(
                    f"v3 section table does not tile the body (section "
                    f"'{name}' claims bytes {off}..{off + length})",
                    section="trailer",
                    offset=tstart,
                    length=tlen + 4,
                )
            pos = off + length
        if pos != self.body_len:
            raise CheckpointIntegrityError(
                f"v3 section table covers {pos} of {self.body_len} body "
                f"byte(s)",
                section="trailer",
                offset=tstart,
                length=tlen + 4,
            )
        self.recorded_sha = sha
        self.handles = [
            SectionHandle(name, off, length, crc32v)
            for name, off, length, crc32v in entries
        ]

    def _release_backing(self) -> None:
        """Drop the fd once nothing can ask for more reads."""
        self._backing.release()

    # -- verification accumulator --------------------------------------------

    def _feed(self, offset: int, data: bytes) -> None:
        if self._body_sha is not None:
            return
        if offset != self._frontier:
            self._pending_feed[offset] = data
            return
        self._sha.update(data)
        self._crc = zlib.crc32(data, self._crc)
        self._frontier += len(data)
        while self._frontier in self._pending_feed:
            nxt = self._pending_feed.pop(self._frontier)
            self._sha.update(nxt)
            self._crc = zlib.crc32(nxt, self._crc)
            self._frontier += len(nxt)

    def _finalize_digests(self) -> None:
        actual_sha = self._body_sha or self._sha.digest()
        if actual_sha != self.recorded_sha:
            raise CheckpointIntegrityError(
                f"whole-file SHA-256 mismatch (expected "
                f"{self.recorded_sha.hex()[:16]}..., got "
                f"{actual_sha.hex()[:16]}...)",
                section="file",
                offset=0,
                length=self.body_len,
                expected=self.recorded_sha.hex(),
                actual=actual_sha.hex(),
            )
        crc = zlib.crc32(self._trailer_bytes, self._crc) & 0xFFFFFFFF
        if crc != self.end_crc:
            raise CheckpointIntegrityError(
                "end-of-file CRC mismatch (trailer bytes corrupt)",
                section="trailer",
                offset=self.body_len,
                length=len(self._trailer_bytes),
                expected=self.end_crc,
                actual=crc,
            )
        self.fully_verified = True

    def finish_verification(self) -> None:
        """Read and verify every still-deferred section, then complete
        the whole-body SHA-256 and the end-of-file CRC.

        Idempotent.  Failures surface as the same typed
        :class:`~repro.errors.CheckpointIntegrityError` the eager
        verifier raises — however late this runs.
        """
        if self.fully_verified or self.handles is None:
            return
        for h in self.handles:
            if not h.verified:
                self.read_section(h)
        self._finalize_digests()

    # -- parsing -------------------------------------------------------------

    def _resolve_sections(self, defer_heap: bool) -> None:
        fmt = _fmt()
        if self._builder is None:
            self._builder = registry.SnapshotBuilder()
        b = self._builder
        codecs = self.profile.codecs
        while self._next_parse < len(codecs):
            i = self._next_parse
            codec = codecs[i]
            h = self.handles[i]
            if self._decode is not None and codec.name not in self._decode:
                if not h.verified:
                    self.read_section(h)
                h.resolved = True
                self._next_parse = i + 1
                continue
            if codec.name == "heap" and defer_heap:
                self._parse_heap_deferred(h, b)
                self._next_parse = i + 1
                continue
            data = self.read_section(h)
            r = fmt.SectionReader(data, arch=self.arch)
            r.base = h.offset
            r.begin(codec.name)
            try:
                codec.decode(r, b, self.profile)
            except CheckpointFormatError:
                raise
            except (ValueError, struct.error, UnicodeDecodeError,
                    IndexError, OverflowError) as e:
                raise CheckpointFormatError(
                    f"malformed checkpoint data in section '{r.section}' "
                    f"at byte offset {r.base + r.off}: {e}",
                    section=r.section,
                    offset=r.base + r.off,
                ) from e
            if codec.name == "header":
                self.arch = r.arch
                self._dtype = np.dtype(self.arch.numpy_dtype)
            h.resolved = True
            self._next_parse = i + 1

    def _parse_heap_deferred(self, h: SectionHandle,
                             b: registry.SnapshotBuilder) -> None:
        """Structural parse of a full heap section: chunk geometry only.

        Reads the chunk count and each chunk's ``(base, n_words)``
        framing — a handful of tiny reads — and records the payload
        byte extents as :class:`ChunkSlice` thunk fodder.  The payload
        bytes stay on disk, unread and unverified, until touched.
        """
        arch = self.arch
        wb = arch.word_bytes
        end = h.end

        def trunc(needed: int, at: int) -> CheckpointFormatError:
            return CheckpointFormatError(
                f"truncated checkpoint file: section 'heap' needs "
                f"{needed} byte(s) at offset {at} but only {end - at} "
                f"remain",
                section="heap",
                offset=at,
            )

        if h.length < 4:
            raise trunc(4, h.offset)
        (n_chunks,) = struct.unpack("<I", self._read(h.offset, 4))
        b.n_chunks = n_chunks
        self._backing.sliced_handles.append(h)
        cursor = h.offset + 4
        for _ in range(n_chunks):
            if cursor + wb + 8 > end:
                raise trunc(wb + 8, cursor)
            hdr = self._read(cursor, wb + 8)
            base = arch.word_from_bytes(hdr[:wb])
            (count,) = struct.unpack("<Q", hdr[wb:])
            payload_off = cursor + wb + 8
            if payload_off + count * wb > end:
                raise trunc(count * wb, payload_off)
            b.heap_chunks.append(
                (base, ChunkSlice(self._backing, self._dtype, base, count,
                                   payload_off))
            )
            self._backing.slices_pending += 1
            cursor = payload_off + count * wb
        if cursor != end:
            raise CheckpointFormatError(
                f"heap section extent mismatch: chunk payloads end at "
                f"byte {cursor} but the section table records {end}",
                section="heap",
                offset=cursor,
            )

    def section_entries(self) -> list:
        """The section table as plain :class:`SectionEntry` rows."""
        entry = _fmt().SectionEntry
        return [entry(h.name, h.offset, h.length, h.crc32)
                for h in self.handles]

    def _adopt(self, snap) -> None:
        snap.sections = self.section_entries()
        snap.body_sha256 = self.recorded_sha
        self.snapshot = snap

    def _build(self) -> None:
        self._adopt(self._builder.build(self.profile))

    def _resolve_unaligned(self) -> None:
        """A table whose rows do not match the profile's body order
        cannot drive per-section parsing: verify everything through the
        handles (same order, same errors), then parse the verified body
        sequentially."""
        fmt = _fmt()
        body = self._whole()[: self.body_len]
        self.finish_verification()
        self._adopt(fmt._parse_body(fmt.SectionReader(body)))
        for h in self.handles:
            h.resolved = True
        self._release_backing()

    def resolve_all(self, defer_heap: bool = False):
        """Resolve every handle immediately: the eager mode.

        Replicates the classic verification order bit for bit — every
        per-section CRC in body order, then the whole-body SHA-256,
        then the end-of-file CRC, then the body parse — so eager
        consumers keep the exact error surface they always had.  With
        ``defer_heap`` a full's heap payloads are parsed into chunk
        slices over the verified bytes, decoded when a caller asks.
        """
        if self._open_error is not None:
            raise self._open_error
        if self.snapshot is not None and self.fully_verified and (
            defer_heap or self._backing.slices_pending == 0
        ):
            return self.snapshot
        if not self._aligned:
            self._resolve_unaligned()
            return self.snapshot
        self.finish_verification()
        self._resolve_sections(
            defer_heap=defer_heap and not self.profile.delta
        )
        if self.snapshot is None:
            self._build()
        elif not defer_heap:
            # A deferred open already built the snapshot with chunk
            # slices; materialize them so the result is fully eager.
            for _base, ws in self.snapshot.heap_chunks:
                if isinstance(ws, ChunkSlice):
                    ws.materialize()
        self._release_backing()
        return self.snapshot

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict:
        """The section-resolution report (``repro info --json`` lazy
        block, RESTART metrics)."""
        if self.handles is None:
            return {
                "sections": None,
                "resolved": None,
                "unresolved": 0,
                "unresolved_names": [],
                "bytes_total": self.size,
                "bytes_read": self.bytes_read,
                "bytes_verified": self.size if self.fully_verified else 0,
                "bytes_deferred": 0,
                "sha_verified": self.fully_verified,
            }
        unresolved = [h.name for h in self.handles if not h.resolved]
        return {
            "sections": len(self.handles),
            "resolved": len(self.handles) - len(unresolved),
            "unresolved": len(unresolved),
            "unresolved_names": unresolved,
            "bytes_total": self.size,
            "bytes_read": min(self.bytes_read, self.size),
            "bytes_verified": sum(
                h.length for h in self.handles if h.verified
            ),
            "bytes_deferred": sum(
                h.length for h in self.handles if not h.verified
            ),
            "sha_verified": self.fully_verified,
        }
