"""Virtual address space: word-addressed memory areas.

The VM sees a flat virtual address space containing a handful of disjoint
*areas* (heap chunks, minor heap, stack(s), byte-code, atom table, C
globals).  A pointer value is a byte address; dereferencing goes through
the :class:`AddressSpace`, which locates the owning area by binary search
— the same role the saved *boundary addresses* play during restart
(paper §3.2.2).
"""

from __future__ import annotations

import bisect
import enum
from typing import Iterator

import numpy as np

from repro.arch.architecture import Architecture
from repro.errors import AlignmentError, SegmentationFault


class AreaKind(enum.Enum):
    """What an area holds; drives checkpoint/restart handling."""

    HEAP_CHUNK = "heap-chunk"
    MINOR_HEAP = "minor-heap"
    STACK = "stack"
    THREAD_STACK = "thread-stack"
    CODE = "code"
    ATOMS = "atoms"
    C_GLOBALS = "c-globals"


def _boxed(staged) -> list:
    """``staged`` as a word list in which each run of equal words shares
    one int object, as ``[v] * n`` made it before a checkpoint: a
    restored ``Array.make`` row costs a pointer per word, not an int."""
    staged = np.asarray(staged)
    changes = staged[1:] != staged[:-1]
    if 2 * np.count_nonzero(changes) >= staged.size:
        return staged.tolist()  # mostly distinct: nothing to share
    starts = np.concatenate(([0], np.flatnonzero(changes) + 1))
    values = np.empty(starts.size, dtype=object)
    values[:] = staged[starts].tolist()
    return np.repeat(values, np.diff(starts, append=staged.size)).tolist()


class MemoryArea:
    """A contiguous, word-addressed region of the virtual address space.

    Word storage is a plain ``list[int]``.  The vectorized restart path
    can instead *stage* a numpy ``uint64`` array via :meth:`from_staged`;
    the list is materialized lazily on the first ``words`` access, so a
    restart followed immediately by another checkpoint never pays the
    unboxing cost for untouched chunks.

    A staged area may additionally carry a *conversion thunk* (lazy
    restore): a callable, run at most once, that converts the staged
    array in place — pointer adjustment, endianness repack — before
    anything reads it.  First ``words`` access runs the thunk and then
    materializes; :meth:`ensure_converted` runs it while keeping the
    area staged (the background drainer and the checkpoint writer use
    this so untouched chunks stay in numpy form).
    """

    __slots__ = (
        "kind", "base", "words", "word_bytes", "label", "_staged", "_thunk"
    )

    def __init__(
        self,
        kind: AreaKind,
        base: int,
        n_words: int,
        arch: Architecture,
        label: str = "",
        fill: int = 0,
    ) -> None:
        if base % arch.word_bytes:
            raise AlignmentError(
                f"area base {base:#x} not aligned to {arch.word_bytes} bytes"
            )
        self.kind = kind
        self.base = base
        self.words: list[int] = [fill] * n_words
        self.word_bytes = arch.word_bytes
        self.label = label or kind.value
        self._staged = None
        self._thunk = None

    @classmethod
    def from_staged(
        cls,
        kind: AreaKind,
        base: int,
        staged,
        arch: Architecture,
        label: str = "",
        thunk=None,
    ) -> "MemoryArea":
        """Build an area backed by a numpy ``uint64`` array.

        The ``words`` list does not exist yet; it is created (via
        ``tolist``) on first access and the staged array is dropped.
        ``thunk``, if given, is called once with the staged array (to
        convert it in place) before the first read — see
        :meth:`ensure_converted`.
        """
        if base % arch.word_bytes:
            raise AlignmentError(
                f"area base {base:#x} not aligned to {arch.word_bytes} bytes"
            )
        area = cls.__new__(cls)
        area.kind = kind
        area.base = base
        area.word_bytes = arch.word_bytes
        area.label = label or kind.value
        area._staged = staged
        area._thunk = thunk
        # The 'words' slot is intentionally left unset: __getattr__
        # materializes it on demand.
        return area

    def __getattr__(self, name: str):
        if name == "words":
            staged = self._staged
            if staged is not None:
                if self._thunk is not None:
                    self.ensure_converted()
                    staged = self._staged
                self._staged = None
                ws = _boxed(staged)
                self.words = ws
                return ws
        raise AttributeError(name)

    def peek_staged(self):
        """The staged numpy array, or ``None`` once materialized."""
        return self._staged

    @property
    def pending_conversion(self) -> bool:
        """True while a lazy-restore thunk has not run yet."""
        return self._thunk is not None

    def defer_conversion(self, thunk) -> None:
        """Attach a lazy-restore thunk to an already-staged area."""
        if self._staged is None:
            raise ValueError(
                f"area {self.label} already materialized; cannot defer"
            )
        self._thunk = thunk

    def ensure_converted(self) -> None:
        """Run the pending conversion thunk (if any) without unstaging.

        The thunk is cleared *before* it runs so a re-entrant read from
        inside the conversion (impossible today, cheap insurance) sees
        the area as already converted rather than recursing.

        Staging may hold an unread chunk slice (deferred-section lazy
        restore) instead of an array; the payload bytes are read and
        decoded here, just before the conversion that needs them.
        """
        thunk = self._thunk
        if thunk is not None:
            self._thunk = None
            staged = self._staged
            materialize = getattr(staged, "materialize", None)
            if materialize is not None:
                staged = materialize()
                self._staged = staged
            thunk(staged)

    # -- geometry -----------------------------------------------------------

    @property
    def n_words(self) -> int:
        """Number of words in the area (does not materialize staging)."""
        staged = self._staged
        if staged is not None:
            return int(staged.size)
        return len(self.words)

    @property
    def size_bytes(self) -> int:
        """Area size in bytes."""
        return self.n_words * self.word_bytes

    @property
    def end(self) -> int:
        """One-past-the-end byte address."""
        return self.base + self.size_bytes

    def contains(self, addr: int) -> bool:
        """True if ``addr`` falls inside this area."""
        return self.base <= addr < self.end

    def index_of(self, addr: int) -> int:
        """Word index of a byte address (must be aligned and in range)."""
        off = addr - self.base
        if not 0 <= off < self.size_bytes:
            raise SegmentationFault(
                f"address {addr:#x} outside area {self.label} "
                f"[{self.base:#x}, {self.end:#x})"
            )
        if off % self.word_bytes:
            raise AlignmentError(f"misaligned access at {addr:#x}")
        return off // self.word_bytes

    def addr_of(self, index: int) -> int:
        """Byte address of a word index."""
        if not 0 <= index < self.n_words:
            raise SegmentationFault(
                f"word index {index} outside area {self.label}"
            )
        return self.base + index * self.word_bytes

    # -- access ---------------------------------------------------------------

    def load(self, addr: int) -> int:
        """Read the word at a byte address."""
        return self.words[self.index_of(addr)]

    def store(self, addr: int, value: int) -> None:
        """Write the word at a byte address."""
        self.words[self.index_of(addr)] = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MemoryArea {self.label} [{self.base:#x},{self.end:#x}) "
            f"{self.n_words} words>"
        )


class AddressSpace:
    """The VM's flat virtual address space: a set of disjoint areas.

    ``find``/``load``/``store`` keep a one-entry *hit cache* of the last
    area located: field loads and stores cluster heavily on one area (a
    heap chunk, or the running stack), so the common case skips both the
    binary search and the ``index_of`` re-check of the bounds the cache
    already proved.  The cache is invalidated on every :meth:`map` /
    :meth:`unmap`, so callers that probe possibly-unmapped addresses
    must use :meth:`find_or_none` rather than catching
    :class:`SegmentationFault` — exceptions on the probe path are
    slow and the cache stays coherent either way.
    """

    def __init__(self, arch: Architecture) -> None:
        self.arch = arch
        self._bases: list[int] = []
        self._areas: list[MemoryArea] = []
        # Last-area hit cache: [base, end) and the area itself.  The
        # empty range keeps the fast path a single comparison pair.
        self._hit_base = 0
        self._hit_end = 0
        self._hit_area: MemoryArea | None = None

    # -- mapping ---------------------------------------------------------------

    def map(self, area: MemoryArea) -> MemoryArea:
        """Register an area; it must not overlap an existing one."""
        i = bisect.bisect_right(self._bases, area.base)
        if i > 0 and self._areas[i - 1].end > area.base:
            raise SegmentationFault(
                f"area {area.label} overlaps {self._areas[i - 1].label}"
            )
        if i < len(self._areas) and area.end > self._areas[i].base:
            raise SegmentationFault(
                f"area {area.label} overlaps {self._areas[i].label}"
            )
        self._bases.insert(i, area.base)
        self._areas.insert(i, area)
        self._hit_base = self._hit_end = 0
        self._hit_area = None
        return area

    def unmap(self, area: MemoryArea) -> None:
        """Remove an area (e.g. a freed thread stack)."""
        i = bisect.bisect_left(self._bases, area.base)
        if i >= len(self._areas) or self._areas[i] is not area:
            raise SegmentationFault(f"area {area.label} is not mapped")
        del self._bases[i]
        del self._areas[i]
        self._hit_base = self._hit_end = 0
        self._hit_area = None

    def find(self, addr: int) -> MemoryArea:
        """Locate the area containing a byte address."""
        if self._hit_base <= addr < self._hit_end:
            return self._hit_area
        i = bisect.bisect_right(self._bases, addr) - 1
        if i >= 0:
            area = self._areas[i]
            if addr < area.end:
                self._hit_base = area.base
                self._hit_end = area.end
                self._hit_area = area
                return area
        raise SegmentationFault(f"unmapped address {addr:#x}")

    def find_or_none(self, addr: int) -> MemoryArea | None:
        """Like :meth:`find` but returns ``None`` for unmapped addresses."""
        if self._hit_base <= addr < self._hit_end:
            return self._hit_area
        i = bisect.bisect_right(self._bases, addr) - 1
        if i >= 0:
            area = self._areas[i]
            if addr < area.end:
                self._hit_base = area.base
                self._hit_end = area.end
                self._hit_area = area
                return area
        return None

    # -- access ---------------------------------------------------------------

    def load(self, addr: int) -> int:
        """Read the word at a byte address anywhere in the space."""
        if self._hit_base <= addr < self._hit_end:
            # Area-local fast path: the cache bounds subsume the
            # index_of range check; only alignment is left to verify.
            # `area.words` still routes a staged chunk through the
            # lazy-conversion thunk (MemoryArea.__getattr__).
            area = self._hit_area
            off = addr - self._hit_base
            if off % area.word_bytes:
                raise AlignmentError(f"misaligned access at {addr:#x}")
            return area.words[off // area.word_bytes]
        return self.find(addr).load(addr)

    def store(self, addr: int, value: int) -> None:
        """Write the word at a byte address anywhere in the space."""
        if self._hit_base <= addr < self._hit_end:
            area = self._hit_area
            off = addr - self._hit_base
            if off % area.word_bytes:
                raise AlignmentError(f"misaligned access at {addr:#x}")
            area.words[off // area.word_bytes] = value
            return
        self.find(addr).store(addr, value)

    def areas(self) -> Iterator[MemoryArea]:
        """All mapped areas in ascending base order."""
        return iter(self._areas)

    def areas_of_kind(self, kind: AreaKind) -> list[MemoryArea]:
        """All mapped areas of one kind, ascending base order."""
        return [a for a in self._areas if a.kind is kind]
