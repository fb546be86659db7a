"""Memory manager: the allocation and mutation interface of the VM.

Gathers the address space, the two heap generations, the atom table and
the C-global area behind one interface; implements the minor/major
allocation split, the write barrier feeding the reference table
(paper §2.4.1, ``reftable``), and typed constructors for blocks, strings
and floats.
"""

from __future__ import annotations

import enum
import weakref
from typing import TYPE_CHECKING, Callable, Optional

from repro.arch.architecture import Architecture
from repro.arch.platforms import Platform
from repro.errors import VMRuntimeError
from repro.memory.atoms import AtomTable
from repro.memory.blocks import (
    Color,
    DOUBLE_TAG,
    HeaderCodec,
    STRING_TAG,
)
from repro.memory.cglobals import CGlobalArea
from repro.memory.dirty import DEFAULT_REGION_WORDS, DirtyTracker
from repro.memory.floats import FloatCodec
from repro.memory.heap import Heap
from repro.memory.layout import AddressSpace
from repro.memory.minor_heap import MAX_YOUNG_WOSIZE, MinorHeap
from repro.memory.strings import StringCodec
from repro.memory.values import ValueCodec

if TYPE_CHECKING:  # pragma: no cover
    from repro.gc.controller import GCController


class Phase(enum.Enum):
    """Major collector phase."""

    IDLE = "idle"
    MARK = "mark"
    SWEEP = "sweep"


class MemoryManager:
    """Owns all VM memory and provides the mutator interface."""

    def __init__(
        self,
        platform: Platform,
        minor_words: int | None = None,
        chunk_words: int | None = None,
        region_words: int | None = None,
    ) -> None:
        arch: Architecture = platform.arch
        self.platform = platform
        self.arch = arch
        self.space = AddressSpace(arch)
        self.values = ValueCodec(arch)
        self.headers = HeaderCodec(arch)
        self.strings = StringCodec(arch)
        self.floats = FloatCodec(arch)
        self._wb = arch.word_bytes

        layout = platform.layout
        heap_kwargs = {}
        if chunk_words is not None:
            heap_kwargs["chunk_words"] = chunk_words
        self.heap = Heap(
            self.space, arch, layout.heap_base, layout.chunk_stride,
            **heap_kwargs,
        )
        minor_kwargs = {}
        if minor_words is not None:
            minor_kwargs["n_words"] = minor_words
        self.minor = MinorHeap(
            self.space, arch, layout.minor_base, **minor_kwargs
        )
        self.atoms = AtomTable(self.space, arch, layout.atom_base)
        self.cglobals = CGlobalArea(self.space, arch, layout.cglobal_base)

        #: Dirty-region tracker for incremental checkpoints.  The heap
        #: shares the tracker's region set so its header/freelist writes
        #: mark regions without an extra indirection; the hot-path
        #: barrier below caches the bound ``add`` the same way.
        self.dirty = DirtyTracker(
            arch.word_bytes, region_words or DEFAULT_REGION_WORDS
        )
        self._dirty_add = self.dirty.regions.add
        self._dirty_shift = self.dirty.shift
        self.heap.attach_dirty(self.dirty)
        self.cglobals.on_write = self.dirty.note_globals

        #: Field addresses in the major heap holding young pointers.
        self.reftable: set[int] = set()
        #: The major collector's phase, kept here because the mutator
        #: reads it on every barrier and major allocation: the collector
        #: itself is only asked (below) while a cycle is under way.
        self.major_phase = Phase.IDLE
        #: The collector working on this memory (:meth:`attach_collector`),
        #: weakly: it holds this manager, and both belong to the VM.
        #: Called, it answers the collector, or None (none attached).
        self._collector: Callable[[], Optional["GCController"]] = (
            lambda: None
        )

    def attach_collector(self, gc: "GCController") -> None:
        """Name the collector that a full minor heap, the mark-phase
        deletion barrier and the allocation color call into."""
        self._collector = weakref.ref(gc)

    # -- classification --------------------------------------------------------

    def is_young(self, v: int) -> bool:
        """True if ``v`` is a pointer into the young generation."""
        return self.minor.contains(v)

    def is_in_heap(self, v: int) -> bool:
        """True if ``v`` points into the major heap."""
        return self.heap.is_in_heap(v)

    def is_heap_block(self, v: int) -> bool:
        """True if ``v`` is a pointer into either heap generation."""
        return self.values.is_block(v) and (
            self.heap.is_in_heap(v) or self.minor.contains(v)
        )

    # -- allocation --------------------------------------------------------------

    def alloc(self, wosize: int, tag: int) -> int:
        """Allocate a block: young if small, major heap if large.

        Zero-sized blocks are the statically allocated atoms.
        """
        if wosize == 0:
            return self.atoms.atom(tag)
        if wosize <= MAX_YOUNG_WOSIZE:
            return self.alloc_young(wosize, tag)
        return self.alloc_shr(wosize, tag)

    def alloc_young(self, wosize: int, tag: int) -> int:
        """Allocate in the young generation, running a minor GC if full."""
        block = self.minor.try_alloc(wosize, tag)
        if block is None:
            gc = self._collector()
            if gc is None:
                raise VMRuntimeError(
                    "minor heap exhausted and no collector attached"
                )
            gc.minor_collection()
            block = self.minor.try_alloc(wosize, tag)
            if block is None:
                raise VMRuntimeError(
                    f"minor heap too small for a {wosize}-word block"
                )
        return block

    def alloc_shr(self, wosize: int, tag: int) -> int:
        """``caml_alloc_shr``: allocate directly in the major heap.

        The block color honours the incremental collector's invariant
        (black while marking, phase-dependent while sweeping).
        """
        block = self.heap.alloc(wosize, tag, Color.WHITE)
        if self.major_phase is not Phase.IDLE:
            color = self._collector().major.allocation_color(block)
            if color is not Color.WHITE:
                hd = self.heap.load_header(block)
                self.heap.store_header(
                    block, self.headers.with_color(hd, color)
                )
        return block

    # -- block access ---------------------------------------------------------------

    def header_of(self, block: int) -> int:
        """Read the header word of any block (either generation, atoms)."""
        return self.space.load(block - self._wb)

    def tag_of(self, block: int) -> int:
        """Tag of a block."""
        return self.headers.tag(self.header_of(block))

    def size_of(self, block: int) -> int:
        """Size in words of a block's payload."""
        return self.headers.size(self.header_of(block))

    def field(self, block: int, i: int) -> int:
        """``Field(block, i)`` with bounds implied by the address space."""
        return self.space.load(block + i * self._wb)

    def set_field(self, block: int, i: int, value: int) -> None:
        """``caml_modify``: mutate a field with the GC write barriers.

        * Deletion barrier: while the major collector is marking, the old
          contents are darkened so the snapshot invariant holds.
        * Generational barrier: a young pointer stored into a major-heap
          block records the field address in the reference table.
        """
        addr = block + i * self._wb
        in_major = self.heap.is_in_heap(addr)
        if in_major:
            self._dirty_add(addr >> self._dirty_shift)
            if self.major_phase is Phase.MARK:
                self._collector().major.darken(self.space.load(addr))
        self.space.store(addr, value)
        if in_major and self.is_young(value):
            self.reftable.add(addr)
        elif addr in self.reftable and not self.is_young(value):
            self.reftable.discard(addr)

    def init_field(self, block: int, i: int, value: int) -> None:
        """Initializing write (no deletion barrier needed).

        Still records young pointers stored into major blocks — needed for
        large blocks allocated directly in the major heap.
        """
        addr = block + i * self._wb
        self.space.store(addr, value)
        if self.heap.is_in_heap(addr):
            self._dirty_add(addr >> self._dirty_shift)
            if self.is_young(value):
                self.reftable.add(addr)

    def mark_dirty_range(self, addr: int, n_words: int) -> None:
        """Mark major-heap words written outside the barrier (raw stores
        like minor-GC promotion copies) dirty for incremental
        checkpoints."""
        self.dirty.mark_range(addr, n_words)

    def block_payload(self, block: int) -> list[int]:
        """All payload words of a block (copy)."""
        size = self.size_of(block)
        return [self.field(block, i) for i in range(size)]

    # -- typed constructors -----------------------------------------------------------

    def make_block(self, tag: int, fields: list[int]) -> int:
        """Allocate and initialize a structured block."""
        if not fields:
            return self.atoms.atom(tag)
        block = self.alloc(len(fields), tag)
        for i, f in enumerate(fields):
            self.init_field(block, i, f)
        return block

    def make_string(self, data: bytes) -> int:
        """Allocate a STRING block holding ``data``."""
        words = self.strings.encode(data)
        block = self.alloc(len(words), STRING_TAG)
        for i, w in enumerate(words):
            self.init_field(block, i, w)
        return block

    def read_string(self, block: int) -> bytes:
        """Decode a STRING block back into bytes."""
        if self.tag_of(block) != STRING_TAG:
            raise VMRuntimeError("not a string block")
        return self.strings.decode(self.block_payload(block))

    def string_length(self, block: int) -> int:
        """``caml_string_length``."""
        return self.strings.byte_length(self.block_payload(block))

    def string_get(self, block: int, i: int) -> int:
        """Read byte ``i`` of a string block."""
        if not 0 <= i < self.string_length(block):
            raise VMRuntimeError("string index out of bounds")
        w = self.field(block, i // self._wb)
        return self.arch.byte_of_word(w, i % self._wb)

    def string_set(self, block: int, i: int, byte: int) -> None:
        """Write byte ``i`` of a string block."""
        if not 0 <= i < self.string_length(block):
            raise VMRuntimeError("string index out of bounds")
        wi = i // self._wb
        w = self.field(block, wi)
        self.set_field(
            block, wi, self.arch.set_byte_of_word(w, i % self._wb, byte)
        )

    def make_float(self, x: float) -> int:
        """Allocate a DOUBLE block holding ``x``."""
        words = self.floats.encode(x)
        block = self.alloc(len(words), DOUBLE_TAG)
        for i, w in enumerate(words):
            self.init_field(block, i, w)
        return block

    def read_float(self, block: int) -> float:
        """Decode a DOUBLE block."""
        if self.tag_of(block) != DOUBLE_TAG:
            raise VMRuntimeError("not a float block")
        return self.floats.decode(self.block_payload(block))
