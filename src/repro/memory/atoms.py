"""The atom table (paper §2.2.1).

256 statically allocated zero-sized blocks, one per possible tag, living
*outside* the heap.  ``Atom(t)`` is a pointer to the (empty) payload of
the ``t``-th entry; it is how OCaml represents ``[||]``, constant
constructors of abstract types, etc.  The table is part of the
checkpointed data (paper §4.1 step 9) and its pointers are adjusted on
restart like any others, using the saved area boundaries.
"""

from __future__ import annotations

from repro.arch.architecture import Architecture
from repro.memory.blocks import Color, HeaderCodec
from repro.memory.layout import AddressSpace, AreaKind, MemoryArea

#: Number of entries (one per possible 8-bit tag).
ATOM_COUNT = 256


class AtomTable:
    """The static table of 256 zero-sized blocks."""

    def __init__(self, space: AddressSpace, arch: Architecture, base: int) -> None:
        self.arch = arch
        self._wb = arch.word_bytes
        headers = HeaderCodec(arch)
        # Each entry is a lone header word; the atom pointer addresses the
        # (empty) payload just after it, so the table is ATOM_COUNT + 1
        # words: header_0 .. header_255 plus one trailing word so that
        # Atom(255) is still a mappable address.
        self.area = MemoryArea(
            AreaKind.ATOMS, base, ATOM_COUNT + 1, arch, label="atom-table"
        )
        # The tag is the header's low field: entry t is the empty white
        # header with t or'd in.
        white = headers.make(0, Color.WHITE, 0)
        self.area.words[:ATOM_COUNT] = [white | t for t in range(ATOM_COUNT)]
        space.map(self.area)

    def atom(self, tag: int) -> int:
        """``Atom(tag)``: pointer value of the ``tag``-th atom."""
        if not 0 <= tag < ATOM_COUNT:
            raise ValueError(f"atom tag {tag} out of range")
        return self.area.base + (tag + 1) * self._wb

    def contains(self, addr: int) -> bool:
        """True if ``addr`` points into the atom table."""
        return self.area.contains(addr)

    def tag_of(self, addr: int) -> int:
        """Recover the tag of an atom pointer."""
        return (addr - self.area.base) // self._wb - 1
