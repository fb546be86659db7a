"""Portable value marshaling (the analogue of OCaml's ``Marshal``).

Turns a VM value graph — immediates, structured blocks, strings, boxed
doubles, with sharing and cycles — into an architecture-independent byte
string, and rebuilds it inside any VM, on any simulated platform.  The
cluster substrate uses this to pass messages between heterogeneous
nodes, and it is exactly the degenerate "eager conversion" alternative
to the paper's lazy checkpoint format: everything is converted to a
canonical form at *send* time.

Closures are not marshalable (their first field is a code pointer),
matching OCaml's default ``Marshal`` behaviour.
"""

from __future__ import annotations

import struct

from repro.errors import ReproError
from repro.memory.blocks import (
    CLOSURE_TAG,
    DOUBLE_TAG,
    NO_SCAN_TAG,
    STRING_TAG,
)
from repro.memory.manager import MemoryManager

_MAGIC = b"RMAR\x01"

_TAG_INT = 0x01
_TAG_BLOCK = 0x02
_TAG_STRING = 0x03
_TAG_DOUBLE = 0x04
_TAG_SHARED = 0x05
_TAG_ATOM = 0x06


class MarshalError(ReproError):
    """The value graph cannot be marshaled (e.g. it contains a closure)."""


def extern_value(mem: MemoryManager, root: int) -> bytes:
    """Marshal the value graph rooted at ``root`` into portable bytes."""
    out = bytearray(_MAGIC)
    # Preorder numbering of emitted blocks for sharing/cycles.
    seen: dict[int, int] = {}

    def emit(v: int) -> None:
        if mem.values.is_int(v):
            out.append(_TAG_INT)
            out.extend(struct.pack("<q", mem.values.int_val(v)))
            return
        # A pointer.  Atoms are zero-sized static blocks.
        if mem.atoms.contains(v):
            out.append(_TAG_ATOM)
            out.append(mem.atoms.tag_of(v))
            return
        if not mem.is_heap_block(v):
            raise MarshalError(
                f"value {v:#x} points outside the heap (a code or stack "
                f"address cannot be marshaled)"
            )
        if v in seen:
            out.append(_TAG_SHARED)
            out.extend(struct.pack("<I", seen[v]))
            return
        tag = mem.tag_of(v)
        size = mem.size_of(v)
        if tag == STRING_TAG:
            seen[v] = len(seen)
            data = mem.read_string(v)
            out.append(_TAG_STRING)
            out.extend(struct.pack("<I", len(data)))
            out.extend(data)
            return
        if tag == DOUBLE_TAG:
            seen[v] = len(seen)
            out.append(_TAG_DOUBLE)
            out.extend(struct.pack("<d", mem.read_float(v)))
            return
        if tag == CLOSURE_TAG:
            raise MarshalError("functional values cannot be marshaled")
        if tag >= NO_SCAN_TAG:
            raise MarshalError(f"abstract block (tag {tag}) cannot be marshaled")
        seen[v] = len(seen)
        out.append(_TAG_BLOCK)
        out.append(tag)
        out.extend(struct.pack("<I", size))
        for i in range(size):
            emit(mem.field(v, i))

    try:
        emit(root)
    finally:
        # A recursive closure refers to itself: unhook it, or it — and
        # ``mem``, which it closes over — lingers as cyclic garbage.
        emit = None
    return bytes(out)


def intern_value(mem: MemoryManager, data: bytes) -> int:
    """Rebuild a marshaled value graph inside ``mem``; returns the root.

    All blocks are allocated directly in the major heap, which never
    moves objects — so plain Python variables may hold block pointers
    across the allocations without extra rooting.
    """
    if data[: len(_MAGIC)] != _MAGIC:
        raise MarshalError("not a marshaled value (bad magic)")
    pos = len(_MAGIC)
    #: Blocks in preorder, for shared-reference resolution.
    blocks: list[int] = []

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise MarshalError("truncated marshaled value")
        chunk = data[pos : pos + n]
        pos += n
        return chunk

    def read() -> int:
        code = take(1)[0]
        if code == _TAG_INT:
            (n,) = struct.unpack("<q", take(8))
            return mem.values.val_int(n)
        if code == _TAG_ATOM:
            return mem.atoms.atom(take(1)[0])
        if code == _TAG_SHARED:
            (idx,) = struct.unpack("<I", take(4))
            try:
                return blocks[idx]
            except IndexError:
                raise MarshalError("dangling shared reference") from None
        if code == _TAG_STRING:
            (n,) = struct.unpack("<I", take(4))
            payload = mem.strings.encode(take(n))
            block = mem.alloc_shr(len(payload), STRING_TAG)
            for i, w in enumerate(payload):
                mem.init_field(block, i, w)
            blocks.append(block)
            return block
        if code == _TAG_DOUBLE:
            (x,) = struct.unpack("<d", take(8))
            payload = mem.floats.encode(x)
            block = mem.alloc_shr(len(payload), DOUBLE_TAG)
            for i, w in enumerate(payload):
                mem.init_field(block, i, w)
            blocks.append(block)
            return block
        if code == _TAG_BLOCK:
            tag = take(1)[0]
            (size,) = struct.unpack("<I", take(4))
            if size == 0:
                return mem.atoms.atom(tag)
            block = mem.alloc_shr(size, tag)
            # Pre-register before reading fields so cycles resolve.
            blocks.append(block)
            for i in range(size):
                mem.init_field(block, i, mem.values.val_unit)
            for i in range(size):
                mem.init_field(block, i, read())
            return block
        raise MarshalError(f"unknown marshal tag {code:#x}")

    try:
        root = read()
    finally:
        read = None  # as in extern_value: break the closure's self-reference
    if pos != len(data):
        raise MarshalError("trailing bytes after marshaled value")
    return root
