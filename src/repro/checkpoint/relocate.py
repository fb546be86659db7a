"""Pointer adjustment: saved boundary addresses -> new addresses (§3.2.2).

"During checkpointing, we save the memory boundaries of all these
areas.  Then, during restart, for each value, we first examine if it is
a pointer and into which memory area it was pointing.  We verify this
by comparing the pointer value with all the saved boundaries.  Lastly,
we adjust the pointer to the new address by adding the offset to the
beginning of the specified memory area."

The :class:`AddressMapper` implements exactly that, with the index-based
refinements cross-word-size restarts require: atom and C-global slots
are mapped by *index* (their byte offsets scale with the word size),
code addresses by 32-bit unit index, and heap pointers either by chunk
offset (same word size) or through the block relocation table built
while the heap was re-encoded.
"""

from __future__ import annotations

import bisect
from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.checkpoint.format import AreaRecord, VMSnapshot
from repro.errors import RestartError
from repro.memory.layout import AreaKind

# Row kinds of the vectorized mapping table (see AddressMapper.map_many).
_ROW_UNIFORM = 0
_ROW_STACK = 1
_ROW_HEAP_RELOC = 2
_ROW_BAD = 3

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm import VirtualMachine


class AddressMapper:
    """Maps source-machine addresses to target-machine addresses.

    Built from the target ``vm`` but keeps only the addresses it maps
    to (and the atom table), never the VM or its address space: a lazy
    restart's conversion thunks hold the mapper from inside the heap
    chunks they will convert.
    """

    def __init__(
        self,
        snap: VMSnapshot,
        vm: "VirtualMachine",
        heap_relocation: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        self.src_wb = snap.arch.word_bytes
        self.dst_wb = vm.platform.arch.word_bytes
        self._dst_code_base = vm.code_base
        self._dst_code_end = vm.code_end
        self._dst_atoms = vm.mem.atoms
        self._dst_cglobal_base = vm.mem.cglobals.area.base
        if heap_relocation is not None:
            keys, vals = heap_relocation
            order = np.argsort(keys)
            heap_relocation = (keys[order], vals[order])
        #: Block-exact relocation table (word-size-changing restarts):
        #: ``(source blocks, target blocks)``, two ``uint64`` arrays with
        #: the source blocks ascending.
        self.heap_relocation = heap_relocation
        # Target resolution tables.
        self._heap_chunk_targets: dict[int, int] = {}
        src_chunk_bases = [base for base, _ in snap.heap_chunks]
        dst_chunks = vm.mem.heap.chunks
        if heap_relocation is None:
            if len(src_chunk_bases) != len(dst_chunks):
                raise RestartError(
                    "heap chunk count mismatch between checkpoint and VM"
                )
            for src_base, chunk in zip(src_chunk_bases, dst_chunks):
                self._heap_chunk_targets[src_base] = chunk.base
        self._misses = 0
        self.refresh(snap, vm.sched.threads)

    def refresh(self, snap: VMSnapshot, threads: dict) -> None:
        """(Re)derive everything but the heap tables from ``snap`` and
        the target VM's ``threads``.

        The saved boundaries, the stack anchors and the code end belong
        to one generation — a stack that grew moved its low boundary —
        while the heap half (chunk targets, the relocation table) holds
        as long as the block layout does.  The in-place delta apply
        refreshes a long-lived mapper with each arriving generation;
        the VM's threads must already be that generation's.
        """
        #: Source areas sorted by base for binary search.
        self._areas: list[AreaRecord] = sorted(
            snap.boundaries, key=lambda a: a.base
        )
        self._bases = [a.base for a in self._areas]
        # Thread stacks: label -> (source high, target high).
        self._stack_highs: dict[str, tuple[int, int]] = {}
        by_label = {a.label: a for a in snap.boundaries}
        for t in threads.values():
            label = t.stack.label
            src = by_label.get(label)
            if src is not None:
                src_high = src.base + src.n_words * self.src_wb
                self._stack_highs[label] = (src_high, t.stack.stack_high)
        self._tables = None  # lazy vectorized mapping tables (map_many)
        code_rec = next((a for a in snap.boundaries if a.kind == "code"), None)
        #: One-past-the-end code address: a thread that ran off the end
        #: of the program (a finished thread's saved PC) parks here.
        self._code_end = (
            code_rec.base + 4 * code_rec.n_words if code_rec else None
        )

    # -- queries ----------------------------------------------------------------

    def source_area(self, addr: int) -> Optional[AreaRecord]:
        """Boundary-compare: which saved area contained this address?"""
        i = bisect.bisect_right(self._bases, addr) - 1
        if i >= 0:
            area = self._areas[i]
            if addr < area.base + area.n_words * self.src_wb:
                return area
        return None

    def map(self, addr: int) -> Optional[int]:
        """Adjust one pointer; ``None`` if it lies in no saved area."""
        if addr == self._code_end:
            return self._dst_code_end
        area = self.source_area(addr)
        if area is None:
            return None
        kind = area.kind
        if kind == AreaKind.HEAP_CHUNK.value:
            return self._map_heap(addr, area)
        if kind == "code":
            unit = (addr - area.base) // 4
            return self._dst_code_base + 4 * unit
        if kind == AreaKind.ATOMS.value:
            tag = (addr - area.base) // self.src_wb - 1
            return self._dst_atoms.atom(tag)
        if kind == AreaKind.C_GLOBALS.value:
            slot = (addr - area.base) // self.src_wb
            return self._dst_cglobal_base + slot * self.dst_wb
        if kind in (AreaKind.STACK.value, AreaKind.THREAD_STACK.value):
            highs = self._stack_highs.get(area.label)
            if highs is None:
                raise RestartError(f"no target stack for {area.label!r}")
            src_high, dst_high = highs
            slots_below_high = (src_high - addr) // self.src_wb
            return dst_high - slots_below_high * self.dst_wb
        if kind == AreaKind.MINOR_HEAP.value:
            # The writer ran a minor collection: nothing may point here.
            raise RestartError(
                "checkpoint contains a pointer into the (empty) young "
                "generation — corrupt file?"
            )
        raise RestartError(f"cannot map pointer into area kind {kind!r}")

    def _map_heap(self, addr: int, area: AreaRecord) -> Optional[int]:
        if self.heap_relocation is not None:
            keys, vals = self.heap_relocation
            i = int(keys.searchsorted(np.uint64(addr)))
            if i < keys.size and keys[i] == addr:
                return int(vals[i])
            # A pointer held by a dead (unreachable) block whose
            # referent was on the freelist and therefore not rebuilt.
            self._misses += 1
            return None
        return self._heap_chunk_targets[area.base] + (addr - area.base)

    @property
    def dangling_pointers(self) -> int:
        """Pointers into dropped free blocks (dead data only)."""
        return self._misses

    # -- vectorized mapping (restart fast path) -------------------------------

    def _ensure_tables(self):
        """Build the per-area mapping table used by :meth:`map_many`.

        Every area kind except stacks and the relocation-mode heap maps
        through one uniform formula ``A + ((addr - base) // d) * s``,
        with integer floor division matching the scalar code exactly
        (code pointers divide by the 4-byte unit size, atom and C-global
        slots by the source word size, same-word-size heap chunks by 1).
        Stacks anchor at the *high* end, so they keep a dedicated form.
        """
        if self._tables is not None:
            return self._tables
        n = len(self._areas)
        bases = np.zeros(n, dtype=np.uint64)
        ends = np.zeros(n, dtype=np.uint64)
        rows = np.zeros(n, dtype=np.uint8)
        A = np.zeros(n, dtype=np.uint64)
        d = np.ones(n, dtype=np.uint64)
        s = np.ones(n, dtype=np.uint64)
        src_wb, dst_wb = self.src_wb, self.dst_wb
        for i, area in enumerate(self._areas):
            bases[i] = area.base
            ends[i] = area.base + area.n_words * src_wb
            kind = area.kind
            if kind == AreaKind.HEAP_CHUNK.value:
                if self.heap_relocation is not None:
                    rows[i] = _ROW_HEAP_RELOC
                else:
                    A[i] = self._heap_chunk_targets[area.base]
            elif kind == "code":
                A[i], d[i], s[i] = self._dst_code_base, 4, 4
            elif kind == AreaKind.ATOMS.value:
                A[i], d[i], s[i] = self._dst_atoms.area.base, src_wb, dst_wb
            elif kind == AreaKind.C_GLOBALS.value:
                A[i], d[i], s[i] = self._dst_cglobal_base, src_wb, dst_wb
            elif kind in (AreaKind.STACK.value, AreaKind.THREAD_STACK.value):
                highs = self._stack_highs.get(area.label)
                if highs is None:
                    rows[i] = _ROW_BAD
                else:
                    rows[i] = _ROW_STACK
                    A[i] = highs[1]  # target stack high
            else:  # minor heap (or unknown): an error if ever targeted
                rows[i] = _ROW_BAD
        reloc_keys = reloc_vals = None
        if self.heap_relocation is not None:
            reloc_keys, reloc_vals = self.heap_relocation
        self._tables = (bases, ends, rows, A, d, s, reloc_keys, reloc_vals)
        return self._tables

    def map_many(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`map`: adjust a ``uint64`` address array.

        Returns ``(mapped, ok)``; where ``ok`` is False the address lay
        in no saved area (the scalar path's ``None``) and ``mapped`` is
        0.  Bit-identical to calling :meth:`map` per element.
        """
        bases, ends, rows, A, d, s, rkeys, rvals = self._ensure_tables()
        mapped = np.zeros(addrs.shape, dtype=np.uint64)
        ok = np.zeros(addrs.shape, dtype=bool)
        if self._code_end is not None:
            ce = addrs == np.uint64(self._code_end)
            if ce.any():
                mapped[ce] = self._dst_code_end
                ok[ce] = True
        else:
            ce = np.zeros(addrs.shape, dtype=bool)
        idx = np.searchsorted(bases, addrs, side="right").astype(np.int64) - 1
        safe = np.maximum(idx, 0)
        within = (idx >= 0) & (addrs < ends[safe]) & ~ce
        if not within.any():
            return mapped, ok
        r = safe[within]
        a = addrs[within]
        kinds = rows[r]
        res = np.zeros(a.shape, dtype=np.uint64)
        okw = np.ones(a.shape, dtype=bool)
        uni = kinds == _ROW_UNIFORM
        if uni.any():
            ru = r[uni]
            res[uni] = A[ru] + ((a[uni] - bases[ru]) // d[ru]) * s[ru]
        stk = kinds == _ROW_STACK
        if stk.any():
            rs = r[stk]
            below = (ends[rs] - a[stk]) // np.uint64(self.src_wb)
            res[stk] = A[rs] - below * np.uint64(self.dst_wb)
        rel = kinds == _ROW_HEAP_RELOC
        if rel.any() and (rkeys is None or rkeys.size == 0):
            okw[rel] = False
            self._misses += int(rel.sum())
            rel = np.zeros(a.shape, dtype=bool)
        if rel.any():
            ar = a[rel]
            pos = np.searchsorted(rkeys, ar)
            safe_pos = np.minimum(pos, rkeys.size - 1)
            hit = (pos < rkeys.size) & (rkeys[safe_pos] == ar)
            res[rel] = np.where(hit, rvals[safe_pos], np.uint64(0))
            okw[rel] = hit
            self._misses += int(ar.size - hit.sum())
        bad = kinds == _ROW_BAD
        if bad.any():
            offending = self._areas[int(r[bad][0])]
            if offending.kind == AreaKind.MINOR_HEAP.value:
                raise RestartError(
                    "checkpoint contains a pointer into the (empty) young "
                    "generation — corrupt file?"
                )
            raise RestartError(f"no target stack for {offending.label!r}")
        mapped[within] = res
        ok[within] = okw
        return mapped, ok
