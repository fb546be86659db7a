"""Major collection: incremental mark-sweep over the old generation (§2.4.2).

A cycle is a sequence of *mark slices* followed by *sweep slices*:

* marking uses the gray-value stack ``grayvals`` for mostly-depth-first
  traversal; if the stack overflows the heap becomes *impure* and a
  rescan from the marking pointer ``markhp`` finds the gray blocks left
  behind;
* sweeping walks the chunks linearly, turning white blocks blue (onto the
  freelist, merging adjacent dead blocks) and black blocks white.

The collector never runs on its own thread — slices are executed by the
allocating mutator via the :class:`~repro.gc.controller.GCController`.
"""

from __future__ import annotations

from repro.gc.roots import RootProvider
from repro.memory.blocks import Color
from repro.memory.heap import NULL
from repro.memory.manager import MemoryManager, Phase

#: Default capacity of the gray-value stack before the heap turns impure.
DEFAULT_GRAYVALS_LIMIT = 2048


class MajorCollector:
    """Incremental mark-sweep collector for the major heap."""

    def __init__(
        self,
        mem: MemoryManager,
        roots: RootProvider,
        grayvals_limit: int = DEFAULT_GRAYVALS_LIMIT,
    ) -> None:
        self.mem = mem
        self.roots = roots
        #: Stack of gray block pointers (paper §2.4.1, ``grayvals``).
        self.grayvals: list[int] = []
        self.grayvals_limit = grayvals_limit
        #: False when grayvals overflowed and gray blocks may hide in the
        #: heap below ``markhp`` (paper: "the heap becomes impure").
        self.heap_pure = True
        #: Chunk index / word index of the heap rescan pointer.
        self._mark_chunk = 0
        self._mark_word = 0
        #: Sweep position.
        self._sweep_chunk = 0
        self._sweep_word = 0
        #: Statistics.
        self.cycles_completed = 0
        self.mark_slices = 0
        self.sweep_slices = 0
        self.words_swept_free = 0

    # -- state predicates ----------------------------------------------------

    @property
    def phase(self) -> Phase:
        """Where the cycle stands; stored on the memory manager, whose
        write barrier and major allocator test it."""
        return self.mem.major_phase

    @phase.setter
    def phase(self, phase: Phase) -> None:
        self.mem.major_phase = phase

    @property
    def is_marking(self) -> bool:
        """True while the collector is in its mark phase."""
        return self.phase is Phase.MARK

    def allocation_color(self, block: int) -> Color:
        """Color for a block freshly allocated in the major heap.

        Black while marking (new objects are trivially live for this
        cycle).  While sweeping: blocks at or beyond the sweep pointer
        must be black so the sweeper will repaint them white rather than
        free them; blocks behind it are already swept and stay white.
        """
        if self.phase is Phase.MARK:
            return Color.BLACK
        if self.phase is Phase.SWEEP and not self._sweep_passed(block):
            return Color.BLACK
        return Color.WHITE

    def _sweep_passed(self, block: int) -> bool:
        chunks = self.mem.heap.chunks
        if self._sweep_chunk >= len(chunks):
            return True
        chunk = chunks[self._sweep_chunk]
        header_addr = block - self.mem.arch.word_bytes
        for i, c in enumerate(chunks):
            if c.base <= header_addr < c.end:
                if i < self._sweep_chunk:
                    return True
                if i > self._sweep_chunk:
                    return False
                return header_addr < chunk.base + self._sweep_word * self.mem.arch.word_bytes
        return False

    # -- cycle control -----------------------------------------------------------

    def start_cycle(self) -> None:
        """Begin a new cycle: gray all roots, enter the mark phase.

        Must only be called when the young generation is empty (i.e.
        immediately after a minor collection), which is what keeps the
        incremental invariant sound.
        """
        if self.phase is not Phase.IDLE:
            raise RuntimeError("major GC cycle already in progress")
        if not self.mem.minor.is_empty():
            raise RuntimeError("cannot start a major cycle with live young data")
        self.phase = Phase.MARK
        self.heap_pure = True
        self._mark_chunk = 0
        self._mark_word = 0
        for slot in self.roots.iter_roots():
            self.darken(slot.load())

    def darken(self, v: int) -> None:
        """``Darken``: gray a white major-heap block and remember it."""
        mem = self.mem
        if not (mem.values.is_block(v) and mem.heap.is_in_heap(v)):
            return
        hd = mem.heap.load_header(v)
        if mem.headers.color(hd) is Color.WHITE:
            mem.heap.store_header(
                v, mem.headers.with_color(hd, Color.GRAY)
            )
            if len(self.grayvals) < self.grayvals_limit:
                self.grayvals.append(v)
            else:
                # Stack overflow: leave the block gray in the heap; a
                # rescan pass will find it (paper: "a second marking pass
                # is needed").
                self.heap_pure = False

    # -- mark phase ---------------------------------------------------------------

    def mark_slice(self, work: int) -> int:
        """Run up to ``work`` words of marking; returns work done."""
        mem = self.mem
        headers = mem.headers
        heap = mem.heap
        done = 0
        self.mark_slices += 1
        while done < work:
            if self.grayvals:
                block = self.grayvals.pop()
                hd = heap.load_header(block)
                size = headers.size(hd)
                if headers.scannable(hd):
                    for i in range(size):
                        self.darken(heap.field(block, i))
                heap.store_header(
                    block, headers.with_color(hd, Color.BLACK)
                )
                done += size + 1
                continue
            if not self.heap_pure:
                # Rescan for gray blocks missed by the overflowed stack.
                self.heap_pure = True
                self._mark_chunk = 0
                self._mark_word = 0
            advanced = self._rescan_step(work - done)
            done += advanced
            if advanced == 0:
                # Marking pointer reached the end of the heap, the stack
                # is empty and the heap is pure: the mark phase is over.
                self._finish_mark()
                break
        return done

    def _rescan_step(self, budget: int) -> int:
        """Advance ``markhp`` looking for gray blocks; returns words walked."""
        mem = self.mem
        heap = mem.heap
        headers = mem.headers
        walked = 0
        chunks = heap.chunks
        while self._mark_chunk < len(chunks) and walked < max(budget, 1):
            chunk = chunks[self._mark_chunk]
            words = chunk.area.words
            if self._mark_word >= len(words):
                self._mark_chunk += 1
                self._mark_word = 0
                continue
            hd = words[self._mark_word]
            size = headers.size(hd)
            if headers.color(hd) is Color.GRAY:
                block = chunk.base + (self._mark_word + 1) * mem.arch.word_bytes
                if len(self.grayvals) < self.grayvals_limit:
                    self.grayvals.append(block)
                    walked += 1
                    self._mark_word += 1 + size
                    continue
                self.heap_pure = False
                return walked + 1  # stack full again; try later
            self._mark_word += 1 + size
            walked += 1
        return walked

    def _finish_mark(self) -> None:
        self.phase = Phase.SWEEP
        self._sweep_chunk = 0
        self._sweep_word = 0

    # -- sweep phase -----------------------------------------------------------------

    def sweep_slice(self, work: int) -> int:
        """Run up to ``work`` words of sweeping; returns work done."""
        mem = self.mem
        heap = mem.heap
        headers = mem.headers
        done = 0
        self.sweep_slices += 1
        chunks = heap.chunks
        while done < work and self._sweep_chunk < len(chunks):
            chunk = chunks[self._sweep_chunk]
            words = chunk.area.words
            if self._sweep_word >= len(words):
                self._sweep_chunk += 1
                self._sweep_word = 0
                continue
            i = self._sweep_word
            hd = words[i]
            size = headers.size(hd)
            color = headers.color(hd)
            if color is Color.WHITE:
                # Dead: merge with following dead/fragment blocks, then
                # free as one blue block.
                end = i + 1 + size
                merged = size
                hm = chunk.header_map
                while end < len(words):
                    nhd = words[end]
                    if headers.color(nhd) is not Color.WHITE:
                        break
                    if hm is not None:
                        hm[end] = 0
                    merged += 1 + headers.size(nhd)
                    end += 1 + headers.size(nhd)
                # Direct header write (no store_header): mark its dirty
                # region by hand for incremental checkpoints.
                heap.dirty_regions.add(
                    (chunk.base + i * mem.arch.word_bytes) >> heap.dirty_shift
                )
                words[i] = headers.make(0, Color.WHITE, merged)
                if merged >= 1:
                    block = chunk.base + (i + 1) * mem.arch.word_bytes
                    heap.free_block(block)
                # A zero-sized run stays behind as a white fragment; it
                # cannot carry a freelist link.
                self.words_swept_free += merged + 1
                done += merged + 1
                self._sweep_word = end
            elif color is Color.BLACK:
                heap.dirty_regions.add(
                    (chunk.base + i * mem.arch.word_bytes) >> heap.dirty_shift
                )
                words[i] = headers.with_color(hd, Color.WHITE)
                done += size + 1
                self._sweep_word = i + 1 + size
            else:
                # BLUE (already free) or GRAY (impossible after marking).
                done += size + 1
                self._sweep_word = i + 1 + size
        if self._sweep_chunk >= len(chunks):
            self._finish_sweep()
        return done

    def _finish_sweep(self) -> None:
        self.phase = Phase.IDLE
        self.cycles_completed += 1

    # -- driving ----------------------------------------------------------------------

    def run_slice(self, work: int) -> int:
        """Run one slice of whatever phase is active; returns work done."""
        if self.phase is Phase.MARK:
            return self.mark_slice(work)
        if self.phase is Phase.SWEEP:
            return self.sweep_slice(work)
        return 0

    def finish_cycle(self) -> None:
        """Run the current cycle to completion (used by full_major)."""
        guard = 0
        while self.phase is not Phase.IDLE:
            self.run_slice(1 << 20)
            guard += 1
            if guard > 1 << 16:  # pragma: no cover - corruption guard
                raise RuntimeError("major GC failed to terminate")
