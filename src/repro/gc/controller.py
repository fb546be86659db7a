"""GC pacing: one major slice after every minor collection (§2.4.2-2.4.3).

"The amount of marking (resp. sweeping) to do in a mark (resp. sweep)
slice is determined by the total size of the live values being promoted
from the young generation in the preceding minor collection: the more
promotions, the more garbage collection work must be done."

There is no dedicated GC thread: the mutator that triggered the failed
young allocation performs the minor collection and the following major
slice itself (§2.4.3).
"""

from __future__ import annotations

from repro.gc.major import MajorCollector, Phase
from repro.gc.minor import MinorCollector
from repro.gc.roots import RootProvider
from repro.memory.manager import MemoryManager

#: Minimum slice size in words, so progress is made even when little was
#: promoted.
MIN_SLICE_WORDS = 512

#: Slice work per promoted/allocated word.  Plays the role of OCaml's
#: ``space_overhead`` knob: higher values collect more aggressively.
DEFAULT_SPEED = 1.5


class GCController:
    """Drives minor collections and paces major slices."""

    def __init__(
        self,
        mem: MemoryManager,
        roots: RootProvider,
        speed: float = DEFAULT_SPEED,
        grayvals_limit: int | None = None,
    ) -> None:
        self.mem = mem
        self.roots = roots
        self.speed = speed
        self.minor = MinorCollector(mem, roots)
        kwargs = {}
        if grayvals_limit is not None:
            kwargs["grayvals_limit"] = grayvals_limit
        self.major = MajorCollector(mem, roots, **kwargs)
        #: When True, collections are suppressed entirely.  Restart sets
        #: this while memory is being rebuilt (paper §3.2.2: "during
        #: restart the garbage collector should not work").
        self.disabled = False
        mem.attach_collector(self)

    # -- entry points -----------------------------------------------------------

    def minor_collection(self) -> int:
        """Minor collection + one paced major slice; returns promoted words."""
        if self.disabled:
            raise RuntimeError("allocation required a GC while GC is disabled")
        promoted = self.minor.collect()
        self.major_slice(promoted)
        return promoted

    def major_slice(self, promoted_words: int) -> int:
        """One slice of major work, paced by promotion volume."""
        if self.disabled:
            return 0
        mem = self.mem
        pending = promoted_words + mem.heap.allocated_words
        mem.heap.allocated_words = 0
        work = max(MIN_SLICE_WORDS, int(pending * self.speed))
        if self.major.phase is Phase.IDLE:
            # A new cycle may only start while the young generation is
            # empty; that is guaranteed right after a minor collection.
            if mem.minor.is_empty():
                self.major.start_cycle()
            else:
                return 0
        return self.major.run_slice(work)

    def full_major(self) -> None:
        """Run a complete major cycle (minor first, as OCaml does)."""
        if self.disabled:
            raise RuntimeError("GC is disabled")
        self.minor.collect()
        self.major.finish_cycle()
        if self.mem.minor.is_empty():
            self.major.start_cycle()
            self.major.finish_cycle()

    def compact(self):
        """Full compaction: see :func:`repro.gc.compact.compact`."""
        from repro.gc.compact import compact

        return compact(self)

    def stat(self) -> dict[str, int]:
        """Counters in the spirit of OCaml's ``Gc.stat``."""
        heap = self.mem.heap
        return {
            "minor_collections": self.minor.collections,
            "major_cycles": self.major.cycles_completed,
            "promoted_words": self.minor.total_promoted_words,
            "heap_words": heap.total_words(),
            "live_words": heap.live_words(),
            "free_words": heap.free_words(),
            "heap_chunks": len(heap.chunks),
            "minor_used_words": self.mem.minor.used_words,
            "mark_slices": self.major.mark_slices,
            "sweep_slices": self.major.sweep_slices,
        }
