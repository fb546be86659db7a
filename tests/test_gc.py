"""Tests for the generational garbage collector."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.platforms import RODRIGO
from repro.gc import GCController, MajorCollector, MinorCollector, Phase
from repro.gc.roots import AttrSlot
from repro.memory import Color, MemoryManager
from repro.memory.minor_heap import MAX_YOUNG_WOSIZE


class Roots:
    """A trivial root provider: a fixed set of named attributes."""

    def __init__(self, mem, n=4):
        self.mem = mem
        for i in range(n):
            setattr(self, f"r{i}", mem.values.val_unit)
        self._n = n

    def iter_roots(self):
        for i in range(self._n):
            yield AttrSlot(self, f"r{i}")


def setup(minor_words=256, **kw):
    mem = MemoryManager(RODRIGO, minor_words=minor_words, chunk_words=2048)
    roots = Roots(mem)
    gc = GCController(mem, roots, **kw)
    return mem, roots, gc


class TestMinorCollection:
    def test_promotes_reachable_young_block(self):
        mem, roots, gc = setup()
        v = mem.values
        b = mem.make_block(0, [v.val_int(7), v.val_int(8)])
        roots.r0 = b
        promoted = gc.minor.collect()
        assert promoted == 3  # header + 2 fields
        nb = roots.r0
        assert nb != b
        assert mem.is_in_heap(nb)
        assert v.int_val(mem.field(nb, 0)) == 7
        assert mem.minor.is_empty()

    def test_unreachable_young_data_dropped(self):
        mem, roots, gc = setup()
        mem.make_block(0, [mem.values.val_int(1)])
        assert gc.minor.collect() == 0
        assert mem.minor.is_empty()

    def test_graph_structure_preserved(self):
        mem, roots, gc = setup()
        v = mem.values
        leaf = mem.make_block(0, [v.val_int(5)])
        # Two parents sharing one leaf, plus a cycle through field 1.
        p1 = mem.make_block(1, [leaf, v.val_int(0)])
        p2 = mem.make_block(2, [leaf, p1])
        mem.set_field(p1, 1, p2)  # cycle
        roots.r0 = p1
        gc.minor.collect()
        np1, = [roots.r0]
        np2 = mem.field(np1, 1)
        assert mem.tag_of(np1) == 1 and mem.tag_of(np2) == 2
        # Sharing preserved: both parents reference the same leaf copy.
        assert mem.field(np1, 0) == mem.field(np2, 0)
        # Cycle preserved.
        assert mem.field(np2, 1) == np1

    def test_reftable_entries_updated_and_cleared(self):
        mem, roots, gc = setup()
        v = mem.values
        big = mem.alloc(MAX_YOUNG_WOSIZE + 1, 0)
        roots.r0 = big
        young = mem.make_block(0, [v.val_int(3)])
        mem.set_field(big, 0, young)
        assert mem.reftable
        gc.minor.collect()
        assert not mem.reftable
        promoted = mem.field(big, 0)
        assert mem.is_in_heap(promoted)
        assert v.int_val(mem.field(promoted, 0)) == 3

    def test_strings_promoted_opaque(self):
        mem, roots, gc = setup()
        s = mem.make_string(b"keep me")
        roots.r1 = s
        gc.minor.collect()
        assert mem.read_string(roots.r1) == b"keep me"

    def test_automatic_minor_gc_on_pressure(self):
        mem, roots, gc = setup(minor_words=128)
        v = mem.values
        keep = mem.make_block(0, [v.val_int(0)])
        roots.r0 = keep
        # Allocate enough garbage to force several minor collections.
        for i in range(200):
            mem.make_block(0, [v.val_int(i)])
        assert gc.minor.collections >= 2
        assert v.int_val(mem.field(roots.r0, 0)) == 0


class TestMajorCollection:
    def test_full_major_reclaims_garbage(self):
        mem, roots, gc = setup()
        v = mem.values
        keep = mem.make_block(0, [v.val_int(1)])
        roots.r0 = keep
        for i in range(100):
            mem.make_block(0, [v.val_int(i), v.val_int(i)])
        gc.full_major()
        live_before = mem.heap.live_words()
        # Everything except the kept block (and fragments) is free again.
        gc.full_major()
        assert mem.heap.live_words() == live_before
        assert v.int_val(mem.field(roots.r0, 0)) == 1
        mem.heap.check_integrity()

    def test_colors_after_full_cycle(self):
        mem, roots, gc = setup()
        v = mem.values
        roots.r0 = mem.make_block(0, [v.val_int(1)])
        gc.full_major()
        # After a complete cycle every block is white (live), blue (free)
        # or a white fragment; never gray or black.
        for _, _, hd in mem.heap.iter_blocks():
            assert mem.headers.color(hd) in (Color.WHITE, Color.BLUE)

    def test_incremental_slices_eventually_finish(self):
        mem, roots, gc = setup()
        v = mem.values
        roots.r0 = mem.make_block(0, [v.val_int(1), v.val_int(2)])
        gc.minor.collect()
        gc.major.start_cycle()
        guard = 0
        while gc.major.phase is not Phase.IDLE:
            gc.major.run_slice(8)
            guard += 1
            assert guard < 100_000
        assert gc.major.cycles_completed == 1
        mem.heap.check_integrity()

    def test_grayvals_overflow_forces_rescan(self):
        mem, roots, gc = setup(grayvals_limit=2)
        v = mem.values
        # A long linked list overflows a 2-entry gray stack.
        lst = v.val_int(0)
        for i in range(50):
            lst = mem.make_block(0, [v.val_int(i), lst])
        roots.r0 = lst
        gc.minor.collect()
        gc.major.start_cycle()
        gc.major.finish_cycle()
        # All list cells survive.
        n, cur = 0, roots.r0
        while v.is_block(cur):
            n += 1
            cur = mem.field(cur, 1)
        assert n == 50
        mem.heap.check_integrity()

    def test_deletion_barrier_keeps_snapshot_alive(self):
        mem, roots, gc = setup()
        v = mem.values
        inner = mem.make_block(0, [v.val_int(42)])
        outer = mem.make_block(0, [inner])
        roots.r0 = outer
        gc.minor.collect()
        inner_major = mem.field(roots.r0, 0)
        gc.major.start_cycle()
        # Overwrite the only pointer to `inner` mid-mark: the deletion
        # barrier must gray the old value so it survives this cycle.
        mem.set_field(roots.r0, 0, v.val_int(0))
        gc.major.finish_cycle()
        hd = mem.heap.load_header(inner_major)
        assert mem.headers.color(hd) is not Color.BLUE
        assert v.int_val(mem.field(inner_major, 0)) == 42

    def test_allocation_during_mark_is_black(self):
        mem, roots, gc = setup()
        gc.minor.collect()
        gc.major.start_cycle()
        assert gc.major.is_marking
        b = mem.alloc_shr(3, 0)
        hd = mem.heap.load_header(b)
        assert mem.headers.color(hd) is Color.BLACK

    def test_promotion_during_mark_survives(self):
        mem, roots, gc = setup()
        v = mem.values
        gc.minor.collect()
        gc.major.start_cycle()
        young = mem.make_block(0, [v.val_int(9)])
        roots.r0 = young
        gc.minor.collect()  # promotes while marking
        gc.major.finish_cycle()
        gc.full_major()
        assert v.int_val(mem.field(roots.r0, 0)) == 9

    def test_pacing_does_work_after_minor(self):
        mem, roots, gc = setup(minor_words=128)
        v = mem.values
        keep = []
        lst = v.val_int(0)
        for i in range(300):
            lst = mem.make_block(0, [v.val_int(i), lst])
            roots.r0 = lst
        # Slices ran as part of the automatic collections.
        assert gc.major.mark_slices + gc.major.sweep_slices > 0


class TestController:
    def test_disabled_gc_raises_on_pressure(self):
        mem, roots, gc = setup(minor_words=64)
        gc.disabled = True
        with pytest.raises(RuntimeError):
            for _ in range(100):
                mem.make_block(0, [mem.values.val_int(0)])

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=5, max_size=60))
    def test_random_mutation_preserves_reachable_values(self, ops):
        """Random allocate/drop/mutate churn never corrupts live data."""
        mem, roots, gc = setup(minor_words=128)
        v = mem.values
        expected = {}
        counter = 0
        for op in ops:
            if op in (0, 1):  # allocate and root it
                counter += 1
                slot = f"r{counter % 4}"
                b = mem.make_block(0, [v.val_int(counter)])
                setattr(roots, slot, b)
                expected[slot] = counter
            elif op == 2:  # drop a root
                slot = f"r{counter % 4}"
                setattr(roots, slot, v.val_unit)
                expected.pop(slot, None)
            else:  # churn garbage
                for i in range(30):
                    mem.make_block(0, [v.val_int(i)])
        gc.full_major()
        for slot, val in expected.items():
            b = getattr(roots, slot)
            assert v.int_val(mem.field(b, 0)) == val
        mem.heap.check_integrity()
