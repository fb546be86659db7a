"""Tests for memory areas and the virtual address space."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import ARCH_32_LE, ARCH_64_LE
from repro.errors import AlignmentError, SegmentationFault
from repro.memory import AddressSpace, AreaKind, MemoryArea


def make_area(base=0x1000, n=16, kind=AreaKind.STACK):
    return MemoryArea(kind, base, n, ARCH_32_LE, label="t")


class TestMemoryArea:
    def test_geometry(self):
        a = make_area()
        assert a.n_words == 16
        assert a.size_bytes == 64
        assert a.end == 0x1040
        assert a.contains(0x1000)
        assert a.contains(0x103C)
        assert not a.contains(0x1040)

    def test_misaligned_base_rejected(self):
        with pytest.raises(AlignmentError):
            MemoryArea(AreaKind.STACK, 0x1002, 4, ARCH_32_LE)

    def test_load_store(self):
        a = make_area()
        a.store(0x1008, 42)
        assert a.load(0x1008) == 42
        assert a.words[2] == 42

    def test_out_of_range_access(self):
        a = make_area()
        with pytest.raises(SegmentationFault):
            a.load(0x1040)
        with pytest.raises(SegmentationFault):
            a.load(0x0FFC)

    def test_misaligned_access(self):
        a = make_area()
        with pytest.raises(AlignmentError):
            a.load(0x1001)

    def test_addr_index_inverse(self):
        a = make_area()
        for i in range(a.n_words):
            assert a.index_of(a.addr_of(i)) == i

    @pytest.mark.parametrize("runs", [
        [(1001, 4096), (77, 1), (1001, 4095)],  # an Array.make row
        [(2**64 - 1, 3), (3, 2), (5001, 2)],
        [(v, 1) for v in range(2001, 2041)],    # every word distinct
    ])
    def test_unstaged_words_share_one_int_per_run(self, runs):
        """Unboxing a staged area gives the words the staged array
        holds, each run of equal words as one int object — what
        ``[v] * n`` made before the checkpoint."""
        staged = np.concatenate(
            [np.full(n, v, dtype=np.uint64) for v, n in runs]
        )
        a = MemoryArea.from_staged(
            AreaKind.HEAP_CHUNK, 0x1000, staged.copy(), ARCH_64_LE
        )
        assert a.words == staged.tolist()
        assert len({id(w) for w in a.words}) <= len(runs)


class TestAddressSpace:
    def test_map_find(self):
        s = AddressSpace(ARCH_32_LE)
        a = s.map(make_area(0x1000))
        b = s.map(make_area(0x2000))
        assert s.find(0x1000) is a
        assert s.find(0x2004) is b
        assert s.find_or_none(0x3000) is None

    def test_overlap_rejected(self):
        s = AddressSpace(ARCH_32_LE)
        s.map(make_area(0x1000, 16))
        with pytest.raises(SegmentationFault):
            s.map(make_area(0x1020, 16))  # overlaps [0x1000, 0x1040)
        with pytest.raises(SegmentationFault):
            s.map(make_area(0x0FE0, 16))  # ends at 0x1020

    def test_unmap(self):
        s = AddressSpace(ARCH_32_LE)
        a = s.map(make_area(0x1000))
        s.unmap(a)
        with pytest.raises(SegmentationFault):
            s.find(0x1000)
        # Double unmap is an error.
        with pytest.raises(SegmentationFault):
            s.unmap(a)

    def test_global_load_store(self):
        s = AddressSpace(ARCH_32_LE)
        s.map(make_area(0x1000))
        s.store(0x1004, 7)
        assert s.load(0x1004) == 7

    def test_unmapped_access_faults(self):
        s = AddressSpace(ARCH_32_LE)
        with pytest.raises(SegmentationFault):
            s.load(0x9999000)

    def test_areas_sorted_and_filtered(self):
        s = AddressSpace(ARCH_32_LE)
        s.map(make_area(0x3000, kind=AreaKind.CODE))
        s.map(make_area(0x1000, kind=AreaKind.STACK))
        s.map(make_area(0x2000, kind=AreaKind.CODE))
        bases = [a.base for a in s.areas()]
        assert bases == sorted(bases)
        assert len(s.areas_of_kind(AreaKind.CODE)) == 2
