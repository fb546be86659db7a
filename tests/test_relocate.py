"""Unit tests for the boundary-compare address mapper (paper §3.2.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import VirtualMachine, VMConfig, compile_source, get_platform
from repro.checkpoint.format import read_checkpoint
from repro.checkpoint.relocate import AddressMapper
from repro.errors import RestartError
from repro.memory.layout import AreaKind

RODRIGO = get_platform("rodrigo")
SP2148 = get_platform("sp2148")


@pytest.fixture
def snapshot_and_vm(tmp_path):
    """A real checkpoint from rodrigo plus a fresh same-arch VM whose
    heap was restored, so chunk counts line up."""
    from tests.oracle import _restore_heap_chunks

    path = str(tmp_path / "m.hckp")
    code = compile_source('let l = [1; 2];; let s = "x";; checkpoint ();; print_int 1')
    origin = VirtualMachine(
        RODRIGO, code, VMConfig(chkpt_filename=path, chkpt_mode="blocking")
    )
    origin.run(max_instructions=100_000)
    snap = read_checkpoint(path)
    snap.heap_chunks = [(b, ws.tolist()) for b, ws in snap.heap_chunks]
    target = VirtualMachine(
        get_platform("pc8"), code, VMConfig(chkpt_state="disable"), boot=False
    )
    _restore_heap_chunks(target, snap)
    return snap, target


class TestAddressMapper:
    def test_heap_pointer_maps_by_chunk_offset(self, snapshot_and_vm):
        snap, vm = snapshot_and_vm
        mapper = AddressMapper(snap, vm)
        src_base, words = snap.heap_chunks[0]
        dst_base = vm.mem.heap.chunks[0].base
        assert mapper.map(src_base + 8) == dst_base + 8

    def test_code_pointer_maps_by_unit_index(self, snapshot_and_vm):
        snap, vm = snapshot_and_vm
        mapper = AddressMapper(snap, vm)
        code_area = next(a for a in snap.boundaries if a.kind == "code")
        assert mapper.map(code_area.base + 4 * 7) == vm.code_base + 4 * 7

    def test_one_past_end_code_pointer(self, snapshot_and_vm):
        snap, vm = snapshot_and_vm
        mapper = AddressMapper(snap, vm)
        code_area = next(a for a in snap.boundaries if a.kind == "code")
        end = code_area.base + 4 * code_area.n_words
        assert mapper.map(end) == vm.code_base + 4 * len(vm.code.units)

    def test_atom_maps_by_tag(self, snapshot_and_vm):
        snap, vm = snapshot_and_vm
        mapper = AddressMapper(snap, vm)
        atoms_area = next(
            a for a in snap.boundaries if a.kind == AreaKind.ATOMS.value
        )
        src_atom_3 = atoms_area.base + 4 * 4  # tag 3 on a 4-byte arch
        assert mapper.map(src_atom_3) == vm.mem.atoms.atom(3)

    def test_stack_maps_by_distance_from_high(self, snapshot_and_vm):
        snap, vm = snapshot_and_vm
        mapper = AddressMapper(snap, vm)
        stack_area = next(
            a for a in snap.boundaries if a.kind == AreaKind.STACK.value
        )
        src_high = stack_area.base + 4 * stack_area.n_words
        mapped = mapper.map(src_high - 12)
        assert mapped == vm.main_stack.stack_high - 12

    def test_unmapped_address_is_none(self, snapshot_and_vm):
        snap, vm = snapshot_and_vm
        mapper = AddressMapper(snap, vm)
        assert mapper.map(0xDEAD0000) is None
        assert mapper.map(0) is None

    def test_minor_heap_pointer_rejected(self, snapshot_and_vm):
        snap, vm = snapshot_and_vm
        mapper = AddressMapper(snap, vm)
        minor_area = next(
            a for a in snap.boundaries if a.kind == AreaKind.MINOR_HEAP.value
        )
        with pytest.raises(RestartError):
            mapper.map(minor_area.base + 4)

    def test_chunk_count_mismatch_rejected(self, snapshot_and_vm):
        snap, vm = snapshot_and_vm
        vm.mem.heap.add_chunk()  # now one more chunk than the snapshot
        with pytest.raises(RestartError):
            AddressMapper(snap, vm)

    def test_relocation_table_path(self, snapshot_and_vm):
        snap, vm = snapshot_and_vm
        src_base, _ = snap.heap_chunks[0]
        relocation = (
            np.asarray([src_base + 4], dtype=np.uint64),
            np.asarray([0x12345678], dtype=np.uint64),
        )
        mapper = AddressMapper(snap, vm, heap_relocation=relocation)
        assert mapper.map(src_base + 4) == 0x12345678
        # A heap address missing from the table is a dangling pointer.
        assert mapper.map(src_base + 12) is None
        assert mapper.dangling_pointers == 1
