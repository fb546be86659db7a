"""Tests for the core-dump baseline checkpointer (paper §1, §5.1)."""

from __future__ import annotations

import os

import pytest

from repro import (
    VirtualMachine,
    VMConfig,
    compile_source,
    get_platform,
)
from repro.errors import IncompatibleCheckpointError
from tests.homogeneous import HomogeneousCheckpointer

RODRIGO = get_platform("rodrigo")
CSD = get_platform("csd")

PROGRAM = """
let rec build n acc = if n = 0 then acc else build (n - 1) (n :: acc);;
let rec sum l = match l with [] -> 0 | h :: t -> h + sum t;;
let data = build 200 [];;
print_int (sum data)
"""


def run_and_dump(tmp_path, platform=RODRIGO):
    code = compile_source(PROGRAM)
    vm = VirtualMachine(platform, code, VMConfig(chkpt_state="disable"))
    # Run partially, then dump mid-flight.
    status = vm.run(max_instructions=2000)
    assert status.status == "budget"
    path = str(tmp_path / "core.dump")
    size = HomogeneousCheckpointer(vm).save(path)
    return code, vm, path, size


class TestHomogeneousBaseline:
    def test_same_platform_restore_continues(self, tmp_path):
        code, vm, path, _ = run_and_dump(tmp_path)
        reference = vm.run(max_instructions=10_000_000)
        assert reference.status == "stopped"
        # Restore the dump into a fresh VM on the identical platform.
        vm2 = VirtualMachine(RODRIGO, code, VMConfig(chkpt_state="disable"))
        HomogeneousCheckpointer(vm2).restore(path)
        result = vm2.run(max_instructions=10_000_000)
        assert result.status == "stopped"
        assert result.stdout == reference.stdout == b"20100"

    def test_cross_platform_restore_refused(self, tmp_path):
        code, _, path, _ = run_and_dump(tmp_path)
        vm2 = VirtualMachine(CSD, code, VMConfig(chkpt_state="disable"))
        with pytest.raises(IncompatibleCheckpointError):
            HomogeneousCheckpointer(vm2).restore(path)

    def test_wrong_program_refused(self, tmp_path):
        _, _, path, _ = run_and_dump(tmp_path)
        other = compile_source("print_int 1")
        vm2 = VirtualMachine(RODRIGO, other, VMConfig(chkpt_state="disable"))
        with pytest.raises(IncompatibleCheckpointError):
            HomogeneousCheckpointer(vm2).restore(path)

    def test_core_dump_is_larger_than_heterogeneous_checkpoint(self, tmp_path):
        """The paper's §5.1 size claim: dumping only the logical state
        (live heap + used stack) beats dumping the whole process image."""
        code = compile_source(PROGRAM)
        ck_path = str(tmp_path / "h.hckp")
        vm = VirtualMachine(
            RODRIGO, code,
            VMConfig(chkpt_filename=ck_path, chkpt_mode="blocking"),
        )
        vm.run(max_instructions=2000)
        vm.perform_checkpoint()
        hetero_size = vm.last_checkpoint_stats.file_bytes
        core_path = str(tmp_path / "core.dump")
        core_size = HomogeneousCheckpointer(vm).save(core_path)
        assert hetero_size > 0
        assert core_size > hetero_size

    def test_corrupt_dump_rejected(self, tmp_path):
        code, _, path, _ = run_and_dump(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[100] ^= 0x5A
        with open(path, "wb") as f:
            f.write(bytes(data))
        vm2 = VirtualMachine(RODRIGO, code, VMConfig(chkpt_state="disable"))
        from repro.errors import CheckpointFormatError

        with pytest.raises(CheckpointFormatError):
            HomogeneousCheckpointer(vm2).restore(path)
