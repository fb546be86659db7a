"""Tests for checkpoint policy: flags, intervals, env-var config."""

from __future__ import annotations

import inspect
import pathlib
import re
import time

import pytest

from repro import (
    VirtualMachine,
    VMConfig,
    compile_source,
    get_platform,
    restart_vm,
)
from repro.errors import CheckpointError

RODRIGO = get_platform("rodrigo")

SPIN = """
let r = ref 0;;
while !r < 150000 do r := !r + 1 done;;
print_int 1
"""


class TestVMConfigFromEnv:
    def test_defaults(self):
        cfg = VMConfig.from_env({})
        assert cfg.chkpt_state == "enable"
        assert cfg.chkpt_filename is None
        assert cfg.chkpt_interval is None

    def test_restart_state(self):
        cfg = VMConfig.from_env(
            {"CHKPT_STATE": "restart", "CHKPT_FILENAME": "/tmp/x.hckp"}
        )
        assert cfg.chkpt_state == "restart"
        assert cfg.chkpt_filename == "/tmp/x.hckp"

    def test_negative_interval_disables(self):
        cfg = VMConfig.from_env({"CHKPT_INTERVAL": "-1"})
        assert cfg.chkpt_interval is None

    def test_interval_parsed(self):
        cfg = VMConfig.from_env({"CHKPT_INTERVAL": "0.5"})
        assert cfg.chkpt_interval == 0.5
        # Garbage is ignored, like every other numeric knob.
        assert VMConfig.from_env({"CHKPT_INTERVAL": "soon"}).chkpt_interval is None

    def test_unknown_state_ignored(self):
        cfg = VMConfig.from_env({"CHKPT_STATE": "bogus"})
        assert cfg.chkpt_state == "enable"

    def test_readme_knob_table_lists_every_env_knob(self):
        read = re.findall(
            r'environ\.get\(\s*"(CHKPT_\w+)"', inspect.getsource(VMConfig.from_env)
        )
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        rows = re.findall(r"^\| `(CHKPT_\w+)` \|", readme.read_text(), re.M)
        assert rows == read and len(rows) == 10


class TestCheckpointPolicy:
    def test_disable_suppresses_user_checkpoints(self, tmp_path):
        path = str(tmp_path / "no.hckp")
        code = compile_source("checkpoint ();; print_int 1")
        vm = VirtualMachine(
            RODRIGO, code,
            VMConfig(chkpt_state="disable", chkpt_filename=path),
        )
        result = vm.run(max_instructions=100_000)
        assert result.stdout == b"1"
        assert vm.checkpoints_taken == 0
        import os

        assert not os.path.exists(path)

    def test_missing_filename_is_an_error(self):
        code = compile_source("checkpoint ();; print_int 1")
        vm = VirtualMachine(RODRIGO, code, VMConfig(chkpt_filename=None))
        with pytest.raises(CheckpointError):
            vm.run(max_instructions=100_000)

    def test_periodic_checkpoints_fire(self, tmp_path):
        """CHKPT_INTERVAL: system-initiated checkpoints at safe points."""
        path = str(tmp_path / "periodic.hckp")
        code = compile_source(SPIN)
        vm = VirtualMachine(
            RODRIGO, code,
            VMConfig(
                chkpt_filename=path,
                chkpt_interval=0.02,
                chkpt_mode="blocking",
            ),
        )
        result = vm.run(max_instructions=50_000_000)
        assert result.status == "stopped"
        assert vm.checkpoints_taken >= 2  # the loop runs well over 40 ms

    def test_periodic_checkpoint_is_restartable(self, tmp_path):
        path = str(tmp_path / "p2.hckp")
        code = compile_source(SPIN)
        vm = VirtualMachine(
            RODRIGO, code,
            VMConfig(
                chkpt_filename=path,
                chkpt_interval=0.02,
                chkpt_mode="blocking",
            ),
        )
        vm.run(max_instructions=50_000_000)
        assert vm.checkpoints_taken >= 1
        # The checkpoint landed mid-loop (a system-initiated safe point);
        # restarting resumes the loop and finishes.
        vm2, _ = restart_vm(RODRIGO, code, path)
        result = vm2.run(max_instructions=50_000_000)
        assert result.status == "stopped"
        assert result.stdout == b"1"

    def test_request_checkpoint_api(self, tmp_path):
        path = str(tmp_path / "api.hckp")
        code = compile_source(SPIN)
        vm = VirtualMachine(
            RODRIGO, code,
            VMConfig(chkpt_filename=path, chkpt_mode="blocking"),
        )
        vm.request_checkpoint()  # external request, e.g. a signal handler
        result = vm.run(max_instructions=50_000_000)
        assert result.status == "stopped"
        assert vm.checkpoints_taken == 1


class TestCGlobalsAcrossRestart:
    def test_registered_roots_are_restored(self, tmp_path):
        path = str(tmp_path / "cg.hckp")
        code = compile_source("checkpoint ();; print_int 7")
        vm = VirtualMachine(
            RODRIGO, code,
            VMConfig(chkpt_filename=path, chkpt_mode="blocking"),
        )
        # A "C extension" registers a root holding a heap value.
        slot = vm.mem.cglobals.alloc_slot()
        block = vm.mem.make_block(0, [vm.mem.values.val_int(99)])
        vm.mem.cglobals.store(slot, block)
        raw_slot = vm.mem.cglobals.alloc_slot(register_root=False, init=0xAB)
        vm.run(max_instructions=100_000)

        for target in ("rodrigo", "csd", "sp2148"):
            vm2, _ = restart_vm(get_platform(target), code, path)
            cg = vm2.mem.cglobals
            assert cg.used_words == 2
            root_addr = cg.root_addresses()[0]
            restored = cg.load(root_addr)
            assert vm2.mem.values.int_val(vm2.mem.field(restored, 0)) == 99
            # The raw (non-root) slot is carried over verbatim.
            assert cg.area.words[1] == 0xAB

    def test_registered_roots_survive_a_delta_chain(self, tmp_path):
        """Deltas that never touch the C-globals omit them; a restore
        takes them from the chain's base — from rotation files or from
        links held in memory alike."""
        from repro.checkpoint.format import read_checkpoint
        from repro.checkpoint.reader import ChainLink

        path = str(tmp_path / "cg.hckp")
        code = compile_source(
            "let r = ref 0;; checkpoint ();; r := 1;; checkpoint ();; "
            "r := 2;; checkpoint ();; print_int !r"
        )
        vm = VirtualMachine(
            RODRIGO, code,
            VMConfig(chkpt_filename=path, chkpt_mode="blocking",
                     chkpt_incremental=True, chkpt_retain=8),
        )
        slot = vm.mem.cglobals.alloc_slot()
        vm.mem.cglobals.store(
            slot, vm.mem.make_block(0, [vm.mem.values.val_int(99)])
        )
        vm.run(max_instructions=100_000)
        files = [path, path + ".1", path + ".2"]
        head = read_checkpoint(path).delta
        assert head.chain_depth == 2 and not head.has_cglobals
        links = [
            ChainLink(name, pathlib.Path(name).read_bytes()) for name in files
        ]
        for source in (path, links):
            vm2, _ = restart_vm(get_platform("sp2148"), code, source)
            cg = vm2.mem.cglobals
            assert cg.used_words == 1
            restored = cg.load(cg.root_addresses()[0])
            assert vm2.mem.values.int_val(vm2.mem.field(restored, 0)) == 99
            assert vm2.run().stdout == b"2"
