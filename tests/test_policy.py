"""Tests for checkpoint policy: flags, intervals, env-var config."""

from __future__ import annotations

import inspect
import pathlib
import re
import time

import pytest

from repro import cli
from repro import (
    VirtualMachine,
    VMConfig,
    compile_source,
    get_platform,
    restart_vm,
)
from repro.errors import CheckpointError
from repro.vm import knob_table, knobs

RODRIGO = get_platform("rodrigo")
ROOT = pathlib.Path(__file__).parents[1]

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
        table = knob_table()
        assert table in (ROOT / "README.md").read_text()
        assert len(re.findall(r"^\| `CHKPT_\w+` \|", table, re.M)) == 10
        assert "\n| — | `--mode` |" in table


# Every knob with both a variable and a flag: raw strings and the value
# both routes must give them, then strings both routes must refuse.
BOTH_WAYS = {
    "chkpt_filename": ({"a.hckp": "a.hckp"}, []),
    "chkpt_interval": ({"0.5": 0.5, " 2 ": 2.0, "-1": None}, ["soon", ""]),
    "dispatch": (
        {"fast": "fast", " FAST ": "fast", "reference": "reference"},
        ["turbo", ""],
    ),
    "chkpt_retain": ({"0": 0, "3": 3, " 4 ": 4}, ["-1", "two", "1.5"]),
    "chkpt_incremental": (
        {"1": True, "on": True, "0": False, "false": False, "no": False,
         "off": False},
        [],
    ),
    "chkpt_full_every": ({"0": 0, "1": 1, "8": 8}, ["-2", "-3", "x"]),
    "chkpt_dirty_threshold": (
        {"0": 0.0, "0.25": 0.25, "1": 1.0},
        ["nan", "1.5", "-0.1", "half"],
    ),
    "chkpt_region_words": (
        {"1": 1, "512": 512, " 1024 ": 1024},
        ["1000", "0", "-4", "x"],
    ),
    "lazy_restore": ({"1": True, "on": True, "off": False}, []),
}
KNOBS = {name: knob for name, _, knob in knobs()}


class TestKnobsDeclaredOnce:
    def test_table_covers_every_knob_with_flag_and_variable(self):
        assert set(BOTH_WAYS) == {
            name for name, knob in KNOBS.items() if knob.env and knob.flag
        }

    @pytest.mark.parametrize("name", sorted(BOTH_WAYS))
    def test_flag_and_variable_agree(self, name, tmp_path, monkeypatch):
        knob = KNOBS[name]
        default = getattr(VMConfig(), name)
        for env in (k.env for k in KNOBS.values() if k.env):
            monkeypatch.delenv(env, raising=False)
        prog = tmp_path / "p.ml"
        prog.write_text("print_int 1")
        valid, refused = BOTH_WAYS[name]
        for raw, value in valid.items():
            assert getattr(VMConfig.from_env({knob.env: raw}), name) == value
            if isinstance(default, bool):  # a switch flag takes no value
                argv = [knob.flag] if value else []
            else:
                argv = [knob.flag, raw]
            args = cli.build_parser().parse_args(["run", str(prog), *argv])
            assert getattr(cli._config_from(args), name) == value, raw
        for raw in refused:
            assert getattr(VMConfig.from_env({knob.env: raw}), name) == default
            with pytest.raises(SystemExit) as exc:
                cli.main(["run", str(prog), knob.flag, raw])
            assert exc.value.code == 2, raw

    def test_no_variable_read_outside_from_env(self):
        for path in (ROOT / "src").rglob("*.py"):
            assert 'environ.get("CHKPT_' not in path.read_text(), path

    def test_cli_names_no_knob(self):
        body = inspect.getsource(cli).split('"""', 2)[2]  # past the docstring
        assert "CHKPT_" not in body
        for knob in KNOBS.values():
            assert knob.flag is None or f'"{knob.flag}"' not in body
        config_from = inspect.getsource(cli._config_from)
        assert not any(name in config_from for name in KNOBS)


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
