"""Tests for the VirtualMachine façade and its public API contracts."""

from __future__ import annotations

import io

import pytest

from repro import (
    VirtualMachine,
    VMConfig,
    compile_source,
    get_platform,
    restart_vm,
)
from repro.errors import VMFinishedError

RODRIGO = get_platform("rodrigo")


class TestRunResult:
    def test_fields(self):
        code = compile_source("print_int 5")
        vm = VirtualMachine(RODRIGO, code, VMConfig(chkpt_state="disable"))
        result = vm.run(max_instructions=100_000)
        assert result.status == "stopped"
        assert result.exit_code == 0
        assert result.instructions > 0
        assert result.vm is vm
        assert result.stdout == b"5"

    def test_exit_prim_sets_code(self):
        code = compile_source("print_int 1;; exit 3;; print_int 2")
        vm = VirtualMachine(RODRIGO, code, VMConfig(chkpt_state="disable"))
        result = vm.run(max_instructions=100_000)
        assert result.status == "exited"
        assert result.exit_code == 3
        assert result.stdout == b"1"

    def test_stdout_to_real_stream(self):
        sink = io.BytesIO()
        code = compile_source('print_string "direct"')
        vm = VirtualMachine(
            RODRIGO, code, VMConfig(chkpt_state="disable"), stdout=sink
        )
        vm.run(max_instructions=100_000)
        assert sink.getvalue() == b"direct"

    def test_stdin_supplied(self):
        # stdin is channel id 0; exercise the injected sink directly.
        code = compile_source("print_int 0")
        vm = VirtualMachine(
            RODRIGO, code, VMConfig(chkpt_state="disable"),
            stdin=io.BytesIO(b"A"),
        )
        vm.run(max_instructions=100_000)
        assert vm.channels.stdin.read_byte() == ord("A")


class TestFinishedVM:
    """A program that has stopped or exited stays finished: its stack
    is spent, so another ``run()`` is refused by name, on either
    dispatch tier, instead of failing inside the interpreter."""

    @pytest.mark.parametrize("dispatch", ["fast", "reference"])
    @pytest.mark.parametrize(
        "source, status",
        [
            ("let r = ref 0;; r := !r + 1;; print_int !r", "stopped"),
            ("print_int 1;; exit 3;; print_int 2", "exited"),
        ],
    )
    def test_run_after_the_end_is_refused(self, dispatch, source, status):
        vm = VirtualMachine(
            RODRIGO, compile_source(source),
            VMConfig(chkpt_state="disable", dispatch=dispatch),
        )
        assert vm.run().status == status
        for budget in (10, None):
            with pytest.raises(VMFinishedError, match=status) as info:
                vm.run(max_instructions=budget)
            assert info.value.status == status
        assert vm.channels.stdout_bytes() == b"1"

    def test_a_spent_budget_is_not_the_end(self):
        vm = VirtualMachine(
            RODRIGO, compile_source("print_int 7"),
            VMConfig(chkpt_state="disable"),
        )
        assert vm.run(max_instructions=1).status == "budget"
        assert vm.run().status == "stopped"


class TestDeterminism:
    def test_same_run_same_checkpoint_bytes(self, tmp_path):
        """Two identical runs produce byte-identical checkpoint files —
        no timestamps or nondeterminism leak into the format."""
        src = """
        let data = List.map (fun x -> x * 3) [5; 6; 7];;
        checkpoint ();;
        print_int (List.fold_left (fun a b -> a + b) 0 data)
        """
        code = compile_source(src)
        digests = []
        for i in range(2):
            path = str(tmp_path / f"d{i}.hckp")
            vm = VirtualMachine(
                RODRIGO, code,
                VMConfig(chkpt_filename=path, chkpt_mode="blocking"),
            )
            vm.run(max_instructions=1_000_000)
            digests.append(open(path, "rb").read())
        assert digests[0] == digests[1]

    def test_restart_of_restart_is_stable(self, tmp_path):
        """checkpoint -> restart -> checkpoint on the same platform is a
        fixpoint for program behaviour."""
        src = """
        let r = ref 10;;
        checkpoint ();;
        r := !r + 1;;
        checkpoint ();;
        print_int !r
        """
        path = str(tmp_path / "fx.hckp")
        code = compile_source(src)
        cfg = VMConfig(chkpt_filename=path, chkpt_mode="blocking")
        vm = VirtualMachine(RODRIGO, code, cfg)
        assert vm.run(max_instructions=1_000_000).stdout == b"11"
        for _ in range(3):
            vm, _ = restart_vm(RODRIGO, code, path, cfg)
            assert vm.run(max_instructions=1_000_000).stdout == b"11"


class TestRootEnumeration:
    def test_temp_roots_guard_prim_arguments(self):
        """A primitive's arguments survive a GC its own allocation
        triggers (the ArgsView/temp-roots discipline)."""
        src = """
        let rec spin n acc =
          if n = 0 then acc
          else spin (n - 1) (string_concat acc "x");;
        print_int (String.length (spin 200 ""))
        """
        code = compile_source(src)
        # A tiny minor heap forces collections *inside* string_concat.
        vm = VirtualMachine(
            RODRIGO, code,
            VMConfig(chkpt_state="disable", minor_words=256),
        )
        result = vm.run(max_instructions=5_000_000)
        assert result.stdout == b"200"
        assert vm.gc.minor.collections > 0

    def test_all_thread_registers_are_roots(self):
        """Blocked threads' registers survive GC churn by other threads."""
        src = """
        let m = mutex_create ();;
        mutex_lock m;;
        let t = thread_create (fun () ->
          let precious = [| 7; 8; 9 |] in
          begin mutex_lock m; print_int precious.(0); mutex_unlock m end);;
        thread_yield ();;
        let rec churn n = if n = 0 then () else (let _ = [n; n] in churn (n - 1));;
        churn 4000;;
        mutex_unlock m;;
        thread_join t
        """
        code = compile_source(src)
        vm = VirtualMachine(
            RODRIGO, code,
            VMConfig(chkpt_state="disable", minor_words=512, quantum=40),
        )
        result = vm.run(max_instructions=10_000_000)
        assert result.stdout == b"7"


class TestConfigEdges:
    def test_auto_mode_follows_platform(self, tmp_path):
        for name, expected in (("rodrigo", "background"), ("pc8", "blocking")):
            path = str(tmp_path / f"{name}.hckp")
            code = compile_source("checkpoint ();; print_int 1")
            vm = VirtualMachine(
                get_platform(name), code, VMConfig(chkpt_filename=path)
            )
            vm.run(max_instructions=100_000)
            vm.join_background_checkpoint()
            assert vm.last_checkpoint_stats.mode == expected

    def test_quantum_configurable(self):
        code = compile_source("print_int 1")
        vm = VirtualMachine(RODRIGO, code, VMConfig(quantum=123))
        assert vm.sched.quantum == 123

    def test_live_thread_count(self):
        src = """
        let t = thread_create (fun () -> ());;
        thread_join t;;
        print_int 0
        """
        code = compile_source(src)
        vm = VirtualMachine(RODRIGO, code, VMConfig(chkpt_state="disable"))
        vm.run(max_instructions=1_000_000)
        assert vm.live_thread_count() == 1  # only main survives
