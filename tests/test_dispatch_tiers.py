"""Differential tests: the fast dispatch tier against the reference loop.

The fast tier (decode-once closures, superinstruction fusion, batched
counted-loop kernels — :mod:`repro.interpreter.dispatch`) is an
*observational substitute* for the canonical fetch/decode/execute loop.
These tests pin the substitution down:

* identical stdout, exit status and instruction counts on every example
  workload, on a 32-bit little-endian and a 64-bit big-endian platform;
* identical final heap occupancy;
* bit-identical checkpoint files when a run checkpoints itself;
* a checkpoint taken *mid fused region* (the reference tier stopped
  between two members of a planned superinstruction) restores and
  completes correctly under the fast tier on an opposite-endianness,
  opposite-word-size platform — fused groups only exist at bind time,
  never in checkpointed state;
* ``run(max_instructions=N)`` slices end on exactly the Nth instruction
  under the fast tier, with the reference tier's registers and
  checkpoint bytes at every boundary — wherever the budget falls:
  inside a fused group, a kernel batch, a loop's exit pass or a slot
  the lazy binder has not visited yet.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import (
    VirtualMachine,
    VMConfig,
    compile_source,
    get_platform,
    restart_vm,
)
from repro.bytecode.image import CodeImage
from repro.bytecode.opcodes import Op
from repro.errors import BytecodeError, ReproError
from repro.workloads import (
    insertion_sort_expected,
    insertion_sort_source,
    matmul_expected,
    matmul_source,
)

#: Opposite endianness AND opposite word size (32LE vs 64BE).
PLATFORM_PAIR = ["rodrigo", "ultra64"]

LOOP = """
let r = ref 0;;
let s = ref 0;;
while !r < 5000 do (r := !r + 1; s := !s + 2) done;;
print_int !r; print_string "/"; print_int !s
"""

#: Race-free by construction: the threads write disjoint cells, so the
#: result is interleaving-independent.  (The two tiers reach quantum
#: ticks at slightly different instruction boundaries — batched
#: dispatches only poll at their edges — so programs whose *output*
#: depends on preemption timing are outside the equivalence contract.)
THREADS = """
let a = ref 0;;
let b = ref 0;;
let spin cell n =
  let i = ref 0 in
  while !i < 200 do (cell := !cell + n; i := !i + 1) done;;
let t1 = thread_create (fun () -> spin a 1);;
let t2 = thread_create (fun () -> spin b 10);;
thread_join t1; thread_join t2;
print_int (!a * 10000 + !b)
"""

EXCEPTIONS = """
let rec loop i acc =
  if i = 0 then acc
  else
    let v = try (if i mod 3 = 0 then raise 99 else i)
            with e -> e + 901 in
    loop (i - 1) (acc + v);;
print_int (loop 60 0)
"""

WORKLOADS = {
    "loop": lambda: LOOP,
    "matmul": lambda: matmul_source(6, checkpoint=False),
    "sort": lambda: insertion_sort_source(40, checkpoint=False),
    "threads": lambda: THREADS,
    "exceptions": lambda: EXCEPTIONS,
}

#: Workloads that call ``checkpoint ()`` themselves; the files the two
#: tiers write must be bit-identical.
CK_WORKLOADS = {
    "matmul_ck": lambda: matmul_source(6),
    "sort_ck": lambda: insertion_sort_source(40),
    "threads_ck": lambda: THREADS.replace(
        "print_int", "checkpoint ();\nprint_int"
    ),
}


def run_tier(src, platform_name, tier, ck_path=None):
    """Run ``src`` to completion under one dispatch tier, in one
    unbudgeted ``run()`` (sliced runs: :class:`TestBudgetedFastTier`)."""
    code = compile_source(src)
    cfg = (
        dict(chkpt_filename=str(ck_path), chkpt_mode="blocking")
        if ck_path is not None
        else dict(chkpt_state="disable")
    )
    vm = VirtualMachine(
        get_platform(platform_name), code, VMConfig(dispatch=tier, **cfg)
    )
    result = vm.run()
    assert result.status == "stopped"
    return result


def heap_words(vm):
    return vm.mem.minor.used_words + vm.mem.heap.live_words()


class TestDifferential:
    """fast == reference on every observable, on both platform shapes."""

    @pytest.mark.parametrize("platform_name", PLATFORM_PAIR)
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_matches_reference(self, platform_name, name):
        src = WORKLOADS[name]()
        ref = run_tier(src, platform_name, "reference")
        fast = run_tier(src, platform_name, "fast")
        assert fast.stdout == ref.stdout
        assert fast.instructions == ref.instructions
        assert heap_words(fast.vm) == heap_words(ref.vm)

    @pytest.mark.parametrize("platform_name", PLATFORM_PAIR)
    @pytest.mark.parametrize("name", sorted(CK_WORKLOADS))
    def test_checkpoint_bytes_identical(self, platform_name, name, tmp_path):
        src = CK_WORKLOADS[name]()
        paths = {
            tier: tmp_path / f"{name}-{tier}.hckp"
            for tier in ("reference", "fast")
        }
        ref = run_tier(src, platform_name, "reference", paths["reference"])
        fast = run_tier(src, platform_name, "fast", paths["fast"])
        assert fast.stdout == ref.stdout
        assert fast.instructions == ref.instructions
        ref_bytes = paths["reference"].read_bytes()
        fast_bytes = paths["fast"].read_bytes()
        assert ref_bytes == fast_bytes

    def test_fusion_and_kernel_variants_match(self):
        """Each fast-tier layer can be disabled without changing results."""
        from repro.interpreter.dispatch import build_fast_code

        src = WORKLOADS["loop"]()
        ref = run_tier(src, "rodrigo", "reference")
        for fusion, kernels in [(False, True), (True, False), (False, False)]:
            code = compile_source(src)
            vm = VirtualMachine(
                get_platform("rodrigo"), code,
                VMConfig(dispatch="fast", chkpt_state="disable"),
            )
            vm.fast_code = build_fast_code(
                vm.interp, fusion=fusion, kernels=kernels
            )
            result = vm.run()
            assert result.status == "stopped"
            assert result.stdout == ref.stdout, (fusion, kernels)
            assert result.instructions == ref.instructions, (fusion, kernels)


class TestMidFusedRegionCheckpoint:
    """A checkpoint between two members of a planned superinstruction.

    The fast tier never creates such a state itself (a fused closure is
    one uninterruptible dispatch covering several canonical
    instructions), but the reference tier — and any checkpoint written
    by an older VM — can stop there.  The fast tier must execute from
    that pc with canonical single-instruction semantics.
    """

    SRC = """
    let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2);;
    let a = fib 16;;
    let r = ref 0;;
    while !r < 300 do r := !r + 1 done;;
    print_int a; print_string "+"; print_int !r
    """
    EXPECTED = b"987+300"

    def _stop_mid_group(self, vm, code):
        """Step the reference tier until pc is inside a fused group."""
        mid = {
            m
            for g in code.decoded().groups
            for m in g.members[1:]
        }
        assert mid, "program has no fusible regions; test is vacuous"
        for _ in range(200_000):
            result = vm.run(max_instructions=1)
            if result.status != "budget":
                pytest.fail("program finished before reaching a fused region")
            if vm.interp.pc in mid:
                return vm.interp.pc
        pytest.fail("never stopped inside a fused region")

    @pytest.mark.parametrize(
        "origin,target", [("rodrigo", "ultra64"), ("ultra64", "rodrigo")]
    )
    def test_restore_mid_group_under_fast_tier(self, origin, target, tmp_path):
        path = str(tmp_path / "mid.hckp")
        code = compile_source(self.SRC)
        vm = VirtualMachine(
            get_platform(origin), code,
            VMConfig(dispatch="reference", chkpt_filename=path,
                     chkpt_mode="blocking"),
        )
        stop_pc = self._stop_mid_group(vm, code)
        vm.perform_checkpoint()

        # Opposite endianness, opposite word size, opposite tier.
        vm2, _ = restart_vm(
            get_platform(target), code, path, VMConfig(dispatch="fast")
        )
        assert vm2.interp.pc == stop_pc  # really restarting mid-group
        result = vm2.run()
        assert result.status == "stopped"
        assert result.stdout == self.EXPECTED

        # And the reference tier agrees from the same file.
        vm3, _ = restart_vm(
            get_platform(target), code, path, VMConfig(dispatch="reference")
        )
        assert vm3.run(max_instructions=50_000_000).stdout == self.EXPECTED


class TestStrideLoopKernels:
    """Array-stride ``for`` loops batch through numpy — or fall back.

    The kernel must be an observational no-op: wherever a batch cannot
    be proven safe (aliasing, bounds faults, representation overflow)
    it falls back to single-step execution, so every test here is a
    straight differential against the reference tier.
    """

    def _diff(self, src, platform_name="rodrigo"):
        ref = run_tier(src, platform_name, "reference")
        fast = run_tier(src, platform_name, "fast")
        assert fast.stdout == ref.stdout
        assert fast.instructions == ref.instructions
        return fast

    def test_matmul_inner_loop_is_planned_as_reduction(self):
        from repro.bytecode.decoded import StrideLoopPlan

        code = compile_source(matmul_source(6, checkpoint=False))
        stride = [
            p for p in code.decoded().loops
            if isinstance(p, StrideLoopPlan)
        ]
        assert stride, "matmul must expose at least one stride loop"
        # The dot-product accumulation: c.(j) <- c.(j) + term.
        def is_reduction(p):
            _, arr, idx, val = p.store
            return (
                isinstance(val, tuple)
                and val[0] == "bin"
                and ("elem", arr, idx) in (val[2], val[3])
            )
        assert any(is_reduction(p) for p in stride)

    @pytest.mark.parametrize("platform_name", PLATFORM_PAIR)
    def test_fill_copy_and_dot_product(self, platform_name):
        src = """
        let a = Array.make 64 0;;
        let b = Array.make 64 0;;
        let s = Array.make 1 0;;
        for i = 0 to 63 do a.(i) <- i * 3 done;;
        for i = 0 to 63 do b.(i) <- a.(i) done;;
        for i = 0 to 63 do s.(0) <- s.(0) + (a.(i) * b.(i)) done;;
        print_int s.(0); print_string "/"; print_int b.(63)
        """
        result = self._diff(src, platform_name)
        assert result.stdout == b"768096/189"

    def test_downward_loop(self):
        src = """
        let a = Array.make 32 0;;
        for i = 31 downto 0 do a.(i) <- 31 - i done;;
        let s = Array.make 1 0;;
        for i = 0 to 31 do s.(0) <- s.(0) + a.(i) done;;
        print_int s.(0)
        """
        assert self._diff(src).stdout == b"496"

    def test_aliased_read_write_falls_back(self):
        """``a.(i) <- a.(i-1) + 1`` is order-dependent; the batch must
        detect the alias and fall back to sequential semantics."""
        src = """
        let a = Array.make 16 0;;
        a.(0) <- 7;;
        for i = 1 to 15 do a.(i) <- a.(i - 1) + 1 done;;
        print_int a.(15)
        """
        assert self._diff(src).stdout == b"22"

    def test_bounds_fault_mid_loop_falls_back_to_exact_raise(self):
        """An out-of-bounds store inside a stride loop must raise the
        catchable exception at the exact iteration the reference tier
        would, with all earlier writes committed."""
        src = """
        let a = Array.make 24 0;;
        let b = Array.make 8 0;;
        let r = try
            (for i = 0 to 23 do b.(i) <- a.(i) + 1 done; 0)
          with _ -> b.(7);;
        print_int r
        """
        assert self._diff(src).stdout == b"1"

    def test_reduction_overflow_falls_back_to_wrap(self):
        """On 32-bit, accumulating past max_int must reproduce the
        reference tier's silent wrap (the batch aborts instead of
        modeling it)."""
        src = """
        let s = Array.make 1 0;;
        for i = 0 to 99 do s.(0) <- s.(0) + 30000000 done;;
        print_int s.(0)
        """
        self._diff(src, "rodrigo")  # 32-bit: wraps
        self._diff(src, "ultra64")  # 64-bit: exact

    def test_threaded_stride_loops(self):
        src = """
        let a = Array.make 256 0;;
        let b = Array.make 256 0;;
        let fill arr k =
          for i = 0 to 255 do arr.(i) <- i * k done;;
        let t1 = thread_create (fun () -> fill a 1);;
        let t2 = thread_create (fun () -> fill b 3);;
        thread_join t1; thread_join t2;
        print_int (a.(255) + b.(255))
        """
        assert self._diff(src).stdout == b"1020"

    def test_checkpoint_bytes_identical_with_stride_loops(self, tmp_path):
        src = """
        let a = Array.make 128 0;;
        for i = 0 to 127 do a.(i) <- i * i done;;
        checkpoint ();;
        let s = Array.make 1 0;;
        for i = 0 to 127 do s.(0) <- s.(0) + a.(i) done;;
        print_int s.(0)
        """
        paths = {
            tier: tmp_path / f"stride-{tier}.hckp"
            for tier in ("reference", "fast")
        }
        ref = run_tier(src, "ultra64", "reference", paths["reference"])
        fast = run_tier(src, "ultra64", "fast", paths["fast"])
        assert fast.stdout == ref.stdout == b"690880"
        assert (
            paths["reference"].read_bytes() == paths["fast"].read_bytes()
        )


def boundary_state(vm):
    """Everything a slice boundary exposes of a single-threaded VM."""
    i = vm.interp
    return (i.instructions, i.pc, i.trapsp, i.snapshot_registers())


#: Counted loop over global refs, stride map, stride reduction, calls
#: and fusible straight-line code in ~1500 instructions: small enough
#: to record the reference tier's state after *every* instruction.
SMALL = """
let r = ref 0;;
let s = ref 0;;
while !r < 40 do (r := !r + 1; s := !s + 2) done;;
let a = Array.make 24 0;;
for i = 0 to 23 do a.(i) <- i * 3 done;;
let t = Array.make 1 0;;
for i = 0 to 23 do t.(0) <- t.(0) + a.(i) done;;
let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2);;
print_int (!s + t.(0) + fib 6)
"""
SMALL_EXPECTED = b"916"


class TestBudgetedFastTier:
    """``run(max_instructions=N)`` on the fast tier is exact.

    Every HA driver slices the run (``HASupervisor``, ``LiveHA``, the
    cluster coordinator), so a slice boundary is where checkpoints are
    taken: it must be the boundary the reference tier stops at, bit
    for bit.
    """

    BUDGETS = [1, 2, 7, 1013, 7919, 50_000]
    #: Checkpoint at every boundary, thinned for the tiny budgets to
    #: one per this many instructions.
    CK_SPACING = 1013

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("platform_name", PLATFORM_PAIR)
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_slices_match_reference(
        self, name, platform_name, budget, tmp_path
    ):
        # Threads reach quantum ticks at different boundaries on the
        # two tiers (see THREADS), so only the slice lengths and the
        # output are comparable there.
        single_threaded = name != "threads"
        code = compile_source(WORKLOADS[name]())
        paths = {
            tier: tmp_path / f"{tier}.hckp" for tier in ("reference", "fast")
        }
        vms = {
            tier: VirtualMachine(
                get_platform(platform_name), code,
                VMConfig(dispatch=tier, chkpt_filename=str(path),
                         chkpt_mode="blocking"),
            )
            for tier, path in paths.items()
        }
        ck_every = -(-self.CK_SPACING // budget)
        k = 0
        while True:
            results = {
                tier: vm.run(max_instructions=budget)
                for tier, vm in vms.items()
            }
            assert results["fast"].status == results["reference"].status
            if results["fast"].status != "budget":
                break
            k += 1
            assert results["fast"].instructions == k * budget
            assert results["reference"].instructions == k * budget
            if not single_threaded:
                continue
            assert boundary_state(vms["fast"]) == boundary_state(
                vms["reference"]
            )
            if k % ck_every == 0:
                for vm in vms.values():
                    vm.perform_checkpoint()
                assert (
                    paths["fast"].read_bytes()
                    == paths["reference"].read_bytes()
                ), f"checkpoint differs at instruction {k * budget}"
        assert results["fast"].status == "stopped"
        assert results["fast"].stdout == results["reference"].stdout
        assert results["fast"].instructions == results["reference"].instructions

    # -- targeted boundaries --------------------------------------------------
    #
    # The reference tier single-steps SMALL once, recording its state
    # after every instruction; a fresh fast-tier VM then runs a chosen
    # slice sequence and must show the recorded state at each boundary.

    @pytest.fixture(scope="class", params=PLATFORM_PAIR)
    def small(self, request):
        code = compile_source(SMALL)
        vm = VirtualMachine(
            get_platform(request.param), code,
            VMConfig(dispatch="reference", chkpt_state="disable"),
        )
        states = [boundary_state(vm)]
        while (result := vm.run(max_instructions=1)).status == "budget":
            states.append(boundary_state(vm))
        assert result.stdout == SMALL_EXPECTED

        def arrivals(pc):
            """Instruction counts at which the reference tier is about
            to execute the instruction at ``pc``."""
            return [c for c, state in enumerate(states) if state[1] == pc]

        def fast_slices(budgets, vm=None, quantum=1000):
            vm = vm or VirtualMachine(
                get_platform(request.param), code,
                VMConfig(dispatch="fast", chkpt_state="disable",
                         quantum=quantum),
            )
            for budget in budgets:
                before = vm.interp.instructions
                assert vm.run(max_instructions=budget).status == "budget"
                assert vm.interp.instructions == before + budget
                assert boundary_state(vm) == states[before + budget]
            return vm

        def finish(vm):
            result = vm.run()
            assert result.status == "stopped"
            assert result.stdout == SMALL_EXPECTED
            assert result.instructions == len(states)  # STOP counts

        return SimpleNamespace(
            code=code, states=states, arrivals=arrivals,
            fast_slices=fast_slices, finish=finish,
        )

    def test_every_cut_point(self, small):
        """A slice boundary after each instruction of SMALL: ``period``
        runs, each cutting at one residue class, under a quantum short
        enough that ticks and budgets interleave.  The period exceeds
        every loop's iteration length, so kernels meet every remaining
        budget from nothing to several iterations."""
        period = 97
        last = len(small.states) - 1
        for first in range(1, period + 1):
            cuts = [first] + [period] * ((last - first) // period)
            small.finish(small.fast_slices(cuts, quantum=61))

    def _revisited_fused_group(self, small):
        """A group the fast tier has bound as a superinstruction, and
        the instruction count of the reference tier's second arrival."""
        for g in small.code.decoded().groups:
            at = small.arrivals(g.start)
            if len(at) < 2:
                continue
            vm = small.fast_slices([at[1]])
            if vm.fast_code.counts[g.start] == g.count:
                return g, at[1]
        pytest.fail("no fused group is executed twice; test is vacuous")

    def test_budget_ends_inside_fused_group(self, small):
        g, at = self._revisited_fused_group(small)
        for into in range(1, g.count):
            vm = small.fast_slices([at, into])
            assert vm.interp.pc == g.members[into]
            small.finish(vm)

    def test_budget_ends_on_unbound_slot(self, small):
        """The slice stops in front of code the lazy binder never saw;
        the next slice binds a group it may not run as a whole."""
        g = next(
            g for g in small.code.decoded().groups if small.arrivals(g.start)
        )
        vm = small.fast_slices([small.arrivals(g.start)[0]])
        fast = vm.fast_code
        assert fast.counts[g.start] == 0
        assert fast.handlers[g.start].__name__ == "lazy"
        small.fast_slices([1], vm)
        assert vm.interp.pc == g.members[1]
        assert fast.counts[g.start] in (1, g.count)  # bound, not run whole
        small.finish(vm)

    @pytest.fixture
    def batch_sizes(self, monkeypatch):
        """Record the batch size of every kernel dispatch."""
        from repro.interpreter import dispatch

        sizes = []
        real = dispatch._batch_size

        def spy(I, total, iter_count):
            m = real(I, total, iter_count)
            sizes.append(m)
            return m

        monkeypatch.setattr(dispatch, "_batch_size", spy)
        return sizes

    @staticmethod
    def _loop_plans(small):
        """The kernel plans SMALL executes (the prelude's never run)."""
        plans = [
            p for p in small.code.decoded().loops if small.arrivals(p.head)
        ]
        kinds = {type(p).__name__ for p in plans}
        assert kinds == {"CountedLoopPlan", "StrideLoopPlan"}
        return plans

    def test_budget_ends_inside_kernel_batch(self, small, batch_sizes):
        for plan in self._loop_plans(small):
            head = small.arrivals(plan.head)[1]
            # Three whole iterations fit the budget; the fourth does not.
            vm = small.fast_slices([head])
            del batch_sizes[:]
            small.fast_slices([3 * plan.iter_count + 1], vm)
            assert batch_sizes == [3]
            assert vm.interp.pc == plan.head + 1
            small.finish(vm)
            # Less than one iteration left on arrival at the head.
            vm = small.fast_slices([head])
            del batch_sizes[:]
            small.fast_slices([plan.iter_count - 1], vm)
            assert batch_sizes == []
            small.finish(vm)

    def test_budget_ends_on_kernel_exit_pass(self, small, batch_sizes):
        for plan in self._loop_plans(small):
            last = small.arrivals(plan.head)[-1]
            assert small.states[last + plan.cond_count][1] == plan.exit
            small.finish(small.fast_slices([last, plan.cond_count - 1]))
            vm = small.fast_slices([last, plan.cond_count])
            assert vm.interp.pc == plan.exit
            small.finish(vm)
        assert batch_sizes  # the loops did run batched on the way there


class TestTailOnlyFusion:
    """APPLY/GETVECTITEM/SETVECTITEM fuse only as group tails."""

    def test_tail_ops_never_inner(self):
        from repro.bytecode.decoded import FUSIBLE_INNER, FUSION_PATTERNS

        tail_only = {int(Op.APPLY), int(Op.GETVECTITEM),
                     int(Op.SETVECTITEM)}
        assert not tail_only & FUSIBLE_INNER
        for pat in FUSION_PATTERNS:
            assert not tail_only & set(pat[:-1]), pat

    @pytest.mark.parametrize("platform_name", PLATFORM_PAIR)
    def test_fused_getvectitem_raise_path(self, platform_name):
        """A bounds fault on a *fused* GETVECTITEM (tail of
        PUSH;GETGLOBAL;GETVECTITEM) must land in the handler with
        canonical state."""
        src = """
        let a = Array.make 4 5;;
        let get i = try a.(i) with _ -> -1;;
        let s = ref 0;;
        for i = 0 to 7 do s := !s + get i done;;
        print_int !s
        """
        ref = run_tier(src, platform_name, "reference")
        fast = run_tier(src, platform_name, "fast")
        assert fast.stdout == ref.stdout == b"16"
        assert fast.instructions == ref.instructions


class TestFastTierSemantics:
    def test_illegal_opcode_same_error_both_tiers(self):
        code = CodeImage([9999, int(Op.STOP)], "bad", 0)
        messages = {}
        for tier in ("reference", "fast"):
            vm = VirtualMachine(
                get_platform("rodrigo"), code,
                VMConfig(dispatch=tier, chkpt_state="disable"),
            )
            with pytest.raises(BytecodeError) as exc:
                vm.run() if tier == "fast" else vm.run(max_instructions=10)
            messages[tier] = str(exc.value)
        assert messages["fast"] == messages["reference"]
        assert "illegal opcode 9999 at 0" in messages["fast"]

    @pytest.mark.parametrize("tier", ["reference", "fast"])
    def test_zero_and_negative_budgets(self, tier):
        code = compile_source(LOOP)
        vm = VirtualMachine(
            get_platform("rodrigo"), code,
            VMConfig(dispatch=tier, chkpt_state="disable"),
        )
        for _ in range(2):
            result = vm.run(max_instructions=0)
            assert (result.status, result.instructions) == ("budget", 0)
        with pytest.raises(ReproError, match="max_instructions"):
            vm.run(max_instructions=-1)
        assert vm.interp.instructions == 0
        assert vm.run().stdout == b"5000/10000"

    def test_trace_hook_forces_reference_tier(self):
        from repro.tracing import InstructionTracer

        code = compile_source("print_int (1 + 2)")
        vm = VirtualMachine(
            get_platform("rodrigo"), code,
            VMConfig(dispatch="fast", chkpt_state="disable"),
        )
        tracer = InstructionTracer()
        vm.interp.trace_hook = tracer
        result = vm.run()
        assert result.status == "stopped"
        assert tracer.total == result.instructions
        assert vm.fast_code is None

    def test_hot_pairs_counts_consecutive_opcodes(self):
        from repro.tracing import InstructionTracer

        code = compile_source(LOOP)
        vm = VirtualMachine(
            get_platform("rodrigo"), code,
            VMConfig(dispatch="fast", chkpt_state="disable"),
        )
        tracer = InstructionTracer(limit=100)
        vm.interp.trace_hook = tracer
        result = vm.run()
        assert result.status == "stopped"
        # Single-threaded: every dispatch after the first extends a pair.
        assert sum(tracer.pair_counts.values()) == tracer.total - 1
        pairs = tracer.hot_pairs(5)
        assert len(pairs) == 5
        assert all(
            isinstance(a, str) and isinstance(b, str) and n >= 1
            for a, b, n in pairs
        )
        assert pairs == sorted(pairs, key=lambda p: -p[2])

    def test_dispatch_env_parsing(self):
        assert VMConfig().dispatch == "fast"
        assert VMConfig.from_env({}).dispatch == "fast"
        assert (
            VMConfig.from_env({"CHKPT_DISPATCH": "reference"}).dispatch
            == "reference"
        )
        assert (
            VMConfig.from_env({"CHKPT_DISPATCH": " FAST "}).dispatch == "fast"
        )
        # Unrecognized values leave the default alone.
        assert VMConfig.from_env({"CHKPT_DISPATCH": "turbo"}).dispatch == "fast"

    def test_decoded_stream_cached_per_image(self):
        code = compile_source(LOOP)
        assert code.decoded() is code.decoded()
        assert code.decoded().n_units == len(code.units)
