"""The ZINC interpreter loop.

Fetch/decode/execute over the code image, with the paper's safe-point
discipline: pending events (checkpoint flag, reschedule, stop) are
examined *between* byte-code instructions only, so a checkpoint can
never capture a half-executed instruction (paper §3.1.2, Figure 3).
"""

from __future__ import annotations

from math import inf
from typing import Optional, TYPE_CHECKING

from repro.bytecode.opcodes import Op
from repro.errors import BytecodeError, MemoryError_, VMRuntimeError
from repro.interpreter.primitives import (
    ArgsView,
    BlockThread,
    VMExceptionRaise,
    YieldNode,
)
from repro.interpreter.registers import Registers
from repro.memory.blocks import CLOSURE_TAG
from repro.threads.thread import EXIT_SENTINEL, VMThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm import VirtualMachine


class _ProgramStop(Exception):
    """Internal: the STOP instruction was executed."""


class Interpreter:
    """Executes byte-code on behalf of the current VM thread.

    The VM owns its interpreter, never the reverse: the constructor
    takes from ``vm`` the parts the instructions work on (memory, code,
    scheduler, pending set) and keeps no reference to ``vm`` itself, so
    a dropped VM is not held alive through its interpreter.  The few
    places that need the whole VM — a primitive's first argument, the
    checkpoint and lazy-restore calls at a safe point — use :attr:`vm`,
    which :meth:`run` binds for exactly the duration of the call.
    """

    def __init__(self, vm: "VirtualMachine") -> None:
        #: The VM being run; bound by :meth:`run`, ``None`` outside it.
        self.vm: Optional["VirtualMachine"] = None
        mem = vm.mem
        self._values = mem.values
        self._mem = mem
        self._code = vm.code
        self._code_base = vm.code_base
        self._sched = vm.sched
        self._pending = vm.pending
        self._mutexes = vm.mutexes
        self._wb = mem.arch.word_bytes
        self._word_mask = mem.arch.word_mask
        self._shift_mask = mem.arch.bits - 1
        # Live registers of the current thread.
        self.accu: int = self._values.val_unit
        self.env: int = mem.atoms.atom(0)
        self.pc: int = 0  # code unit index
        self.extra_args: int = 0
        #: Innermost trap-frame address (0 = no handler installed).
        self.trapsp: int = 0
        #: The program's global-data block (an ordinary major-heap block,
        #: like OCaml's ``global_data``): a register like the others, and
        #: a GC root.
        self.global_data: int = 0
        self.stack = vm.sched.current.stack if vm.sched.current else None
        #: Total instructions dispatched (drives the preemption timer and
        #: the benchmark instruction counts).
        self.instructions = 0
        self._countdown = vm.sched.quantum
        #: Value of ``instructions`` at which the current fast-tier
        #: run() must return "budget" (``inf`` when unbudgeted).
        self._limit: float = inf
        self._units = vm.code.units
        #: Optional per-instruction hook ``fn(interp, pc, op)`` — install
        #: before run(); see :mod:`repro.tracing`.
        self.trace_hook = None

    # -- code addressing -------------------------------------------------------

    def code_addr(self, index: int) -> int:
        """Code unit index -> code address value."""
        return self._code_base + 4 * index

    def code_index(self, addr: int) -> int:
        """Code address value -> code unit index."""
        idx, rem = divmod(addr - self._code_base, 4)
        if rem or not 0 <= idx < len(self._units):
            raise VMRuntimeError(f"bad code address {addr:#x}")
        return idx

    # -- register save/restore (thread switching, checkpointing) ----------------

    def snapshot_registers(self) -> Registers:
        """Current registers in checkpoint form (pc as code address)."""
        return Registers(
            pc=self.code_addr(self.pc),
            sp=self.stack.sp,
            accu=self.accu,
            env=self.env,
            extra_args=self.extra_args,
        )

    def save_to_thread(self, t: VMThread) -> None:
        """Park the live registers into a thread record."""
        t.accu = self.accu
        t.env = self.env
        t.pc = self.pc
        t.extra_args = self.extra_args
        t.trapsp = self.trapsp

    def load_from_thread(self, t: VMThread) -> None:
        """Restore the live registers from a thread record."""
        self.accu = t.accu
        self.env = t.env
        self.pc = t.pc
        self.extra_args = t.extra_args
        self.trapsp = t.trapsp
        self.stack = t.stack

    # -- main loop ------------------------------------------------------------------

    def run(
        self, vm: "VirtualMachine", max_instructions: Optional[int] = None
    ) -> str:
        """Run ``vm`` until STOP, exit(), or instruction budget exhaustion.

        Returns ``"stopped"`` for STOP, ``"budget"`` when exactly
        ``max_instructions`` instructions have executed, ``"yielded"``
        when a primitive suspended the whole VM (cluster recv on an
        empty mailbox).  ``exit`` raises
        :class:`~repro.interpreter.primitives.ExitProgram` to the caller
        (the VM façade turns it into a status).

        Dispatch tier selection (``VMConfig.dispatch``): the fast tier
        runs everything, budgeted slices included — the budget is one
        more event on its horizon (see :meth:`_run_fast`).  Only tracing
        needs a per-instruction hook, so traced runs take the reference
        loop, which is also the differential oracle the fast tier is
        tested against (``"reference"`` forces it unconditionally).
        """
        self.vm = vm
        try:
            if self.trace_hook is None and vm.config.dispatch == "fast":
                return self._run_fast(max_instructions)
            return self._run_reference(max_instructions)
        finally:
            self.vm = None

    def _run_reference(self, max_instructions: Optional[int] = None) -> str:
        """The canonical fetch/decode/execute loop (the oracle tier)."""
        units = self._units
        pending = self._pending
        handlers = self._HANDLERS
        n_handlers = len(handlers)
        budget = max_instructions if max_instructions is not None else -1
        try:
            while True:
                if pending.any:
                    if self._handle_pending():
                        return "stopped"
                self._countdown -= 1
                if self._countdown <= 0:
                    self._on_tick()
                if budget >= 0:
                    if budget == 0:
                        return "budget"
                    budget -= 1
                self.instructions += 1
                op = units[self.pc]
                if self.trace_hook is not None:
                    self.trace_hook(self, self.pc, op)
                self.pc += 1
                handler = handlers[op] if 0 <= op < n_handlers else None
                if handler is None:
                    raise BytecodeError(f"illegal opcode {op} at {self.pc - 1}")
                handler(self)
        except _ProgramStop:
            return "stopped"
        except YieldNode:
            return "yielded"

    def _run_fast(self, max_instructions: Optional[int] = None) -> str:
        """The fast tier: dispatch pre-bound closures by code-unit pc.

        The hot loop keeps one counter, the *event horizon* ``h``: the
        number of instructions until the nearer of the next quantum
        tick and the end of the budget (an unbudgeted run's limit is
        infinite, so its horizon is just the countdown).  A dispatch of
        ``n`` instructions that stays inside the horizon costs one
        subtraction.  Anything else leaves the hot loop — a pending
        event, a stateful entry (``counts[pc] == 0``), or a dispatch
        that reaches the horizon — with ``instructions`` and
        ``_countdown`` written back to the canonical fields, and is
        resolved there, against those fields:

        * a tick is due: :meth:`_advance` fires it exactly where the
          reference loop would and the dispatch proceeds;
        * fewer instructions remain than the dispatch represents (a
          fused group straddling the budget, or a spent budget): the
          remainder, less than one group, runs on the reference loop,
          which ends the slice on the exact instruction and leaves
          ``_countdown`` as the oracle would;
        * a stateful entry accounts for itself through :meth:`_advance`
          and never runs past ``_limit``.

        So checkpoints, thread switches and slice boundaries observe
        exactly the state the reference loop produces at the same
        instruction count.
        """
        vm = self.vm
        pending = self._pending
        # The bound closures close over this interpreter, so the VM
        # keeps them, not the interpreter they would form a cycle with.
        fast = vm.fast_code
        if fast is None:
            from repro.interpreter.dispatch import build_fast_code

            fast = vm.fast_code = build_fast_code(self)
        code = fast.handlers
        counts = fast.counts
        limit = self._limit = (
            inf if max_instructions is None
            else self.instructions + max_instructions
        )
        try:
            while True:
                pc = self.pc
                insns = self.instructions
                countdown = self._countdown
                h = limit - insns + 1
                if countdown < h:
                    h = countdown
                insns_at_horizon = insns + h
                tick_slack = countdown - h
                try:
                    while True:
                        if pending.any:
                            n = -1
                            break
                        n = counts[pc]
                        if n == 0 or n >= h:
                            break
                        h -= n
                        pc = code[pc]()
                finally:
                    # Generic closures keep self.pc current on the paths
                    # that raise out of the loop; the counters live here.
                    self.instructions = insns_at_horizon - h
                    self._countdown = h + tick_slack
                self.pc = pc
                if n < 0:
                    if self._handle_pending():
                        return "stopped"
                    continue
                if self.instructions + (n or 1) > limit:
                    return self._run_reference(limit - self.instructions)
                if n == 0:
                    # Stateful entry (batched loop kernel, escape slot,
                    # lazy binder): leaves the next pc in self.pc.
                    code[pc]()
                else:
                    self._advance(n)
                    self.pc = code[pc]()
        except _ProgramStop:
            return "stopped"
        except YieldNode:
            return "yielded"

    def _advance(self, k: int) -> None:
        """Account ``k`` canonical instructions about to execute: charge
        the preemption countdown, firing the tick first when it falls
        due, as the reference loop does per instruction, and count them
        (which is what consumes the budget: ``_limit`` is absolute).

        The one accounting site of the fast tier outside its hot loop;
        callers ensure ``instructions + k <= _limit``.
        """
        self._countdown -= k
        if self._countdown <= 0:
            self._on_tick()
        self.instructions += k

    def _on_tick(self) -> None:
        """Virtual timer tick: preemption and periodic checkpoint policy."""
        vm = self.vm
        sched = self._sched
        self._countdown = sched.quantum
        if sched.timer_enabled and sched.ever_multithreaded:
            runnable = sum(1 for t in sched.threads.values() if t.is_runnable)
            if runnable > 1:
                self._pending.request_reschedule()
        if vm.lazy_restore is not None:
            # Background drain: one deferred chunk per quantum, so a
            # lazy restore completes even if the workload never touches
            # most of the heap.
            vm.drain_lazy_restore()
        vm.poll_checkpoint_policy()

    def _handle_pending(self) -> bool:
        """Deal with pending events at this safe point.

        Returns True when the interpreter should stop.
        """
        pending = self._pending
        if pending.stop:
            pending.clear_stop()
            return True
        if pending.checkpoint:
            pending.clear_checkpoint()
            self.vm.perform_checkpoint()
        if pending.reschedule:
            pending.clear_reschedule()
            self._switch_thread()
        return False

    def _switch_thread(self) -> None:
        """Round-robin context switch at a safe point."""
        sched = self._sched
        current = sched.current
        if current is not None:
            self.save_to_thread(current)
        while True:
            t = sched.pick_next()
            if t is None:
                raise VMRuntimeError(
                    "no runnable thread left (main thread vanished?)"
                )
            if self._values.is_block(t.pending_mutex):
                # Schedule-time mutex acquisition (see threads.sync).
                if not self._mutexes.acquire_for_resume(t):
                    sched.current = t  # advance round-robin fairness
                    continue
            sched.current = t
            sched.switches += 1
            self.load_from_thread(t)
            return

    def _finish_thread(self, result: int) -> None:
        """The current thread's body returned: finish it and switch."""
        sched = self._sched
        t = sched.current
        sched.finish(t, result)
        self._switch_thread()

    # -- fetch helpers ---------------------------------------------------------------

    def _fetch(self) -> int:
        u = self._units[self.pc]
        self.pc += 1
        return u

    def _fetch_signed(self) -> int:
        u = self._code.signed_unit(self.pc)
        self.pc += 1
        return u

    # -- control ---------------------------------------------------------------------

    def _op_stop(self) -> None:
        raise _ProgramStop()

    def _op_branch(self) -> None:
        ofs = self._code.signed_unit(self.pc)
        self.pc += ofs

    def _op_branchif(self) -> None:
        if self.accu != self._values.val_false:
            self.pc += self._code.signed_unit(self.pc)
        else:
            self.pc += 1

    def _op_branchifnot(self) -> None:
        if self.accu == self._values.val_false:
            self.pc += self._code.signed_unit(self.pc)
        else:
            self.pc += 1

    def _op_check_signals(self) -> None:
        # Pending events are polled before every instruction; this opcode
        # exists as the explicit safe point the compiler plants in loops,
        # mirroring OCVM's CHECK_SIGNALS (paper Figure 3).
        return None

    # -- stack / accumulator -----------------------------------------------------------

    def _op_acc(self) -> None:
        self.accu = self.stack.peek(self._fetch())

    def _op_push(self) -> None:
        self.stack.push(self.accu)

    def _op_pushacc(self) -> None:
        self.stack.push(self.accu)
        self.accu = self.stack.peek(self._fetch())

    def _op_pop(self) -> None:
        self.stack.popn(self._fetch())

    def _op_assign(self) -> None:
        self.stack.poke(self._fetch(), self.accu)
        self.accu = self._values.val_unit

    # -- environment ---------------------------------------------------------------------

    def _op_envacc(self) -> None:
        self.accu = self._mem.field(self.env, self._fetch())

    def _op_pushenvacc(self) -> None:
        self.stack.push(self.accu)
        self.accu = self._mem.field(self.env, self._fetch())

    def _op_offsetclosure0(self) -> None:
        self.accu = self.env

    # -- constants and globals ---------------------------------------------------------------

    def _op_constint(self) -> None:
        self.accu = self._values.val_int(self._fetch_signed())

    def _op_pushconstint(self) -> None:
        self.stack.push(self.accu)
        self.accu = self._values.val_int(self._fetch_signed())

    def _op_atom(self) -> None:
        self.accu = self._mem.atoms.atom(self._fetch())

    def _op_pushatom(self) -> None:
        self.stack.push(self.accu)
        self.accu = self._mem.atoms.atom(self._fetch())

    def _op_getglobal(self) -> None:
        self.accu = self._mem.field(self.global_data, self._fetch())

    def _op_pushgetglobal(self) -> None:
        self.stack.push(self.accu)
        self.accu = self._mem.field(self.global_data, self._fetch())

    def _op_setglobal(self) -> None:
        self._mem.set_field(self.global_data, self._fetch(), self.accu)
        self.accu = self._values.val_unit

    # -- exceptions ----------------------------------------------------------------------------

    def _op_pushtrap(self) -> None:
        """Install a trap frame: handler pc, previous trapsp, env, extra."""
        ofs = self._code.signed_unit(self.pc)
        handler = self.pc + ofs
        self.pc += 1
        stack = self.stack
        stack.push(self._values.val_int(self.extra_args))
        stack.push(self.env)
        stack.push(self.trapsp)  # a raw stack address (or 0)
        stack.push(self.code_addr(handler))
        self.trapsp = stack.sp

    def _op_poptrap(self) -> None:
        """Remove the innermost trap frame (the protected body finished)."""
        stack = self.stack
        self.trapsp = stack.peek(1)
        stack.popn(4)

    def _op_raise(self) -> None:
        """Raise the exception in ACCU to the innermost handler."""
        self.do_raise(self.accu)

    def do_raise(self, exception: int) -> None:
        """Unwind to the current trap frame, as OCaml's RAISE does.

        With no handler installed the exception is fatal, like an
        uncaught OCaml exception aborting the program.
        """
        if self.trapsp == 0:
            raise VMRuntimeError(
                "uncaught exception: " + self._describe_exception(exception)
            )
        stack = self.stack
        if not (stack.stack_low <= self.trapsp < stack.stack_high):
            raise VMRuntimeError("corrupt trap pointer")  # pragma: no cover
        stack.sp = self.trapsp
        self.pc = self.code_index(stack.pop())
        self.trapsp = stack.pop()
        self.env = stack.pop()
        self.extra_args = self._values.int_val(stack.pop())
        self.accu = exception

    def _describe_exception(self, exception: int) -> str:
        mem = self._mem
        if self._values.is_int(exception):
            return str(self._values.int_val(exception))
        from repro.memory.blocks import STRING_TAG

        # Probe with find_or_none rather than catching SegmentationFault:
        # a corrupt exception value must not pay the raise, and the
        # address-space hit cache stays coherent on the miss.
        header_addr = exception - self._wb
        if (
            exception % self._wb == 0
            and mem.space.find_or_none(header_addr) is not None
            and mem.tag_of(exception) == STRING_TAG
        ):
            try:
                return mem.read_string(exception).decode(errors="replace")
            except MemoryError_:  # pragma: no cover - corrupt size field
                pass
        return f"<block at {exception:#x}>"

    def raise_runtime(self, message: str) -> None:
        """Raise a runtime exception carrying ``message`` as a string.

        Used by failing instructions (division by zero, bounds checks)
        so byte-code programs can catch them with ``try``/``with``.
        """
        self.do_raise(self._mem.make_string(message.encode()))

    # -- application ---------------------------------------------------------------------------

    def _op_push_retaddr(self) -> None:
        ofs = self._code.signed_unit(self.pc)
        target = self.pc + ofs
        self.pc += 1
        self.stack.push(self._values.val_int(self.extra_args))
        self.stack.push(self.env)
        self.stack.push(self.code_addr(target))

    def _op_apply(self) -> None:
        self.extra_args = self._fetch() - 1
        closure = self.accu
        self.pc = self.code_index(self._mem.field(closure, 0))
        self.env = closure

    def _op_appterm(self) -> None:
        nargs = self._fetch()
        slotsize = self._fetch()
        stack = self.stack
        gap = slotsize - nargs
        for i in range(nargs - 1, -1, -1):
            stack.poke(gap + i, stack.peek(i))
        stack.popn(gap)
        closure = self.accu
        self.pc = self.code_index(self._mem.field(closure, 0))
        self.env = closure
        self.extra_args += nargs - 1

    def _op_return(self) -> None:
        self.stack.popn(self._fetch())
        if self.extra_args > 0:
            self.extra_args -= 1
            closure = self.accu
            self.pc = self.code_index(self._mem.field(closure, 0))
            self.env = closure
        else:
            self._pop_frame()

    def _pop_frame(self) -> None:
        ret = self.stack.pop()
        if ret == EXIT_SENTINEL:
            # Bottom of a spawned thread: retire it.
            self.stack.popn(2)  # saved env, saved extra_args
            self._finish_thread(self.accu)
            return
        self.pc = self.code_index(ret)
        self.env = self.stack.pop()
        self.extra_args = self._values.int_val(self.stack.pop())

    def _op_grab(self) -> None:
        n = self._fetch()
        if self.extra_args >= n:
            self.extra_args -= n
            return
        # Partial application: build a closure that restarts here.
        num_args = 1 + self.extra_args
        restart_index = self.pc - 3  # the RESTART preceding this GRAB
        block = self._mem.alloc(num_args + 2, CLOSURE_TAG)
        self._mem.init_field(block, 0, self.code_addr(restart_index))
        self._mem.init_field(block, 1, self.env)
        for i in range(num_args):
            self._mem.init_field(block, i + 2, self.stack.pop())
        self.accu = block
        self._pop_frame()

    def _op_restart(self) -> None:
        env = self.env
        num_args = self._mem.size_of(env) - 2
        self.stack.reserve(num_args)
        for i in range(num_args - 1, -1, -1):
            self.stack.push(self._mem.field(env, i + 2))
        self.env = self._mem.field(env, 1)
        self.extra_args += num_args

    def _op_closure(self) -> None:
        nvars = self._fetch()
        ofs = self._code.signed_unit(self.pc)
        target = self.pc + ofs
        self.pc += 1
        if nvars > 0:
            self.stack.push(self.accu)
        block = self._mem.alloc(1 + nvars, CLOSURE_TAG)
        self._mem.init_field(block, 0, self.code_addr(target))
        for i in range(nvars):
            self._mem.init_field(block, i + 1, self.stack.pop())
        self.accu = block

    # -- blocks -------------------------------------------------------------------------------

    def _op_makeblock(self) -> None:
        size = self._fetch()
        tag = self._fetch()
        if size == 0:
            self.accu = self._mem.atoms.atom(tag)
            return
        block = self._mem.alloc(size, tag)
        # Read accu only after the allocation: a GC may have moved it.
        self._mem.init_field(block, 0, self.accu)
        for i in range(1, size):
            self._mem.init_field(block, i, self.stack.pop())
        self.accu = block

    def _op_getfield(self) -> None:
        self.accu = self._mem.field(self.accu, self._fetch())

    def _op_setfield(self) -> None:
        n = self._fetch()
        self._mem.set_field(self.accu, n, self.stack.pop())
        self.accu = self._values.val_unit

    def _op_vectlength(self) -> None:
        self.accu = self._values.val_int(self._mem.size_of(self.accu))

    def _in_bounds(self, block: int, index: int) -> bool:
        return 0 <= index < self._mem.size_of(block)

    def _op_getvectitem(self) -> None:
        index = self._values.int_val(self.stack.pop())
        if not self._in_bounds(self.accu, index):
            return self.raise_runtime("Invalid_argument: index out of bounds")
        self.accu = self._mem.field(self.accu, index)

    def _op_setvectitem(self) -> None:
        index = self._values.int_val(self.stack.pop())
        value = self.stack.pop()
        if not self._in_bounds(self.accu, index):
            return self.raise_runtime("Invalid_argument: index out of bounds")
        self._mem.set_field(self.accu, index, value)
        self.accu = self._values.val_unit

    def _op_getstringchar(self) -> None:
        index = self._values.int_val(self.stack.pop())
        try:
            byte = self._mem.string_get(self.accu, index)
        except VMRuntimeError:
            return self.raise_runtime("Invalid_argument: index out of bounds")
        self.accu = self._values.val_int(byte)

    def _op_setstringchar(self) -> None:
        index = self._values.int_val(self.stack.pop())
        value = self._values.int_val(self.stack.pop())
        try:
            self._mem.string_set(self.accu, index, value & 0xFF)
        except VMRuntimeError:
            return self.raise_runtime("Invalid_argument: index out of bounds")
        self.accu = self._values.val_unit

    def _op_isint(self) -> None:
        self.accu = self._values.val_bool(bool(self.accu & 1))

    # -- integer arithmetic -------------------------------------------------------------------

    def _op_negint(self) -> None:
        self.accu = self._values.val_int(-self._values.int_val(self.accu))

    def _op_addint(self) -> None:
        v = self._values
        self.accu = v.val_int(v.int_val(self.accu) + v.int_val(self.stack.pop()))

    def _op_subint(self) -> None:
        v = self._values
        self.accu = v.val_int(v.int_val(self.accu) - v.int_val(self.stack.pop()))

    def _op_mulint(self) -> None:
        v = self._values
        self.accu = v.val_int(v.int_val(self.accu) * v.int_val(self.stack.pop()))

    def _op_divint(self) -> None:
        v = self._values
        a = v.int_val(self.accu)
        b = v.int_val(self.stack.pop())
        if b == 0:
            return self.raise_runtime("Division_by_zero")
        q = abs(a) // abs(b)
        self.accu = v.val_int(q if (a >= 0) == (b >= 0) else -q)

    def _op_modint(self) -> None:
        v = self._values
        a = v.int_val(self.accu)
        b = v.int_val(self.stack.pop())
        if b == 0:
            return self.raise_runtime("Division_by_zero")
        q = abs(a) // abs(b)
        q = q if (a >= 0) == (b >= 0) else -q
        self.accu = v.val_int(a - b * q)  # C-style: sign follows dividend

    def _op_andint(self) -> None:
        self.accu &= self.stack.pop()

    def _op_orint(self) -> None:
        self.accu |= self.stack.pop()

    def _op_xorint(self) -> None:
        self.accu = (self.accu ^ self.stack.pop()) | 1

    def _op_lslint(self) -> None:
        v = self._values
        k = v.int_val(self.stack.pop()) & self._shift_mask
        self.accu = v.val_int(v.int_val(self.accu) << k)

    def _op_lsrint(self) -> None:
        k = self._values.int_val(self.stack.pop()) & self._shift_mask
        # Logical shift of the tagged representation, as OCaml does.
        self.accu = ((self.accu & self._word_mask) >> k) | 1

    def _op_asrint(self) -> None:
        k = self._values.int_val(self.stack.pop()) & self._shift_mask
        self.accu = self._mem.arch.asr(self.accu, k) | 1

    def _op_offsetint(self) -> None:
        v = self._values
        self.accu = v.val_int(v.int_val(self.accu) + self._fetch_signed())

    def _op_boolnot(self) -> None:
        v = self._values
        self.accu = v.val_true if self.accu == v.val_false else v.val_false

    # -- comparison ------------------------------------------------------------------------------

    def _op_eq(self) -> None:
        self.accu = self._values.val_bool(self.accu == self.stack.pop())

    def _op_neq(self) -> None:
        self.accu = self._values.val_bool(self.accu != self.stack.pop())

    def _cmp(self, op) -> None:
        v = self._values
        a = v.int_val(self.accu)
        b = v.int_val(self.stack.pop())
        self.accu = v.val_bool(op(a, b))

    def _op_ltint(self) -> None:
        self._cmp(lambda a, b: a < b)

    def _op_leint(self) -> None:
        self._cmp(lambda a, b: a <= b)

    def _op_gtint(self) -> None:
        self._cmp(lambda a, b: a > b)

    def _op_geint(self) -> None:
        self._cmp(lambda a, b: a >= b)

    # -- literal pools -----------------------------------------------------------------------------

    def _op_strlit(self) -> None:
        data = self._code.string_literals[self._fetch()]
        self.accu = self._mem.make_string(data)

    def _op_floatlit(self) -> None:
        x = self._code.float_literals[self._fetch()]
        self.accu = self._mem.make_float(x)

    # -- foreign calls -----------------------------------------------------------------------------

    def _op_c_call(self) -> None:
        nargs = self._fetch()
        pid = self._fetch()
        vm = self.vm
        prim = vm.primitives.by_id(pid)
        if prim.nargs != nargs:
            raise BytecodeError(
                f"{prim.name} expects {prim.nargs} args, C_CALL passed {nargs}"
            )
        roots = vm.temp_roots
        base = len(roots)
        roots.append(self.accu)
        for i in range(nargs - 1):
            roots.append(self.stack.peek(i))
        view = ArgsView(roots, base, nargs)
        blocked = False
        thrown: int | None = None
        try:
            result = prim.fn(vm, view)
        except BlockThread as b:
            result = b.result
            blocked = True
        except VMExceptionRaise as e:
            result = self._values.val_unit
            thrown = e.value
        except YieldNode:
            # Suspend the whole VM: rewind to the C_CALL so the primitive
            # re-executes on resume; arguments stay on the stack.
            self.pc -= 3
            raise
        finally:
            del roots[base:]
        self.stack.popn(nargs - 1)
        self.accu = result
        if thrown is not None:
            return self.do_raise(thrown)
        if blocked:
            self._pending.request_reschedule()


#: The reference tier's dispatch table, opcode -> unbound handler: one
#: per class, called as ``handler(interp)``.  (A per-instance table of
#: bound methods would be a reference cycle through every interpreter.)
Interpreter._HANDLERS = [None] * 128
for _op in Op:
    Interpreter._HANDLERS[int(_op)] = getattr(
        Interpreter, f"_op_{_op.name.lower()}"
    )
del _op
