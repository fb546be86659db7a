"""Round-robin scheduler with a virtual preemption timer.

"OCVM schedules a ready thread to run according to specific policies
defined by the system" (paper §2.3).  The timer is virtual: it fires
every ``quantum`` interpreted instructions and takes effect at the next
safe point, which keeps preemption deterministic — a property both the
test suite and reproducible benchmarks rely on.  The checkpointer
disables the timer while a checkpoint is being written (paper §4.1
step 3).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import DeadlockError, ThreadError
from repro.memory.layout import AreaKind
from repro.memory.stack import VMStack
from repro.threads.thread import BlockKind, EXIT_SENTINEL, ThreadState, VMThread

#: Default preemption quantum in interpreted instructions.
DEFAULT_QUANTUM = 1000

#: Default per-thread stack size in words.
THREAD_STACK_WORDS = 1024


class Scheduler:
    """Owns every VM thread and picks who runs next."""

    def __init__(
        self,
        space,
        arch,
        thread_stack_base: int,
        thread_stride: int,
        initial_value: int,
        quantum: int = DEFAULT_QUANTUM,
    ) -> None:
        self._space = space
        self._arch = arch
        self._stack_base = thread_stack_base
        self._stride = thread_stride
        self._initial_value = initial_value
        self.quantum = quantum
        #: Virtual timer enable flag (checkpoint step 3 clears it).
        self.timer_enabled = True
        self.threads: dict[int, VMThread] = {}
        self._next_tid = 0
        self._next_stack_slot = 0
        self.current: Optional[VMThread] = None
        #: True once a second thread has ever been created — the paper's
        #: "application type" saved in the checkpoint header.
        self.ever_multithreaded = False
        #: Context switches performed (statistics).
        self.switches = 0
        #: Dirty hook installed on every stack this scheduler creates
        #: (incremental checkpoints track stack reallocation).
        self.stack_grow_hook = None

    # -- thread creation -----------------------------------------------------

    def new_stack(self, label: str) -> VMStack:
        """Allocate a stack area for a new thread."""
        high = self._stack_base + self._next_stack_slot * self._stride
        self._next_stack_slot += 1
        stack = VMStack(
            self._space,
            self._arch,
            high,
            n_words=THREAD_STACK_WORDS,
            label=label,
            max_words=self._stride // self._arch.word_bytes,
            kind=AreaKind.THREAD_STACK,
        )
        stack.on_grow = self.stack_grow_hook
        return stack

    def create_main(self, stack: VMStack) -> VMThread:
        """Register the main thread (tid 0) using the main VM stack."""
        if self.threads:
            raise ThreadError("main thread already exists")
        t = VMThread(0, stack, self._initial_value)
        self.threads[0] = t
        self._next_tid = 1
        self.current = t
        return t

    def spawn(self, closure: int, code_addr_of: Callable[[int], int]) -> VMThread:
        """Create a thread that will run ``closure`` applied to ``()``.

        The bootstrap stack frame uses the exit sentinel as return
        address, so the interpreter detects thread termination when the
        body returns.
        """
        tid = self._next_tid
        self._next_tid += 1
        stack = self.new_stack(f"thread-stack-{tid}")
        t = VMThread(tid, stack, self._initial_value)
        # Frame: [arg=unit, retaddr=SENTINEL, env=unit-ish, extra_args=0]
        # matching PUSH_RETADDR + one argument.
        stack.push(1)               # Val_int(0): saved extra_args
        stack.push(self._initial_value)  # saved env
        stack.push(EXIT_SENTINEL)   # return address sentinel
        stack.push(1)               # the unit argument
        t.accu = closure
        t.env = closure
        t.pc = code_addr_of(closure)
        t.extra_args = 0
        self.threads[tid] = t
        self.ever_multithreaded = True
        return t

    def adopt(self, thread: VMThread) -> None:
        """Install a thread rebuilt by restart."""
        self.threads[thread.tid] = thread
        self._next_tid = max(self._next_tid, thread.tid + 1)
        if thread.tid >= 1:
            self.ever_multithreaded = True
            slot = (thread.stack.stack_high - self._stack_base) // self._stride
            self._next_stack_slot = max(self._next_stack_slot, slot + 1)

    # -- state transitions -------------------------------------------------------

    def block_current(self, kind: BlockKind, on) -> None:
        """Mark the running thread blocked."""
        t = self.current
        if t is None:
            raise ThreadError("no running thread")
        t.state = ThreadState.BLOCKED
        t.block_kind = kind
        t.blocked_on = on

    def finish(self, thread: VMThread, result: int) -> None:
        """Mark a thread finished and wake its joiners."""
        thread.state = ThreadState.FINISHED
        thread.result = result
        thread.block_kind = BlockKind.NONE
        for other in self.threads.values():
            if (
                other.state is ThreadState.BLOCKED
                and other.block_kind is BlockKind.JOIN
                and other.blocked_on == thread.tid
            ):
                self.make_runnable(other)

    def make_runnable(self, thread: VMThread) -> None:
        """Unblock a thread."""
        thread.state = ThreadState.RUNNABLE
        thread.block_kind = BlockKind.NONE
        thread.blocked_on = self._initial_value

    # -- selection ---------------------------------------------------------------

    def pick_next(self) -> Optional[VMThread]:
        """Round-robin choice of the next runnable thread.

        Returns ``None`` when every thread has finished; raises
        :class:`DeadlockError` when live threads exist but all are
        blocked.
        """
        tids = sorted(self.threads)
        if not tids:
            return None
        start = self.current.tid if self.current is not None else tids[0]
        rotated = [t for t in tids if t > start] + [t for t in tids if t <= start]
        for tid in rotated:
            t = self.threads[tid]
            if t.is_runnable:
                return t
        if any(t.state is ThreadState.BLOCKED for t in self.threads.values()):
            blocked = [
                f"thread {t.tid} ({t.block_kind.value})"
                for t in self.threads.values()
                if t.state is ThreadState.BLOCKED
            ]
            raise DeadlockError(
                "all live threads are blocked: " + ", ".join(blocked)
            )
        return None

