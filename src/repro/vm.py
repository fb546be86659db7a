"""The virtual machine façade: the library's main entry point.

Ties together the memory manager, garbage collector, scheduler,
channels, primitives and interpreter for one simulated platform, and
exposes the checkpoint/restart controls the paper drives through the
``CHKPT_STATE`` / ``CHKPT_FILENAME`` / ``CHKPT_INTERVAL`` environment
variables (§4.1-4.2).

Typical use::

    from repro import VirtualMachine, compile_source, get_platform

    code = compile_source("print_int (6 * 7)")
    vm = VirtualMachine(get_platform("rodrigo"), code)
    result = vm.run()
    assert result.stdout == b"42"
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import BinaryIO, Mapping, Optional

from repro.arch.platforms import Platform
from repro.bytecode.image import CodeImage
from repro.errors import CheckpointError, ReproError
from repro.gc import GCController
from repro.gc.roots import MutatorRoots
from repro.interpreter.interpreter import Interpreter
from repro.interpreter.primitives import (
    ExitProgram,
    PrimitiveTable,
    STANDARD_PRIMITIVES,
)
from repro.interpreter.signals import PendingSet
from repro.channels.manager import ChannelManager
from repro.memory.manager import MemoryManager
from repro.memory.stack import DEFAULT_STACK_WORDS, VMStack
from repro.threads.scheduler import Scheduler
from repro.threads.sync import CondvarOps, MutexOps
from repro.threads.thread import ThreadState


@dataclass
class VMConfig:
    """Run-time configuration, mirroring the paper's environment variables."""

    #: ``CHKPT_STATE``: "enable" (take checkpoints when asked), "disable",
    #: or "restart" (start from ``chkpt_filename``).
    chkpt_state: str = "enable"
    #: ``CHKPT_FILENAME``: where checkpoints go / come from.
    chkpt_filename: Optional[str] = None
    #: ``CHKPT_INTERVAL``: seconds between system-initiated checkpoints
    #: (None or a negative value disables them, like the paper's -1).
    chkpt_interval: Optional[float] = None
    #: Checkpoint concurrency: "auto" picks by OS personality (fork ->
    #: background snapshot writer, NT -> blocking); may be forced.
    chkpt_mode: str = "auto"
    #: Memory sizing knobs (words).
    minor_words: Optional[int] = None
    chunk_words: Optional[int] = None
    stack_words: int = DEFAULT_STACK_WORDS
    #: Thread preemption quantum in instructions.
    quantum: int = 1000
    #: ``CHKPT_DISPATCH``: interpreter dispatch tier.  ``"fast"`` (the
    #: default) runs decode-once closures with superinstruction fusion
    #: and batched loop kernels; ``"reference"`` keeps the canonical
    #: fetch/decode/execute loop as the differential oracle.  Both
    #: tiers produce bit-identical checkpoints.
    dispatch: str = "fast"
    #: ``CHKPT_RETAIN``: how many previous checkpoint generations to keep
    #: as ``path.1`` ... ``path.N`` (0 = overwrite, the paper's single
    #: checkpoint file).  Restores fall back along this chain when the
    #: newest generation fails verification.
    chkpt_retain: int = 0
    #: ``CHKPT_INCREMENTAL``: write format-v4 delta checkpoints carrying
    #: only dirty heap regions when a usable parent generation exists.
    #: Requires ``chkpt_retain >= 1`` (the parent must survive rotation);
    #: otherwise every checkpoint silently stays full.
    chkpt_incremental: bool = False
    #: ``CHKPT_FULL_EVERY``: force a full checkpoint every N generations,
    #: bounding delta-chain length (0 = no periodic full).
    chkpt_full_every: int = 8
    #: ``CHKPT_DIRTY_THRESHOLD``: write a full checkpoint instead of a
    #: delta when the dirty heap fraction exceeds this ratio (a delta
    #: would barely be smaller but still costs a chain entry).
    chkpt_dirty_threshold: float = 0.5
    #: ``CHKPT_REGION_WORDS``: dirty-region granularity in words
    #: (power of two; default 1 KiB of words).
    chkpt_region_words: int = 1024
    #: ``CHKPT_LAZY``: convert restored heap chunks lazily on first
    #: touch instead of eagerly during restart, cutting blocking
    #: time-to-first-output; a background drainer finishes the rest
    #: between interpreter quanta.
    lazy_restore: bool = False
    #: Commit hook override (fault injection); ``None`` = real syscalls.
    commit_hooks: Optional[object] = None

    @classmethod
    def from_env(cls, environ: Mapping[str, str]) -> "VMConfig":
        """Build a config from CHKPT_* environment variables (paper Fig. 5)."""
        cfg = cls()
        state = environ.get("CHKPT_STATE")
        if state in ("enable", "disable", "restart"):
            cfg.chkpt_state = state
        cfg.chkpt_filename = environ.get("CHKPT_FILENAME", cfg.chkpt_filename)
        raw = environ.get("CHKPT_INTERVAL")
        if raw is not None:
            try:
                interval = float(raw)
                cfg.chkpt_interval = None if interval < 0 else interval
            except ValueError:
                pass
        tier = environ.get("CHKPT_DISPATCH")
        if tier is not None and tier.strip().lower() in ("fast", "reference"):
            cfg.dispatch = tier.strip().lower()
        raw = environ.get("CHKPT_RETAIN")
        if raw is not None and raw.strip().isdigit():
            cfg.chkpt_retain = int(raw.strip())
        inc = environ.get("CHKPT_INCREMENTAL")
        if inc is not None:
            cfg.chkpt_incremental = inc.strip().lower() not in (
                "0", "false", "no", "off",
            )
        raw = environ.get("CHKPT_FULL_EVERY")
        if raw is not None and raw.strip().isdigit():
            cfg.chkpt_full_every = int(raw.strip())
        raw = environ.get("CHKPT_DIRTY_THRESHOLD")
        if raw is not None:
            try:
                cfg.chkpt_dirty_threshold = float(raw)
            except ValueError:
                pass
        raw = environ.get("CHKPT_REGION_WORDS")
        if raw is not None and raw.strip().isdigit():
            cfg.chkpt_region_words = int(raw.strip())
        lazy = environ.get("CHKPT_LAZY")
        if lazy is not None:
            cfg.lazy_restore = lazy.strip().lower() not in (
                "0", "false", "no", "off",
            )
        return cfg


@dataclass
class RunResult:
    """Outcome of a :meth:`VirtualMachine.run` call."""

    status: str  #: "stopped", "exited", or "budget"
    exit_code: int
    instructions: int
    vm: "VirtualMachine"

    @property
    def stdout(self) -> bytes:
        """Captured standard output (in-memory sink VMs only)."""
        return self.vm.channels.stdout_bytes()


class VirtualMachine:
    """One OCVM-style virtual machine on a simulated platform.

    The VM owns its parts as a tree: nothing reachable from it refers
    back to it (or to its own owner) strongly, so dropping the last
    outside reference frees the heap chunks, stacks and staged arrays
    at once, by reference count — no ``close()``, no cycle collector
    (DESIGN.md §5).

    ``boot=False`` leaves the major heap empty and ``global_data`` unset:
    the shell a restart fills with the heap and globals it carries.
    """

    def __init__(
        self,
        platform: Platform,
        code: CodeImage,
        config: Optional[VMConfig] = None,
        stdout: Optional[BinaryIO] = None,
        stdin: Optional[BinaryIO] = None,
        *,
        boot: bool = True,
    ) -> None:
        self.platform = platform
        self.code = code
        self.config = config or VMConfig()
        self.mem = MemoryManager(
            platform,
            minor_words=self.config.minor_words,
            chunk_words=self.config.chunk_words,
            region_words=self.config.chkpt_region_words,
        )
        self.pending = PendingSet()
        self.channels = ChannelManager(stdout=stdout, stdin=stdin)
        self.primitives: PrimitiveTable = STANDARD_PRIMITIVES
        #: Temporary GC roots for primitive arguments and intermediates.
        self.temp_roots: list[int] = []

        layout = platform.layout
        self.code_base = layout.code_base
        self.code_end = layout.code_base + 4 * len(code.units)

        # Main stack, sized so growth can never collide with the code area.
        wb = platform.arch.word_bytes
        stack_high = layout.stack_base + self.config.stack_words * wb
        max_main_words = (stack_high - self.code_end - 4096) // wb
        self.main_stack = VMStack(
            self.mem.space,
            platform.arch,
            layout.stack_base,
            n_words=self.config.stack_words,
            label="main-stack",
            max_words=max_main_words,
        )
        self.main_stack.on_grow = self.mem.dirty.note_stack_growth

        self.sched = Scheduler(
            self.mem.space,
            platform.arch,
            layout.thread_stack_base,
            layout.thread_stride,
            initial_value=self.mem.values.val_unit,
            quantum=self.config.quantum,
        )
        self.sched.stack_grow_hook = self.mem.dirty.note_stack_growth
        self.sched.create_main(self.main_stack)
        self.mutexes = MutexOps(self.mem, self.sched)
        self.condvars = CondvarOps(self.mem, self.sched, self.mutexes)

        self.interp = Interpreter(self)
        #: Fast-tier code bound to ``interp`` (operand-bound closures,
        #: built at the first fast run; :mod:`repro.interpreter.dispatch`).
        self.fast_code = None
        self.gc = GCController(
            self.mem,
            MutatorRoots(
                self.interp, self.sched, self.mem.cglobals, self.temp_roots
            ),
        )
        if boot:
            n_globals = max(1, code.n_globals)
            self.global_data = self.mem.alloc_shr(n_globals, 0)
            for i in range(n_globals):
                self.mem.init_field(
                    self.global_data, i, self.mem.values.val_unit
                )

        #: Statistics from checkpoints taken by this VM.
        self.checkpoints_taken = 0
        self.last_checkpoint_stats = None
        self._policy_last = time.monotonic()
        self._background_writer = None
        #: Stats of the in-flight (or last joined) background checkpoint.
        self._background_stats = None
        #: Delta-chain state: the body SHA-256 / path of the newest
        #: committed generation this run, and how many deltas deep the
        #: chain at that path currently is (0 = the head is full).
        self.delta_parent_sha: Optional[bytes] = None
        self.delta_parent_path: Optional[str] = None
        self.delta_depth: int = 0
        #: Set by restart so the first run() continues mid-program.
        self.restarted = False
        #: Deferred-conversion tracker after a ``--lazy-restore``
        #: restart (:class:`repro.checkpoint.reader.LazyRestoreState`);
        #: ``None`` once every chunk has converted (or always, eagerly).
        self.lazy_restore = None
        #: Cluster binding (rank/size/send/recv) when this VM is a node
        #: of a message-passing cluster; None for standalone VMs.
        self.cluster = None

    @property
    def global_data(self) -> int:
        """The program's global-data block: the interpreter's register
        of that name, where the instructions and the collectors use it."""
        return self.interp.global_data

    @global_data.setter
    def global_data(self, block: int) -> None:
        self.interp.global_data = block

    # -- code helpers -----------------------------------------------------------

    def code_addr_to_index(self, closure: int) -> int:
        """Entry point (code unit index) of a closure value."""
        return self.interp.code_index(self.mem.field(closure, 0))

    # -- running -------------------------------------------------------------------

    def run(self, max_instructions: Optional[int] = None) -> RunResult:
        """Execute the program (or continue it, after a restart).

        ``max_instructions`` bounds the slice exactly: ``0`` returns
        ``"budget"`` at once, ``None`` runs unbounded, negative raises.
        """
        if max_instructions is not None and max_instructions < 0:
            raise ReproError(
                f"max_instructions must be >= 0, got {max_instructions}"
            )
        try:
            status = self.interp.run(self, max_instructions)
            exit_code = 0
        except ExitProgram as e:
            status = "exited"
            exit_code = e.status
        self.join_background_checkpoint()
        self.channels.flush_all()
        return RunResult(
            status=status,
            exit_code=exit_code,
            instructions=self.interp.instructions,
            vm=self,
        )

    # -- checkpoint control ------------------------------------------------------------

    def request_checkpoint(self) -> None:
        """Ask for a checkpoint at the next safe point (sets the flag)."""
        if self.config.chkpt_state == "disable":
            return
        self.pending.request_checkpoint()

    def poll_checkpoint_policy(self) -> None:
        """Periodic (CHKPT_INTERVAL) system-initiated checkpoints."""
        interval = self.config.chkpt_interval
        if interval is None or self.config.chkpt_state == "disable":
            return
        now = time.monotonic()
        if now - self._policy_last >= interval:
            self._policy_last = now
            self.pending.request_checkpoint()

    def drain_lazy_restore(self) -> None:
        """Convert one pending lazily-restored chunk (background drain).

        Called by the interpreter between scheduler quanta so restores
        complete even when the workload never touches most of the heap.
        """
        state = self.lazy_restore
        if state is not None and not state.drain_one():
            self.lazy_restore = None

    def finish_lazy_restore(self) -> None:
        """Convert every pending chunk now (checkpoint writer barrier)."""
        state = self.lazy_restore
        if state is not None:
            state.finish()
            self.lazy_restore = None

    def perform_checkpoint(self) -> None:
        """Take a checkpoint right now (caller must be at a safe point)."""
        if self.config.chkpt_state == "disable":
            return
        path = self.config.chkpt_filename
        if path is None:
            raise CheckpointError(
                "no checkpoint filename configured (CHKPT_FILENAME)"
            )
        from repro.checkpoint.writer import CheckpointWriter

        writer = CheckpointWriter(self)
        self.last_checkpoint_stats = writer.checkpoint(path)
        self.checkpoints_taken += 1
        self._policy_last = time.monotonic()

    def join_background_checkpoint(self) -> None:
        """Wait for an in-flight background checkpoint writer, if any.

        Finalizes the stats the writer thread was filling (callers must
        not read ``stats.file_bytes`` before this returns — in
        background mode :meth:`CheckpointWriter.checkpoint` hands back
        the stats object while the write is still running) and surfaces
        a failed write as a typed :class:`CheckpointError` instead of
        silently dropping it.
        """
        if self._background_writer is None:
            return
        self._background_writer.join()
        self._background_writer = None
        stats = self._background_stats
        self._background_stats = None
        if stats is None:
            return
        stats.completed = True
        error = stats.error
        if error is None:
            return
        stats.error = None  # surfaced exactly once
        from repro.metrics import INTEGRITY

        INTEGRITY.background_checkpoint_failures += 1
        # The generation this writer was producing is lost; dirty
        # information accumulated since its capture no longer describes
        # the distance to a committed parent, so the next checkpoint
        # must be full.
        self.mem.dirty.mark_all()
        self.delta_parent_sha = None
        self.delta_parent_path = None
        self.delta_depth = 0
        if isinstance(error, CheckpointError):
            raise error
        raise CheckpointError(
            f"background checkpoint of {stats.path} failed: {error}"
        ) from error

    # -- state summaries (used by checkpoint and tests) -----------------------------------

    @property
    def is_multithreaded(self) -> bool:
        """The paper's "application type" header field."""
        return self.sched.ever_multithreaded

    def live_thread_count(self) -> int:
        """Threads that have not finished."""
        return sum(
            1
            for t in self.sched.threads.values()
            if t.state is not ThreadState.FINISHED
        )
