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
from dataclasses import dataclass, field, fields
from typing import Any, BinaryIO, Callable, Mapping, NamedTuple, Optional

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


class Knob(NamedTuple):
    """How a user sets one :class:`VMConfig` field.  ``env`` and ``flag``
    may be ``None``; both go through ``parse``, which raises
    ``ValueError`` for a value the knob does not accept."""

    env: Optional[str]
    flag: Optional[str]
    parse: Callable[[str], Any]
    meaning: str  #: one line of markdown (README table, ``--help``)


def _knob(default, env, flag, parse, meaning) -> Any:
    return field(default=default,
                 metadata={"knob": Knob(env, flag, parse, meaning)})


def _checked(convert, ok, message: str) -> Callable[[str], Any]:
    def parse(raw: str) -> Any:
        value = convert(raw)
        if not ok(value):
            raise ValueError(message)
        return value

    return parse


def _choice(*allowed: str) -> Callable[[str], str]:
    return _checked(lambda raw: raw.strip().lower(), lambda v: v in allowed,
                    f"expected one of {', '.join(allowed)}")


def _interval(raw: str) -> Optional[float]:
    value = float(raw)
    return None if value < 0 else value  # negative = off (the paper's -1)


def _switch(raw: str) -> bool:
    return raw.strip().lower() not in ("0", "false", "no", "off")


_count = _checked(int, lambda n: n >= 0, "expected a count >= 0")
_ratio = _checked(float, lambda r: 0 <= r <= 1, "expected a ratio in [0, 1]")
_power_of_two = _checked(int, lambda n: n > 0 and not n & (n - 1),
                         "expected a power of two")


@dataclass
class VMConfig:
    """Run-time configuration, mirroring the paper's environment variables.

    Each user-settable field is declared once, with its :class:`Knob`;
    :meth:`from_env`, the CLI flags and :func:`knob_table` derive from it.
    """

    chkpt_state: str = _knob(
        "enable", "CHKPT_STATE", None, _choice("enable", "disable", "restart"),
        "`enable`, `disable`, or `restart` (paper Fig. 5)")
    chkpt_filename: Optional[str] = _knob(
        None, "CHKPT_FILENAME", "--checkpoint", str,
        "where checkpoints go / come from")
    chkpt_interval: Optional[float] = _knob(
        None, "CHKPT_INTERVAL", "--interval", _interval,
        "seconds between system-initiated checkpoints (negative = off)")
    chkpt_mode: str = _knob(
        "background", None, "--mode", _choice("background", "blocking"),
        "`background` (a writer thread; blocking where the platform "
        "cannot fork) or `blocking`")
    #: Memory sizing knobs (words).
    minor_words: Optional[int] = None
    chunk_words: Optional[int] = None
    stack_words: int = DEFAULT_STACK_WORDS
    #: Thread preemption quantum in instructions.
    quantum: int = 1000
    #: ``reference`` is the canonical fetch/decode/execute loop, kept as
    #: the differential oracle; both tiers write bit-identical checkpoints.
    dispatch: str = _knob(
        "fast", "CHKPT_DISPATCH", "--dispatch", _choice("fast", "reference"),
        "interpreter tier: `fast` or `reference`")
    #: Restores fall back along this chain when the newest generation
    #: fails verification.
    chkpt_retain: int = _knob(
        0, "CHKPT_RETAIN", "--retain", _count,
        "previous generations kept as `path.1..path.N`")
    #: Needs ``chkpt_retain >= 1`` (the parent must survive rotation);
    #: otherwise every checkpoint silently stays full.
    chkpt_incremental: bool = _knob(
        False, "CHKPT_INCREMENTAL", "--incremental", _switch,
        "write v4 deltas; needs `--retain` >= 1 (else every checkpoint "
        "is full) and chains at most `--retain` deep")
    chkpt_full_every: int = _knob(
        8, "CHKPT_FULL_EVERY", "--full-every", _count,
        "force a full checkpoint every N generations (0 = never)")
    #: Above it a delta would barely be smaller but still costs a chain
    #: entry.
    chkpt_dirty_threshold: float = _knob(
        0.5, "CHKPT_DIRTY_THRESHOLD", "--dirty-threshold", _ratio,
        "dirty heap fraction above which a full is written")
    chkpt_region_words: int = _knob(
        1024, "CHKPT_REGION_WORDS", "--region-words", _power_of_two,
        "dirty-tracking granularity in words (a power of two)")
    #: A background drainer converts the rest between interpreter quanta.
    lazy_restore: bool = _knob(
        False, "CHKPT_LAZY", "--lazy-restore", _switch,
        "convert restored chunks on first touch")
    #: Commit hook override (fault injection); ``None`` = real syscalls.
    commit_hooks: Optional[object] = None

    @classmethod
    def from_env(cls, environ: Mapping[str, str]) -> "VMConfig":
        """Build a config from CHKPT_* environment variables (paper Fig. 5).

        A value its knob's parser refuses is ignored: the default stands.
        """
        cfg = cls()
        for name, _, knob in knobs():
            raw = environ.get(knob.env) if knob.env else None
            if raw is not None:
                try:
                    setattr(cfg, name, knob.parse(raw))
                except ValueError:
                    pass
        return cfg


def knobs() -> list[tuple[str, Any, Knob]]:
    """``(field name, default, Knob)`` for every user-settable field."""
    return [(f.name, f.default, f.metadata["knob"])
            for f in fields(VMConfig) if "knob" in f.metadata]


def knob_table() -> str:
    """The markdown table of every knob, as the README embeds it."""

    def shown(value: Any) -> str:
        if isinstance(value, bool):
            return "on" if value else "off"
        if isinstance(value, str):
            return f"`{value}`"
        return "none" if value is None else str(value)

    rows = ["| variable | flag | default | meaning |", "|---|---|---|---|"]
    for _, default, knob in knobs():
        env = f"`{knob.env}`" if knob.env else "—"
        flag = f"`{knob.flag}`" if knob.flag else "—"
        rows.append(f"| {env} | {flag} | {shown(default)} | {knob.meaning} |")
    return "\n".join(rows) + "\n"


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
        self.last_checkpoint_stats = writer.checkpoint(
            path, self.config.commit_hooks
        )
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
