"""The checkpoint mechanism (paper §4.1, Figure 4).

The fourteen steps, mapped onto this implementation:

1.  *Fork.*  POSIX personalities snapshot the VM state in memory (the
    moral equivalent of the child's copy-on-write image) and serialize +
    write it on a background thread while the application continues.
    The NT personality has no fork, so the whole write happens inline,
    blocking the application — reproducing the paper's "overhead on NT
    is higher".
2.  Minor collection, so the young generation is empty and not saved.
3.  Disable the thread-scheduling timer while state is captured.
4.  Open a temporary checkpoint file.
5.  Save the architecture marker (the value one) and application type.
6.  Save boundary addresses of all memory areas.
7.  Save the abstract registers (per thread).
8.  Dump the major heap chunk by chunk.
9.  Save VM globals (freelist head, global_data) and the atom table.
10. Save the application stack (the used region).
11. Save all other thread stacks and thread state.
12. Save channel information.
13. Write the end signature and atomically commit
    (temp file + ``os.replace``).
14. "Terminate the checkpointer process" — join the writer thread.
"""

from __future__ import annotations

import array
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.checkpoint.commit import CommitHooks, atomic_commit
from repro.checkpoint.format import (
    CLASS_DOUBLE,
    CLASS_FREE,
    CLASS_OPAQUE,
    CLASS_SCAN,
    CLASS_STRING,
    AreaRecord,
    CheckpointHeader,
    DeltaChunkRecord,
    DeltaInfo,
    RegisterRecord,
    ThreadRecord,
    VMSnapshot,
    serialize_snapshot_writer,
)
from repro.checkpoint.schema import FormatProfile
from repro.errors import CheckpointError
from repro.memory.blocks import Color, DOUBLE_TAG, NO_SCAN_TAG, STRING_TAG
from repro.metrics import DELTA, PhaseTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm import VirtualMachine


@dataclass
class CheckpointStats:
    """Timings and sizes for one checkpoint (drives Figures 10/11/13)."""

    path: str = ""
    file_bytes: int = 0
    heap_words: int = 0
    #: Wall time the *application* was blocked (snapshot build, or the
    #: whole write in blocking mode).
    blocking_seconds: float = 0.0
    #: Phase breakdown of the checkpointer's work (Figure 13).
    phases: PhaseTimer = field(default_factory=PhaseTimer)
    mode: str = "background"
    #: "full" or "delta" (format v4 incremental checkpoint).
    kind: str = "full"
    #: Delta bookkeeping (zero for full checkpoints).
    dirty_words: int = 0
    total_words: int = 0
    chain_depth: int = 0
    #: True once the write finished (set immediately in blocking mode;
    #: by :meth:`VirtualMachine.join_background_checkpoint` otherwise).
    #: ``file_bytes`` is unreliable until then — background callers must
    #: join before reading it.
    completed: bool = False
    #: The writer-thread failure, surfaced as a typed error at join.
    error: Optional[BaseException] = None
    #: The committed image, a read-only view of the serializer's buffer
    #: (no copy) — kept only for a caller that asked (``keep_data``), so
    #: neither a run's last stats nor a background write pin it.
    data: Optional[memoryview] = field(default=None, repr=False)
    #: The committed image's SHA-256 (hex), as the serializer computed
    #: it (blocking mode).
    data_sha256: str = ""

    @property
    def writer_seconds(self) -> float:
        """Total checkpointer time across phases."""
        return self.phases.total


def build_snapshot(
    vm: "VirtualMachine",
    timer: Optional[PhaseTimer] = None,
    defer_unbox: bool = False,
    try_delta: bool = False,
) -> VMSnapshot:
    """Capture checkpointable state at the current safe point.

    Performs the minor collection (step 2) so the young generation need
    not be saved, then copies every area the restart will need.

    ``defer_unbox`` (background mode) keeps the blocking window at its
    minimum — heap chunks are captured as plain list copies and the
    numpy conversion happens on the writer thread.  In blocking mode a
    full copies nothing: the VM runs no further until the commit
    returns, so the serializer unboxes each chunk as it writes it
    (:class:`_LiveChunk`) and holds one chunk beside the file, not the
    heap.

    With ``try_delta`` (the caller has already verified a usable parent
    generation exists) the capture inspects the dirty-region tracker
    *after* the minor collection — promotion dirties regions — and, if
    the dirty ratio stays under ``chkpt_dirty_threshold``, copies only
    the dirty runs of each chunk into a format-v4 delta snapshot.
    Either way the tracker is cleared inside the blocking window, so
    the next delta measures mutation since *this* capture.
    """
    timer = timer or PhaseTimer()
    # A checkpoint taken mid-lazy-restore must dump *converted* words:
    # the heap capture below copies staged chunk arrays verbatim, so
    # force every pending first-touch thunk now, inside the blocking
    # window.  The same barrier forces any still-deferred section
    # verification (unread heap payloads, the whole-body SHA-256, the
    # end-of-file CRC) — a corrupt source fails here, typed, rather
    # than silently re-serializing unverified bytes.  This is what
    # makes a mid-lazy-restore checkpoint commit bit-identically to
    # one taken after an eager restore.
    if vm.lazy_restore is not None:
        with timer.phase("lazy_finish"):
            vm.finish_lazy_restore()
    # Step 2: empty the young generation.  A *pure* minor collection, as
    # in the paper — the incremental major slice the mutator owes stays
    # owed and is paid at the next ordinary allocation-triggered GC.
    with timer.phase("minor_gc"):
        vm.gc.minor.collect()
    assert vm.mem.minor.is_empty()

    # Delta feasibility: decided after the minor GC (promotion marks
    # regions) and inside the blocking window (the tracker is live).
    dirty = None
    delta_mode = False
    dirty_word_count = 0
    if try_delta:
        dirty = vm.mem.dirty.snapshot()
        if not dirty.force_full:
            geometry = [(c.base, c.n_words) for c in vm.mem.heap.chunks]
            total = sum(n for _, n in geometry)
            dirty_word_count = dirty.dirty_words(geometry)
            delta_mode = (
                total == 0
                or dirty_word_count / total <= vm.config.chkpt_dirty_threshold
            )

    # Step 3: capture with the scheduler timer off.
    timer_was = vm.sched.timer_enabled
    vm.sched.timer_enabled = False
    try:
        # Make thread records uniform: park live registers.
        current = vm.sched.current
        vm.interp.save_to_thread(current)

        with timer.phase("registers"):
            threads = []
            for tid in sorted(vm.sched.threads):
                t = vm.sched.threads[tid]
                stack = t.stack
                regs = RegisterRecord(
                    pc=vm.code_base + 4 * t.pc,
                    sp=stack.sp,
                    accu=t.accu,
                    env=t.env,
                    extra_args=t.extra_args,
                    trapsp=t.trapsp,
                )
                threads.append(
                    ThreadRecord(
                        tid=t.tid,
                        state=t.state.value,
                        block_kind=t.block_kind.value,
                        blocked_on=t.blocked_on,
                        pending_mutex=t.pending_mutex,
                        result=t.result,
                        regs=regs,
                        stack_base=stack.area.base,
                        stack_high=stack.stack_high,
                        capacity_words=stack.n_words,
                        stack_words=[],  # filled below, timed as "stack"
                    )
                )

        # Step 6: boundaries of every mapped area plus the code segment.
        with timer.phase("boundaries"):
            boundaries = [
                AreaRecord(a.kind.value, a.label, a.base, a.n_words)
                for a in vm.mem.space.areas()
            ]
            boundaries.append(
                AreaRecord("code", "code", vm.code_base, len(vm.code.units))
            )

        # Step 8: dump the major heap (copy now; encode later).  Each
        # chunk's block-header positions are captured inside the
        # blocking window too (the header maps keep changing once the
        # application resumes); the per-block classes derive from the
        # copied words later, outside the window.
        wb = vm.platform.arch.word_bytes
        chunk_positions: list[np.ndarray] = []
        chunk_headers: Optional[list[np.ndarray]] = None
        heap_chunks: list = []
        delta_chunks: list[DeltaChunkRecord] = []
        with timer.phase("heap_dump"):
            if delta_mode:
                # Copy only the dirty runs of each chunk.  Every mapped
                # chunk gets a record (its geometry is needed to
                # reconstruct new chunks and drop vanished ones).
                with timer.kernel("dirty_copy"):
                    for c in vm.mem.heap.chunks:
                        runs = dirty.chunk_runs(c.base, c.n_words)
                        staged = c.area.peek_staged()
                        regions = []
                        for start, n in runs:
                            if staged is not None:
                                regions.append(
                                    (start, staged[start : start + n].copy())
                                )
                            elif not defer_unbox:
                                regions.append((
                                    start,
                                    _unbox_words(
                                        c.area.words[start : start + n], wb
                                    ),
                                ))
                            else:
                                regions.append(
                                    (start, c.area.words[start : start + n])
                                )
                        delta_chunks.append(
                            DeltaChunkRecord(c.base, c.n_words, regions)
                        )
                # The block-extent index covers the reconstructed heap,
                # so header positions *and values* must be captured in
                # the window (the mutator keeps rewriting headers once
                # it resumes).
                chunk_headers = []
                with timer.kernel("block_positions"):
                    for c in vm.mem.heap.chunks:
                        pos = vm.mem.heap.block_positions(c)
                        chunk_positions.append(pos)
                        chunk_headers.append(_words_at(c.area, pos))
            else:
                with timer.kernel("unbox"):
                    for c in vm.mem.heap.chunks:
                        staged = c.area.peek_staged()
                        if not defer_unbox:
                            words = _LiveChunk(c.area)
                        elif staged is not None:
                            words = staged.copy()
                        else:
                            words = list(c.area.words)
                        heap_chunks.append((c.base, words))
                with timer.kernel("block_positions"):
                    for c in vm.mem.heap.chunks:
                        chunk_positions.append(
                            vm.mem.heap.block_positions(c)
                        )
            heap_words = sum(c.n_words for c in vm.mem.heap.chunks)

        # Step 9: globals + atoms.  A delta omits the atom table (static
        # after VM init) and the C-global dump when nothing wrote it.
        with timer.phase("globals_atoms"):
            if delta_mode:
                atom_words = []
                if dirty.globals_dirty:
                    cglobal_words = list(
                        vm.mem.cglobals.area.words[: vm.mem.cglobals.used_words]
                    )
                    cglobal_roots = list(vm.mem.cglobals.root_indices)
                else:
                    cglobal_words = []
                    cglobal_roots = []
            else:
                atom_words = list(vm.mem.atoms.area.words)
                cglobal_words = list(
                    vm.mem.cglobals.area.words[: vm.mem.cglobals.used_words]
                )
                cglobal_roots = list(vm.mem.cglobals.root_indices)

        # Steps 10-11: stacks (used regions, top first).
        with timer.phase("stack"):
            threads = [
                ThreadRecord(
                    tid=t.tid,
                    state=t.state,
                    block_kind=t.block_kind,
                    blocked_on=t.blocked_on,
                    pending_mutex=t.pending_mutex,
                    result=t.result,
                    regs=t.regs,
                    stack_base=t.stack_base,
                    stack_high=t.stack_high,
                    capacity_words=t.capacity_words,
                    stack_words=vm.sched.threads[t.tid].stack.used_slice(),
                )
                for t in threads
            ]

        # Step 12: channels.
        with timer.phase("channels"):
            channels = vm.channels.snapshot()

        delta_info = None
        if delta_mode:
            delta_info = DeltaInfo(
                parent_sha256=vm.delta_parent_sha,
                chain_depth=vm.delta_depth + 1,
                dirty_words=dirty_word_count,
                total_words=heap_words,
                has_atoms=False,
                has_cglobals=dirty.globals_dirty,
                chunks=delta_chunks,
            )

        header = CheckpointHeader(
            format_version=(
                FormatProfile.delta_profile().version
                if delta_mode
                else FormatProfile.newest_full().version
            ),
            word_bytes=vm.platform.arch.word_bytes,
            endianness=vm.platform.arch.endianness,
            platform_name=vm.platform.name,
            os_name=vm.platform.os.value,
            multithreaded=vm.is_multithreaded,
            current_tid=current.tid,
            code_digest=vm.code.digest(),
            code_len=len(vm.code.units),
        )
        snap = VMSnapshot(
            header=header,
            boundaries=boundaries,
            freelist_head=vm.mem.heap.freelist_head,
            global_data=vm.global_data,
            allocated_words=vm.mem.heap.allocated_words,
            heap_chunks=heap_chunks,
            atom_words=atom_words,
            cglobal_words=cglobal_words,
            cglobal_roots=cglobal_roots,
            threads=threads,
            channels=channels,
            delta=delta_info,
        )
        snap._heap_words = heap_words  # type: ignore[attr-defined]
        snap._chunk_positions = chunk_positions  # type: ignore[attr-defined]
        snap._chunk_headers = chunk_headers  # type: ignore[attr-defined]
        snap._dirty_regions = (  # type: ignore[attr-defined]
            len(dirty.region_ids) if delta_mode else 0
        )
        # Reset the tracker inside the blocking window: whatever the
        # mutator writes from here on is mutation since this capture.
        vm.mem.dirty.clear()
        return snap
    finally:
        vm.sched.timer_enabled = timer_was


def _unbox_words(words: list[int], word_bytes: int) -> np.ndarray:
    """Convert a word list to a numpy array of the matching width.

    ``array.array`` unboxes Python ints several times faster than
    ``np.asarray`` on a list; the OverflowError fallback covers lists
    holding values outside the machine word range (never produced by a
    consistent VM, but cheap insurance).
    """
    try:
        packed = array.array("I" if word_bytes == 4 else "Q", words)
    except OverflowError:
        mask = np.uint64((1 << (8 * word_bytes)) - 1)
        return np.asarray(words, dtype=np.uint64) & mask
    return np.frombuffer(
        packed, dtype=np.uint32 if word_bytes == 4 else np.uint64
    )


def _words_at(area, pos: np.ndarray) -> np.ndarray:
    """The words of ``area`` at ``pos`` (block headers), as ``uint64``,
    unboxing nothing else."""
    staged = area.peek_staged()
    if staged is not None:
        return staged[pos]
    ws = area.words
    return np.fromiter(
        (ws[i] for i in pos.tolist()), dtype=np.uint64, count=int(pos.size)
    )


class _LiveChunk:
    """A heap chunk of a VM held at its safe point until its blocking
    checkpoint commits, standing in for the chunk's copy: the serializer
    unboxes it when it writes it, so a full capture holds one unboxed
    chunk beside the file it is writing, not the whole heap."""

    __slots__ = ("area",)

    def __init__(self, area) -> None:
        self.area = area

    def __len__(self) -> int:
        return self.area.n_words

    def __array__(self, dtype=None, copy=None):
        """The words, at their own width (``uint64`` while staged)."""
        staged = self.area.peek_staged()
        arr = (
            staged if staged is not None
            else _unbox_words(self.area.words, self.area.word_bytes)
        )
        return arr if dtype is None else arr.astype(dtype, copy=False)


def _classify_header_words(hds: np.ndarray) -> np.ndarray:
    """Per-block CLASS_* codes from an array of header words."""
    tags = hds & hds.dtype.type(0xFF)
    colors = (hds >> hds.dtype.type(8)) & hds.dtype.type(3)
    classes = np.full(hds.size, CLASS_SCAN, dtype=np.uint8)
    classes[tags >= NO_SCAN_TAG] = CLASS_OPAQUE
    classes[tags == STRING_TAG] = CLASS_STRING
    classes[tags == DOUBLE_TAG] = CLASS_DOUBLE
    classes[colors == Color.BLUE.value] = CLASS_FREE
    return classes


def _classify_blocks(arr: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Per-block CLASS_* codes from the headers at ``positions``."""
    return _classify_header_words(arr[positions])


def _finalize_snapshot(snap: VMSnapshot) -> None:
    """Normalize a captured snapshot for serialization.

    Runs on the writer thread in background mode (the snapshot's copies
    are private by then): unboxes any chunk still held as a list and
    derives the block-extent index classes from the captured positions.
    A delta snapshot unboxes its dirty regions instead and classifies
    from the header *values* captured in the blocking window (the delta
    carries no full chunk arrays to index into).
    """
    positions = getattr(snap, "_chunk_positions", None)
    if positions is None:
        return
    wb = snap.header.word_bytes
    if snap.delta is not None:
        headers = getattr(snap, "_chunk_headers", None) or []
        chunks = []
        index = []
        for rec, pos, hds in zip(snap.delta.chunks, positions, headers):
            regions = [
                (
                    start,
                    words
                    if isinstance(words, np.ndarray)
                    else _unbox_words(words, wb),
                )
                for start, words in rec.regions
            ]
            chunks.append(DeltaChunkRecord(rec.base, rec.n_words, regions))
            index.append((pos, _classify_header_words(hds)))
        snap.delta = replace(snap.delta, chunks=chunks)
        snap.chunk_index = index
        snap._chunk_positions = None  # type: ignore[attr-defined]
        snap._chunk_headers = None  # type: ignore[attr-defined]
        return
    chunks = []
    index = []
    for (base, words), pos in zip(snap.heap_chunks, positions):
        if isinstance(words, _LiveChunk):
            chunks.append((base, words))
            index.append((pos, _classify_header_words(
                _words_at(words.area, pos)
            )))
            continue
        arr = (
            words
            if isinstance(words, np.ndarray)
            else _unbox_words(words, wb)
        )
        chunks.append((base, arr))
        index.append((pos, _classify_blocks(arr, pos)))
    snap.heap_chunks = chunks
    snap.chunk_index = index
    snap._chunk_positions = None  # type: ignore[attr-defined]


def write_snapshot(
    snap: VMSnapshot,
    path: str,
    timer: PhaseTimer,
    *,
    retain: int = 0,
    hooks: Optional[CommitHooks] = None,
) -> tuple[memoryview, str]:
    """Serialize and atomically commit a snapshot; returns the committed
    image, a read-only view of the serializer's buffer, and its SHA-256
    (hex).

    The journal + temporary-file + rename protocol of
    :func:`repro.checkpoint.commit.atomic_commit` guarantees a failure
    at *any byte offset* during checkpointing leaves the previous
    checkpoint (or generation chain, with ``retain > 0``) intact
    (paper §4.1).
    """
    with timer.phase("serialize"):
        _finalize_snapshot(snap)
        w = serialize_snapshot_writer(snap)
    view = w.buf.getbuffer().toreadonly()
    atomic_commit(path, view, retain=retain, hooks=hooks, timer=timer,
                  sha256=w.sha256)
    return view, w.sha256


class CheckpointWriter:
    """Coordinates checkpoint capture and the write-out strategy."""

    def __init__(self, vm: "VirtualMachine") -> None:
        self.vm = vm

    def _mode(self) -> str:
        cfg = self.vm.config.chkpt_mode
        if cfg == "blocking":
            return "blocking"
        # "background" degrades to blocking on platforms without fork —
        # the NT personality has no child process to hand the write to,
        # so honoring the request would hand a mutating VM to a
        # concurrent serializer.
        return "background" if self.vm.platform.supports_fork else "blocking"

    def checkpoint(
        self,
        path: str,
        hooks: Optional[CommitHooks] = None,
        *,
        keep_data: bool = False,
    ) -> CheckpointStats:
        """Take one checkpoint at ``path``; returns its stats.

        In background mode the application is only blocked for the
        snapshot build; the serialization and disk I/O happen on the
        writer thread (the "child process").  ``hooks`` ride the commit
        protocol (``None``: the real syscalls).  ``keep_data`` blocks
        whatever ``chkpt_mode`` says and hands the committed image back
        as ``stats.data``.
        """
        vm = self.vm
        mode = "blocking" if keep_data else self._mode()
        stats = CheckpointStats(path=path, mode=mode)
        timer = stats.phases
        cfg = vm.config
        retain = cfg.chkpt_retain
        # Wait out any previous in-flight writer (one checkpoint at a time,
        # like the paper's single checkpoint file).  Must happen before
        # the delta decision: a failed writer resets the parent chain.
        vm.join_background_checkpoint()

        # Delta preconditions that don't depend on the dirty state; the
        # dirty-ratio check happens inside the capture window.  The base
        # of a depth-d chain lives at ``path.d`` after rotation, so the
        # retention window must be at least that deep.
        next_depth = vm.delta_depth + 1
        try_delta = (
            cfg.chkpt_incremental
            and vm.delta_parent_sha is not None
            and vm.delta_parent_path == path
            and retain >= next_depth
            and (cfg.chkpt_full_every <= 0 or next_depth < cfg.chkpt_full_every)
        )

        t0 = time.perf_counter()
        snap = build_snapshot(
            vm, timer, defer_unbox=(mode == "background"), try_delta=try_delta
        )
        stats.heap_words = getattr(snap, "_heap_words", 0)
        info = snap.delta
        if info is not None:
            stats.kind = "delta"
            stats.dirty_words = info.dirty_words
            stats.total_words = info.total_words
            stats.chain_depth = info.chain_depth
        dirty_regions = getattr(snap, "_dirty_regions", 0)
        wb = vm.platform.arch.word_bytes

        def _commit_success(n_bytes: int) -> None:
            # The committed file is the parent of the next delta.  In
            # background mode this runs on the writer thread: safe,
            # because the next checkpoint joins it before reading.
            vm.delta_parent_sha = snap.body_sha256
            vm.delta_parent_path = path
            vm.delta_depth = info.chain_depth if info is not None else 0
            if info is not None:
                DELTA.checkpoints_delta += 1
                DELTA.dirty_regions += dirty_regions
                DELTA.delta_bytes_saved += max(
                    0, stats.heap_words * wb - n_bytes
                )
            else:
                DELTA.checkpoints_full += 1

        def _commit_failure() -> None:
            # The dirty information was cleared at capture but the
            # generation it measured against never committed: poison
            # the tracker so the next checkpoint goes full.
            vm.mem.dirty.mark_all()
            vm.delta_parent_sha = None
            vm.delta_parent_path = None
            vm.delta_depth = 0

        if mode == "blocking":
            try:
                data, stats.data_sha256 = write_snapshot(
                    snap, path, timer, retain=retain, hooks=hooks
                )
            except Exception:
                _commit_failure()
                raise
            stats.file_bytes = len(data)
            if keep_data:
                stats.data = data
            stats.blocking_seconds = time.perf_counter() - t0
            stats.completed = True
            _commit_success(stats.file_bytes)
        else:
            stats.blocking_seconds = time.perf_counter() - t0

            def _writer() -> None:
                try:
                    stats.file_bytes = len(write_snapshot(
                        snap, path, timer, retain=retain, hooks=hooks
                    )[0])
                    _commit_success(stats.file_bytes)
                except Exception as exc:  # pragma: no cover - I/O failure
                    stats.file_bytes = -1
                    stats.error = exc

            thread = threading.Thread(
                target=_writer, name="checkpoint-writer", daemon=True
            )
            vm._background_writer = thread
            vm._background_stats = stats
            thread.start()
        return stats
