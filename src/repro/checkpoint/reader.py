"""The restart mechanism (paper §4.2, Figure 7).

Steps, mapped onto this implementation:

1.  Open the checkpoint file, check the signature and CRC.
2.  Read the architecture marker: detect endianness (the saved constant
    one) and word size; set the conversion flags.  Read the application
    type and thread table.
3.  Read the original boundary addresses.
4.  Read the abstract registers (fixed up later, once the mapper
    exists).
5.  Restore the heap: same word size -> re-instantiate each chunk and
    keep the block layout (freelist included); different word size ->
    re-encode the heap block by block into a fresh heap, building a
    relocation table.
6.  Restore the atom table and VM globals, adjusting pointers.
7.  Restore the application stack, reallocating if the checkpointed
    stack is larger than the fresh one, and adjust its pointers.
8.  Restore the other threads' state and stacks.
9.  Adjust pointers in the heap, walking live blocks via the GC's block
    layout knowledge (tag-directed; strings and doubles are repacked
    rather than value-fixed).  The collector is disabled throughout
    (§3.2.2).
10. Restore channels (reopen files, seek to saved positions).
11. Close and hand the VM back, ready to continue from the safe point.

Heap conversion (the payload half of step 5, and step 9) has one owner
and one schedule.  The heap stage returns a per-chunk converter —
:class:`_ChunkConverter` at equal word sizes, :class:`_RebuildContext`
across them — whose single entry is ``convert(chunk, words)``, and
every chunk is staged behind a thunk that calls it.  An eager restart
verifies every link whole first, then drains the thunks before it
returns, decoding one saved chunk at a time; a lazy one (``CHKPT_LAZY``)
leaves them to first touch; the warm standby's in-place fold
(:class:`~repro.checkpoint.resident.ResidentImage`) calls the same
``convert`` for a full, and across word sizes on the strings and
doubles a delta touched.
"""

from __future__ import annotations

import copy
import os
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, BinaryIO, Iterator, Optional, Sequence

import numpy as np

from repro.arch.platforms import Platform
from repro.bytecode.image import CodeImage
from repro.checkpoint.commit import generation_chain, recover_commit
from repro.checkpoint.convert import ValueConverter, ragged_indices
from repro.checkpoint.format import (
    SPLICE_SECTIONS,
    VMSnapshot,
    annotate_restore_error,
    merge_delta_chain,
)
from repro.checkpoint.relocate import AddressMapper
from repro.checkpoint.schema import ChunkSlice, ImageDigest, SnapshotSource
from repro.errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointIntegrityError,
    HeapExhausted,
    RestartError,
)
from repro.metrics import INTEGRITY, RESTART
from repro.memory.blocks import (
    Color,
    DOUBLE_TAG,
    HeaderCodec,
    NO_SCAN_TAG,
    STRING_TAG,
)
from repro.memory.heap import PAGE_SIZE, Heap
from repro.memory.layout import AreaKind, MemoryArea
from repro.metrics import PhaseTimer
from repro.threads.thread import BlockKind, ThreadState, VMThread
from repro.vm import VMConfig, VirtualMachine

if TYPE_CHECKING:
    from repro.checkpoint.resident import ResidentImage


@dataclass
class RestartStats:
    """Timings for one restart (drives Figures 12/14)."""

    phases: PhaseTimer = field(default_factory=PhaseTimer)
    converted_endianness: bool = False
    converted_word_size: bool = False
    heap_words: int = 0
    dangling_pointers: int = 0
    #: The file actually restored — differs from the requested path when
    #: a fallback walked the generation chain past a damaged head.
    restored_path: str = ""
    #: One entry per generation the fallback walk skipped: which link
    #: failed, why, and (when the typed error knows) which section and
    #: format version were involved.  Empty on a clean head restore.
    fallback_failures: list = field(default_factory=list)
    #: True when heap conversion was deferred to first touch
    #: (``--lazy-restore``): ``total_seconds`` is then the blocking
    #: time-to-first-output and the converted share of the heap keeps
    #: accruing below as chunks fault in or the drainer runs.
    lazy: bool = False
    lazy_chunks_total: int = 0
    lazy_chunks_converted: int = 0
    #: Wall time spent inside conversion thunks so far (grows after
    #: restart returns; see :class:`LazyRestoreState`).
    lazy_seconds: float = 0.0
    #: Body sections whose read + CRC + parse were still deferred when
    #: restart returned (``--lazy-restore`` with a v3+ file), and the
    #: byte split between verified-up-front and deferred data.  The
    #: deferred bytes are verified by the background drain / the
    #: ``lazy_finish`` barrier; see :class:`SnapshotSource`.
    sections_deferred: int = 0
    bytes_verified: int = 0
    bytes_deferred: int = 0
    #: What an eager restore leaves behind for a caller that keeps the
    #: VM warm instead of running it (the standby): the conversion
    #: tables a later generation folds into this VM through.  ``None``
    #: after a lazy restore.  It dies with these stats.
    image: Optional["ResidentImage"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def total_seconds(self) -> float:
        """Blocking restore time (time-to-first-output under lazy)."""
        return self.phases.total

    @property
    def completion_seconds(self) -> float:
        """Blocking time plus all lazy conversion work done so far."""
        return self.phases.total + self.lazy_seconds


#: Hard ceiling on delta-chain depth during reconstruction — far above
#: any depth the writer produces (``chkpt_full_every`` forces periodic
#: fulls) but low enough to stop a corrupt header from looping forever.
MAX_DELTA_CHAIN = 64


def next_generation_path(path: str) -> str:
    """Where the parent generation of ``path`` lives on disk.

    Mirrors the rotation in :func:`repro.checkpoint.commit.atomic_commit`:
    the head's previous generation moves to ``path.1``, whose previous
    generation moves to ``path.2``, and so on — so the parent of
    ``path.N`` is ``path.N+1``.  The existence probe disambiguates a
    head path whose own name ends in a digit suffix.
    """
    candidate = f"{path}.1"
    if os.path.exists(candidate):
        return candidate
    stem, dot, suffix = path.rpartition(".")
    if dot and suffix.isdigit():
        return f"{stem}.{int(suffix) + 1}"
    return candidate


@dataclass(frozen=True, eq=False)
class ChainLink:
    """One generation of a checkpoint chain held in memory — the buffer
    a store download assembled and verified against its manifest, read
    in place — and the name a restore error gives it (there is no file
    to name).

    A restore reads its chain from a checkpoint path, whose parents sit
    at ``path.1``, ``path.2``, ... as local rotation leaves them, or
    from a sequence of these, head first, newest to oldest.  ``digests``
    is what hashed ``data`` as it arrived: the restore adopts its body
    digests instead of hashing the body again.
    """

    name: str
    data: bytes = field(repr=False)
    digests: Optional[ImageDigest] = field(default=None, repr=False)


def _head_of(
    source: str | Sequence[ChainLink],
) -> tuple[str, Optional[bytes]]:
    """The name errors give ``source``'s head, and its bytes if held."""
    if isinstance(source, str):
        return source, None
    if not source:
        raise RestartError("an empty chain has no generation to restore")
    return source[0].name, source[0].data


def _chain_links(source: str | Sequence[ChainLink]) -> Iterator[tuple]:
    """``(name, bytes or None, opener)`` per link, head first.

    The two producers of a chain: the local rotation walk (unbounded —
    a missing parent file fails its open) and links already in memory.
    ``opener(defer=, decode=)`` returns the link's :class:`SnapshotSource`.
    """
    if isinstance(source, str):
        current = source
        while True:
            yield current, None, partial(SnapshotSource.open, current)
            current = next_generation_path(current)
    for link in source:
        opener = partial(
            SnapshotSource.from_bytes, link.data, name=link.name,
            digests=link.digests,
        )
        yield link.name, link.data, opener


def load_snapshot_chain(
    source: str | Sequence[ChainLink], defer: bool = False
) -> VMSnapshot:
    """Read a checkpoint, reconstructing through its delta chain if needed.

    ``source`` is where the chain is read: a checkpoint path, whose
    parents sit at ``path.1``, ``path.2``, ... as local rotation leaves
    them, or the links themselves in memory, head first.  The two are
    read and spliced the same way.  A full (v1-v3) checkpoint is
    returned as-is.  A v4 delta reads parents until a full base is
    found, validates each parent-SHA binding, and splices the dirty
    regions newest-last into a merged full snapshot.
    Without ``defer`` every link is verified whole — every section CRC,
    the body SHA-256 and the end CRC — before anything of it is parsed,
    a parent decoded
    only for :data:`SPLICE_SECTIONS`; heap payloads stay behind chunk
    slices over the verified bytes, so a restore decodes them a chunk at
    a time, never the whole heap up front.
    Any break in the chain — a missing generation, a parent-hash
    mismatch, a chain deeper than :data:`MAX_DELTA_CHAIN` — raises a
    typed :class:`~repro.errors.CheckpointIntegrityError`, which the
    caller's generation fallback treats like any other damaged head.

    With ``defer`` every link opens through a lazily-resolving
    :class:`~repro.checkpoint.schema.SnapshotSource`: heap payloads stay
    behind chunk slices (on disk, or over the held bytes), delta
    splicing reads only the parent chunks the dirty set touches, and
    the open sources ride along on the returned snapshot's ``_sources``
    (empty otherwise: nothing is owed) so the lazy-restore drain can
    finish their verification later.
    """
    head_name, head_data = _head_of(source)
    sources: list[SnapshotSource] = []

    def read_link(link, decode=None) -> VMSnapshot:
        name, data, opener = link
        try:
            src = opener(defer=defer, decode=decode)
            if not defer:
                return src.resolve_all(defer_heap=True)
        except CheckpointFormatError as e:
            INTEGRITY.integrity_failures += 1
            raise annotate_restore_error(e, name, data) from e
        sources.append(src)
        return src.snapshot

    def broken(why: str) -> CheckpointIntegrityError:
        return annotate_restore_error(
            CheckpointIntegrityError(why, section="header"),
            head_name,
            head_data,
        )

    links = _chain_links(source)
    snap = read_link(next(links))
    if snap.delta is None:
        if sources:
            # The source keeps the snapshot it built; the list it rides
            # on goes on a copy, or the two would hold each other.
            snap = copy.copy(snap)
        snap._sources = sources
        return snap
    chain = [snap]
    while chain[-1].delta is not None:
        if len(chain) > MAX_DELTA_CHAIN:
            raise broken(
                f"delta chain deeper than {MAX_DELTA_CHAIN} "
                f"generations (corrupt chain header?)"
            )
        link = next(links, None)
        if link is None:
            raise broken(
                f"delta chain broken: the parent of link {len(chain)} "
                f"was not fetched"
            )
        try:
            chain.append(read_link(link, decode=SPLICE_SECTIONS))
        except OSError as e:
            raise broken(
                f"delta chain broken: parent generation "
                f"{link[0]} unreadable: {e}"
            ) from e
    chain.reverse()
    try:
        merged = merge_delta_chain(chain)
    except CheckpointIntegrityError as e:
        INTEGRITY.integrity_failures += 1
        raise annotate_restore_error(e, head_name, head_data) from e
    merged._sources = sources
    return merged


def restart_vm(
    platform: Platform,
    code: CodeImage,
    source: str | Sequence[ChainLink],
    config: Optional[VMConfig] = None,
    stdout: Optional[BinaryIO] = None,
    stdin: Optional[BinaryIO] = None,
) -> tuple[VirtualMachine, RestartStats]:
    """Restore a VM on ``platform`` from the checkpoint at ``source`` —
    a path, or a chain's links held in memory.

    ``code`` must be the same program image the checkpoint was taken
    from (verified by digest).  Returns the VM, ready for ``run()`` to
    continue from the checkpointed safe point.

    A failed restore raises :class:`~repro.errors.RestartError` carrying
    the checkpoint's path (or link name) and its format version.
    """
    name, data = _head_of(source)
    try:
        vm, stats = _restart_vm(platform, code, source, config, stdout, stdin)
    except RestartError as e:
        raise annotate_restore_error(e, name, data) from e
    stats.restored_path = name
    return vm, stats


def restart_vm_with_fallback(
    platform: Platform,
    code: CodeImage,
    path: str,
    config: Optional[VMConfig] = None,
    stdout: Optional[BinaryIO] = None,
    stdin: Optional[BinaryIO] = None,
) -> tuple[VirtualMachine, RestartStats]:
    """Restore from ``path``, degrading gracefully along its generations.

    First resolves any commit a crash interrupted
    (:func:`~repro.checkpoint.commit.recover_commit` rolls a complete
    temp file forward, a torn one back), then tries ``path``,
    ``path.1``, ``path.2``, ... in order, skipping generations that fail
    verification or restore.  A restore that succeeds anywhere past the
    head counts as a ``fallback_restore`` in the integrity metrics and
    records which file won in ``stats.restored_path``.

    Raises :class:`~repro.errors.RestartError` naming every generation
    tried (with each one's failure) only when the whole chain is
    exhausted.
    """
    recover_commit(path)
    chain = generation_chain(path)
    if not chain:
        raise RestartError(f"no checkpoint generations exist at {path}")
    failures: list[str] = []
    failed_links: list[dict] = []
    first_error: Optional[RestartError] = None
    for candidate in chain:
        try:
            vm, stats = restart_vm(
                platform, code, candidate, config, stdout, stdin
            )
        except RestartError as e:
            failures.append(f"{candidate}: {e}")
            failed_links.append(
                {
                    "path": candidate,
                    "error_type": type(e).__name__,
                    "error": str(e),
                    "format_version": getattr(e, "format_version", None),
                    "section": getattr(e, "section", None),
                }
            )
            if first_error is None:
                first_error = e
            continue
        if failures:
            INTEGRITY.fallback_restores += 1
            # Leave the diagnosis where an operator can find it after
            # the fact: a degraded restore that "just worked" is a
            # checkpoint file (or chain link) silently rotting.
            INTEGRITY.last_fallback = {
                "requested": path,
                "restored": candidate,
                "generations_skipped": len(failed_links),
                "failures": list(failed_links),
            }
            stats.fallback_failures = failed_links
        return vm, stats
    if len(chain) == 1:
        # Nothing to fall back to: surface the head's own (typed,
        # annotated) error rather than wrapping it.
        raise first_error
    raise RestartError(
        "all %d checkpoint generation(s) failed to restore:\n  %s"
        % (len(chain), "\n  ".join(failures))
    ) from first_error


def _restart_vm(
    platform: Platform,
    code: CodeImage,
    source: str | Sequence[ChainLink],
    config: Optional[VMConfig],
    stdout: Optional[BinaryIO],
    stdin: Optional[BinaryIO],
) -> tuple[VirtualMachine, RestartStats]:
    stats = RestartStats()
    timer = stats.phases
    lazy = bool(config.lazy_restore) if config is not None else False
    # Steps 1-4: read and validate (reconstructing through a v4 delta
    # chain when the head is incremental).  Under lazy restore the
    # links open deferred: roots/threads/registers come from
    # eagerly-resolved sections while heap payload bytes stay where the
    # link lies (disk or memory) behind chunk slices until their
    # first-touch thunks fire.
    with timer.phase("read_file"):
        snap = load_snapshot_chain(source, defer=lazy)
    code_digest = code.digest()
    if snap.header.code_digest != code_digest:
        raise RestartError(
            "checkpoint was taken from a different program (digest mismatch)"
        )
    converter = ValueConverter(snap.arch, platform.arch)
    stats.converted_endianness = converter.endian_differs
    stats.converted_word_size = converter.word_size_differs
    stats.heap_words = sum(len(ws) for _, ws in snap.heap_chunks)

    # No bootstrap heap or global block: the checkpoint brings both.
    vm = VirtualMachine(
        platform, code, config=config, stdout=stdout, stdin=stdin, boot=False
    )
    # The collector must not run while memory is inconsistent (§3.2.2).
    vm.gc.disabled = True
    try:
        if converter.word_size_differs:
            stage, stage_phase = _rebuild_heap, "heap_rebuild"
        else:
            stage, stage_phase = _restore_heap_chunks, "heap_restore"
        with timer.phase(stage_phase):
            positions = _chunk_positions(snap, timer)
            conversion = stage(vm, snap, converter, positions, timer)
        # Threads and their stacks must exist before the mapper so stack
        # addresses resolve (step 8 before 9, safely: no thread runs yet).
        with timer.phase("threads"):
            _restore_threads_raw(vm, snap)
        mapper = conversion.mapper = AddressMapper(
            snap, vm, conversion.relocation
        )
        # Step 9, one schedule: every chunk gets its conversion thunk;
        # a lazy restore leaves them to first touch, an eager one runs
        # them all here — so a conversion that fails is typed alike.
        with timer.phase("pointer_fix"):
            state = LazyRestoreState(stats, mapper, snap._sources)
            for c, chunk in enumerate(vm.mem.heap.chunks):
                state.attach(chunk.area, partial(conversion.convert, c))
        if lazy:
            state.install(vm)
        else:
            state.finish()
            from repro.checkpoint.resident import ResidentImage

            stats.image = ResidentImage.after_restore(
                vm, code_digest, snap, conversion
            )
        # What converts from here on — a late thunk, a folded delta —
        # is not this restart's time.
        conversion.timer = PhaseTimer()
        _restore_roots(vm, snap, mapper, converter, timer)
        stats.dangling_pointers = mapper.dangling_pointers
    finally:
        vm.gc.disabled = False
    vm.restarted = True
    vm.mem.heap.allocated_words = 0
    return vm, stats


def _restore_roots(
    vm: VirtualMachine,
    snap: VMSnapshot,
    mapper: AddressMapper,
    converter: ValueConverter,
    timer: PhaseTimer,
    cglobals: bool = True,
) -> None:
    """Steps 6-8 and 10 once the heap and the mapper stand: the
    freelist head (at equal word sizes; a rebuild lays out its own),
    globals, stacks, registers, the current thread, channels —
    everything a generation carries outside the heap.  ``cglobals`` is
    False for a delta that omitted the (untouched) C-global dump."""
    if not converter.word_size_differs:
        with timer.phase("freelist"):
            head = snap.freelist_head
            vm.mem.heap.freelist_head = mapper.map(head) or 0 if head else 0
    fix = _value_fixer(vm, mapper, converter)
    with timer.phase("globals"):
        gd = mapper.map(snap.global_data)
        if gd is None:
            raise RestartError("global_data pointer does not map")
        vm.global_data = gd
        if cglobals:
            _restore_cglobals(vm, snap, fix, converter)
    with timer.phase("stack_restore"):
        _fix_thread_stacks(vm, snap, mapper, converter)
        _fix_thread_registers(vm, snap, mapper, fix)
    with timer.phase("registers"):
        _restore_current(vm, snap, mapper)
    with timer.phase("channels"):
        vm.channels.restore(snap.channels)
    if snap.header.multithreaded:
        vm.sched.ever_multithreaded = True


# ---------------------------------------------------------------------------
# Heap restoration kernels
# ---------------------------------------------------------------------------


def _gather_words(ws, idx: np.ndarray) -> np.ndarray:
    """The words of one saved chunk at ``idx``.

    A deferred :class:`~repro.checkpoint.schema.ChunkSlice` reads only
    the coalesced byte runs covering ``idx``; in-memory arrays gather
    directly.  Either way the result is canonical ``uint64``.
    """
    if isinstance(ws, np.ndarray):
        return ws[idx]
    return ws.gather(idx)


def _chunk_positions(snap: VMSnapshot, timer: PhaseTimer) -> list[np.ndarray]:
    """Block-header word positions of every saved chunk.

    Files with a block-extent index answer this directly; otherwise (v1
    files, or an older writer that omitted the index) one word-at-a-time
    discovery walk over the saved image recovers the positions.
    """
    if snap.chunk_index is not None:
        # Every kernel indexes its chunk with these: a position the
        # chunk does not have stops here, before any payload is read.
        for (_, words), (pos, _) in zip(snap.heap_chunks, snap.chunk_index):
            if pos.size and int(pos.max()) >= len(words):
                raise CheckpointFormatError(
                    f"block-extent index places a header at word "
                    f"{int(pos.max())} of a {len(words)}-word heap chunk",
                    section="index",
                )
        return [pos for pos, _ in snap.chunk_index]
    src_headers = HeaderCodec(snap.arch)
    out = []
    with timer.kernel("discover_blocks"):
        for _, words in snap.heap_chunks:
            # Index-less files force a full walk; a deferred chunk
            # slice materializes here (its laziness only pays off when
            # the index says where the headers are).
            words = np.asarray(words)
            pos = []
            i = 0
            n = len(words)
            while i < n:
                pos.append(i)
                i += 1 + src_headers.size(int(words[i]))
            out.append(np.asarray(pos, dtype=np.uint32))
    return out


@dataclass(eq=False)
class _ChunkConverter:
    """Heap conversion at equal word sizes, one staged chunk at a time.

    The saved chunks were adopted where they lay, so blocks keep their
    positions and a chunk converts in place: pointers fixed, then —
    across endiannesses — byte-oriented payloads repacked.  Per-chunk
    work is independent, which is what lets one :meth:`convert` serve
    the eager drain, a first touch in any order and a folded full and
    still leave the same words.
    """

    converter: ValueConverter
    #: Block-header word positions of every chunk.
    positions: list
    #: Where kernel time goes: the restart's phases while it drains,
    #: a scratch timer once it has returned.
    timer: PhaseTimer
    #: Set once the threads (whose stacks it resolves) exist.
    mapper: Optional[AddressMapper] = None
    #: No block moves.
    relocation = None

    def convert(self, chunk: int, words: np.ndarray) -> None:
        """Convert staged chunk ``chunk`` where its saved words lie."""
        pos = self.positions[chunk]
        with self.timer.phase("pointer_fix"):
            _fix_chunk_pointers(words, pos, self.mapper, self.timer)
        if self.converter.endian_differs:
            with self.timer.phase("convert_payloads"):
                _repack_chunk_payloads(words, pos, self.converter)


def _restore_heap_chunks(
    vm: VirtualMachine,
    snap: VMSnapshot,
    converter: ValueConverter,
    positions: list[np.ndarray],
    timer: PhaseTimer,
) -> _ChunkConverter:
    """Same-word-size path, staged: adopt chunks backed by numpy arrays.

    The word lists materialize lazily (first GC or interpreter access);
    the returned converter's kernels operate on the staged arrays
    directly, so a restart never unboxes words it does not touch.
    """
    layout = vm.platform.layout
    arch = vm.platform.arch
    for slot, ((_src_base, arr), pos) in enumerate(
        zip(snap.heap_chunks, positions)
    ):
        if arr.size * arch.word_bytes > layout.chunk_stride:
            raise RestartError("checkpointed chunk exceeds platform stride")
        base = layout.heap_base + slot * layout.chunk_stride
        area = MemoryArea.from_staged(
            AreaKind.HEAP_CHUNK, base, arr, arch, label=f"heap-chunk-{slot}"
        )
        hm = np.zeros(arr.size, dtype=np.uint8)
        hm[pos.astype(np.int64)] = 1
        vm.mem.heap.adopt_chunk(area, header_map=bytearray(hm.tobytes()))
    return _ChunkConverter(converter, positions, timer)


def _fix_chunk_pointers(
    arr: np.ndarray,
    pos: np.ndarray,
    mapper: AddressMapper,
    timer: PhaseTimer,
) -> None:
    """Paper Figure 7 for one staged chunk (same-word-size restores):
    fix the pointers in scannable blocks and the freelist links in BLUE
    blocks — every payload word classified by its LSB, the pointers
    mapped in bulk.

    Also normalizes mid-cycle GC colors (GRAY/BLACK -> WHITE): the
    interrupted incremental major cycle is abandoned and will simply
    restart from its beginning — safe, because marking starts from roots.
    """
    p = pos.astype(np.int64)
    hds = arr[p]
    sizes = (hds >> np.uint64(10)).astype(np.int64)
    colors = (hds >> np.uint64(8)) & np.uint64(3)
    tags = hds & np.uint64(0xFF)
    blue = colors == Color.BLUE.value
    recolor = (colors == Color.GRAY.value) | (
        colors == Color.BLACK.value
    )
    if recolor.any():
        arr[p[recolor]] = hds[recolor] & ~np.uint64(0x300)
    linked = blue & (sizes >= 1)
    if linked.any():
        lp = p[linked] + 1
        links = arr[lp]
        nz = links != 0
        if nz.any():
            with timer.kernel("map_many"):
                mapped, ok = mapper.map_many(links[nz])
            arr[lp[nz]] = np.where(ok, mapped, np.uint64(0))
    scan = (~blue) & (tags < np.uint64(NO_SCAN_TAG)) & (sizes > 0)
    if scan.any():
        idx = ragged_indices(p[scan] + 1, sizes[scan])
        vals = arr[idx]
        even = (vals & np.uint64(1)) == 0
        if even.any():
            ptrs = vals[even]
            with timer.kernel("map_many"):
                mapped, ok = mapper.map_many(ptrs)
            arr[idx[even]] = np.where(ok, mapped, ptrs)


def _repack_chunk_payloads(
    arr: np.ndarray, pos: np.ndarray, converter: ValueConverter
) -> None:
    """Endianness-only conversion of one staged chunk's byte-oriented
    payloads.

    The tag field of each header is what makes this possible: strings
    keep their byte order (word values swap), doubles are re-encoded as
    8-byte IEEE units.
    """
    p = pos.astype(np.int64)
    hds = arr[p]
    sizes = (hds >> np.uint64(10)).astype(np.int64)
    colors = (hds >> np.uint64(8)) & np.uint64(3)
    tags = hds & np.uint64(0xFF)
    nonblue = colors != Color.BLUE.value
    strs = nonblue & (tags == np.uint64(STRING_TAG)) & (sizes > 0)
    if strs.any():
        idx = ragged_indices(p[strs] + 1, sizes[strs])
        arr[idx] = converter.repack_string_array(arr[idx])
    dbls = nonblue & (tags == np.uint64(DOUBLE_TAG)) & (sizes > 0)
    if dbls.any():
        idx = ragged_indices(p[dbls] + 1, sizes[dbls])
        arr[idx] = converter.repack_double_array(arr[idx])


# ---------------------------------------------------------------------------
# The conversion schedule: thunks, drained now or at first touch
# ---------------------------------------------------------------------------


def _conversion_thunk(convert, label: str, stats: RestartStats, mapper):
    """The thunk a staged area carries: run ``convert``, account time,
    type errors.

    Conversion failures surface as :class:`CheckpointIntegrityError`
    whether the thunk runs inside the restart or fires arbitrarily
    late — a corrupt chunk must not escape as a random numpy/index
    crash, past the generation fallback or mid-execution.

    It sits inside the VM's own memory (the area holds it until it
    fires), so it must reach nothing that reaches that memory back: not
    the :class:`LazyRestoreState` tracking the area, not the VM.
    """

    def thunk(arr) -> None:
        t0 = time.perf_counter()
        try:
            convert(arr)
        except CheckpointError:
            raise
        except Exception as exc:
            when = "lazy conversion" if stats.lazy else "conversion"
            raise CheckpointIntegrityError(
                f"{when} of {label} failed: {exc}",
                section="heap",
            ) from exc
        # The lazy_* fields count work deferred past the restart's
        # return; an eager drain is timed by the restart's phases.
        if stats.lazy:
            stats.lazy_chunks_converted += 1
            stats.lazy_seconds += time.perf_counter() - t0
            stats.dangling_pointers = mapper.dangling_pointers

    return thunk


class LazyRestoreState:
    """The heap-conversion schedule of one restart.

    Every restored heap chunk is staged with a conversion thunk (see
    :meth:`MemoryArea.ensure_converted`) given it by :meth:`attach`.  An
    eager restart runs them all before it returns (:meth:`finish`) and
    drops this object.  A ``--lazy-restore`` restart leaves it on
    ``vm.lazy_restore`` instead (:meth:`install`): chunks then convert
    at first touch, the interpreter drains one chunk per scheduler tick
    in the background (:meth:`drain_one`), and the checkpoint writer
    forces full conversion before dumping (:meth:`finish`), so a
    checkpoint taken mid-lazy-restore commits bit-identically to an
    eager one.

    The :class:`AddressMapper` is captured for the thunks' lifetime —
    safe because it is content-independent and time-invariant: heap
    relocation is a static table, stacks are high-anchored (growth never
    moves the high end the mapper compares against), and the code /
    atoms / C-globals boundaries never move after restart.
    """

    def __init__(
        self, stats: RestartStats, mapper: AddressMapper, sources: list
    ) -> None:
        self.stats = stats
        self.mapper = mapper
        self._pending: deque = deque()
        #: Deferred :class:`SnapshotSource` objects whose section
        #: verification (CRCs, whole-body SHA-256, end CRC) is still
        #: incomplete; the drain finishes them after the last chunk.
        self.sources: list = list(sources)

    def attach(self, area: MemoryArea, convert) -> None:
        """Give one staged area its thunk, and track it."""
        area.defer_conversion(
            _conversion_thunk(convert, area.label, self.stats, self.mapper)
        )
        self._pending.append(area)

    def install(self, vm: VirtualMachine) -> None:
        """Hand the pending thunks to ``vm`` instead of running them:
        the restart returns lazy, and ``stats`` says what it deferred."""
        st = self.stats
        st.lazy = True
        st.lazy_chunks_total = len(self._pending)
        for src in self.sources:
            rep = src.stats()
            st.sections_deferred += rep["unresolved"] or 0
            st.bytes_verified += rep["bytes_verified"]
            st.bytes_deferred += rep["bytes_deferred"]
        RESTART.lazy_restores += 1
        RESTART.sections_deferred += st.sections_deferred
        RESTART.bytes_deferred += st.bytes_deferred
        vm.lazy_restore = self

    @property
    def pending(self) -> int:
        """Number of chunks still awaiting conversion."""
        return sum(1 for a in self._pending if a.pending_conversion)

    def drain_one(self) -> bool:
        """Do one unit of deferred work; False when none remains.

        Chunks convert first (skipping any already faulted in by first
        touch, so the background drainer and the demand path never
        double-convert); once the last chunk is done, each deferred
        snapshot source finishes its integrity verification — reading
        whatever sections were never touched, completing the whole-body
        SHA-256 and the end-of-file CRC.
        """
        while self._pending:
            area = self._pending[0]
            if not area.pending_conversion:
                self._pending.popleft()
                continue
            area.ensure_converted()
            return True
        return self._verify_step()

    def _verify_step(self) -> bool:
        """Finish one source's deferred verification; False if all done.

        A corruption surfacing here — arbitrarily long after restart —
        raises the same typed, annotated
        :class:`~repro.errors.CheckpointIntegrityError` an eager restore
        raises up front.
        """
        for src in self.sources:
            if src.fully_verified:
                continue
            t0 = time.perf_counter()
            try:
                src.finish_verification()
            except CheckpointFormatError as e:
                INTEGRITY.integrity_failures += 1
                RESTART.late_failures += 1
                if src.path is not None:
                    raise annotate_restore_error(
                        e, src.path, src.data
                    ) from e
                raise
            self.stats.lazy_seconds += time.perf_counter() - t0
            RESTART.late_verifications += 1
            src._release_backing()
            return True
        return False

    def finish(self) -> None:
        """Convert every remaining chunk and finish deferred section
        verification (the eager restart's drain; the checkpoint
        writer's barrier)."""
        while self.drain_one():
            pass


@dataclass(eq=False)
class _RebuildContext:
    """Heap conversion across word sizes: what the rebuild hands to its
    payload passes, one rebuilt chunk at a time.

    The block arrays hold one entry per live source block, in source
    order (chunk by chunk, ascending address).  Geometry is frozen at
    rebuild time: a lazily deferred pass can run after ``alloc`` has
    appended fresh chunks to the live heap, and eager and lazy runs must
    write the same words to stay bit-identical.
    """

    converter: ValueConverter
    #: Block-header word positions of every source chunk.
    positions: list
    #: Where kernel time goes (see :class:`_ChunkConverter`).
    timer: PhaseTimer
    #: ``(source blocks, target blocks)`` for the address mapper.
    relocation: tuple[np.ndarray, np.ndarray]
    #: Saved chunk images while the restore converts from them: chunk
    #: slices (read as stored, never decoded whole) or arrays; ``None``
    #: once the image of an eager restore has taken what it keeps.
    sources: Optional[list]
    #: Every source chunk's block-header words, as saved (source word
    #: width): the block shapes a fold checks a generation against.
    headers: list
    #: First block number of each source chunk, then the block count.
    src_first: np.ndarray
    #: Payload start (word index in its source chunk) and word count.
    src_pos: np.ndarray
    src_size: np.ndarray
    tags: np.ndarray
    #: Rebuilt chunk number, payload start (word index in that chunk)
    #: and word count.
    dst_chunk: np.ndarray
    dst_pos: np.ndarray
    dst_size: np.ndarray
    #: The block numbers placed in each rebuilt chunk (ascending): the
    #: unit of payload conversion.
    by_chunk: list
    #: Set once the threads (whose stacks it resolves) exist.
    mapper: Optional[AddressMapper] = None

    def convert(
        self, chunk: int, words: np.ndarray, blocks=None, sources=None
    ) -> None:
        """Fill rebuilt chunk ``chunk`` from the saved image — or only
        its live blocks ``blocks`` (ascending block numbers), or from
        the images ``sources`` (one per source chunk) instead.  Headers,
        placement, the freelist and the relocation table stand since
        :func:`_rebuild_heap`; every kernel here is per block, so
        neither order nor subset can change a word."""
        timer = self.timer
        for arr, part, tags in _rebuilt_groups(self, chunk, blocks, sources):
            with timer.phase("heap_rebuild"), timer.kernel("payloads"):
                _fill_rebuilt_payloads(self, arr, part, tags, words)
            with timer.phase("pointer_fix"):
                _fix_rebuilt_heap(self, arr, part, tags, words)


def _rebuild_heap(
    vm: VirtualMachine,
    snap: VMSnapshot,
    converter: ValueConverter,
    positions: list[np.ndarray],
    timer: PhaseTimer,
) -> _RebuildContext:
    """Cross-word-size path: re-encode every non-free block.

    Strings and doubles change their word counts, so block addresses
    shift — a full relocation table (old block pointer -> new block
    pointer) is built for the pointer-fixing pass.  Free (BLUE) blocks
    are dropped and the heap is laid out afresh, exactly as allocating
    the live blocks one by one in source order would: block *placement*
    replays the first-fit allocator against a lightweight freelist model
    (same carve rules, same chunk-growth points), while the payloads are
    converted on their way from the saved chunks into the rebuilt ones,
    one rebuilt chunk at a time, by the returned context's
    :meth:`~_RebuildContext.convert`.
    """
    src_wb = snap.arch.word_bytes
    dst_arch = vm.platform.arch
    dst_wb = dst_arch.word_bytes
    heap = vm.mem.heap

    # -- pass A: live-block metadata ---------------------------------------
    src_first = [0]
    pos_l, size_l, tag_l, nsz_l, addr_l, hds_l = [], [], [], [], [], []
    wtype = np.dtype(f"u{src_wb}")
    with timer.kernel("classify"):
        for (src_base, arr), pos in zip(snap.heap_chunks, positions):
            p = pos.astype(np.int64)
            hds = _gather_words(arr, p)
            hds_l.append(hds.astype(wtype))
            sizes = (hds >> np.uint64(10)).astype(np.int64)
            colors = (hds >> np.uint64(8)) & np.uint64(3)
            tags = (hds & np.uint64(0xFF)).astype(np.int64)
            live = (colors != Color.BLUE.value) & (sizes > 0)
            lp = p[live] + 1
            lsz = sizes[live]
            if lp.size and int((lp + lsz).max()) > len(arr):
                # Placement below trusts these sizes; the payload
                # passes would only find out mid-copy.
                raise CheckpointFormatError(
                    "a heap block header claims words past the end of "
                    "its chunk",
                    section="heap",
                )
            ltag = tags[live]
            addrs = np.uint64(src_base) + lp.astype(np.uint64) * np.uint64(
                src_wb
            )
            nsz = lsz.copy()
            is_str = ltag == STRING_TAG
            if is_str.any():
                last = _gather_words(arr, lp[is_str] + lsz[is_str] - 1)
                blen = converter.string_byte_lengths(
                    last, lsz[is_str], addrs[is_str]
                )
                nsz[is_str] = blen // dst_wb + 1
            is_dbl = ltag == DOUBLE_TAG
            nsz[is_dbl] = lsz[is_dbl] * src_wb // dst_wb
            src_first.append(src_first[-1] + int(lp.size))
            pos_l.append(lp)
            size_l.append(lsz)
            tag_l.append(ltag)
            nsz_l.append(nsz)
            addr_l.append(addrs)

    def cat(parts: list, dtype=np.int64) -> np.ndarray:
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    tags = cat(tag_l)
    dst_size = cat(nsz_l)

    # -- pass B: replay first-fit placement --------------------------------
    with timer.kernel("placement"):
        dst_blocks, chunks_out, freelist = _simulate_first_fit(
            heap, dst_size, dst_wb
        )
    relocation = (cat(addr_l, np.uint64), dst_blocks)

    # -- pass C: the rebuilt chunks: headers, freelist remnants ------------
    dst_bases = np.asarray([b for b, _ in chunks_out], dtype=np.uint64)
    dchunk = np.searchsorted(dst_bases, dst_blocks, side="right") - 1
    dst_pos = ((dst_blocks - dst_bases[dchunk]) // np.uint64(dst_wb)).astype(
        np.int64
    )
    headers = (dst_size.astype(np.uint64) << np.uint64(10)) | tags.astype(
        np.uint64
    )
    order = np.argsort(dchunk, kind="stable")
    cuts = np.searchsorted(dchunk[order], np.arange(len(chunks_out) + 1))
    by_chunk = [
        order[a:b] for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist())
    ]
    # The rebuild never frees a block, so each chunk's free run only
    # ever shrinks from its tail and keeps its header at word 0: at the
    # end that word heads a blue remnant (linked in address order), or
    # is the white zero-size fragment (encoded 0) or a block header an
    # exact fit left there.
    remnants = sorted(freelist)
    next_free = [addr for addr, _ in remnants[1:]] + [0]
    remnant_of = {
        addr - dst_wb: (size, nxt)
        for (addr, size), nxt in zip(remnants, next_free)
    }
    for (base, n_words), ids in zip(chunks_out, by_chunk):
        words = np.zeros(n_words, dtype=np.uint64)
        header_map = np.zeros(n_words, dtype=np.uint8)
        header_map[0] = 1
        words[dst_pos[ids] - 1] = headers[ids]
        header_map[dst_pos[ids] - 1] = 1
        if base in remnant_of:
            size, nxt = remnant_of[base]
            words[0] = (size << 10) | (Color.BLUE.value << 8)
            words[1] = nxt
        area = MemoryArea.from_staged(
            AreaKind.HEAP_CHUNK,
            base,
            words,
            dst_arch,
            label=f"heap-chunk-{len(heap.chunks)}",
        )
        heap.adopt_chunk(area, header_map=bytearray(header_map))
    heap.freelist_head = remnants[0][0] if remnants else 0
    heap.allocated_words += int((dst_size + 1).sum())

    return _RebuildContext(
        converter=converter,
        positions=positions,
        timer=timer,
        relocation=relocation,
        sources=[arr for _, arr in snap.heap_chunks],
        headers=hds_l,
        src_first=np.asarray(src_first, dtype=np.int64),
        src_pos=cat(pos_l),
        src_size=cat(size_l),
        tags=tags,
        dst_chunk=dchunk,
        dst_pos=dst_pos,
        dst_size=dst_size,
        by_chunk=by_chunk,
    )


#: Payload runs at least this long move as slices; shorter ones share
#: one index array (a 4096-word row costs one memcpy, a cons cell must
#: not cost a Python iteration).  Measured moving 256k words there and
#: back: the index array costs 1.1-2.3 ms whatever the run length
#: (equal-length runs, the cheap broadcast case), slices 2.9 ms at
#: 64-word runs, 1.5 at 128, 0.9 at 256, 0.34 at 4096 — they win from
#: ~190 words up.  Slicing Figure 12's 64-word strings costs 9.0 ms
#: where indexing them costs 5.5.
_SLICE_WORDS = 256


def _move_runs(
    packed: np.ndarray,
    arr: np.ndarray,
    starts: np.ndarray,
    lens: np.ndarray,
    n_sliced: int,
    gather: bool,
) -> None:
    """Move the runs ``arr[starts[k] :][: lens[k]]`` to (``gather``) or
    from ``packed``, which holds them back to back: the first
    ``n_sliced`` runs as slices, the rest through one index array."""
    at = 0
    for s, n in zip(starts[:n_sliced].tolist(), lens[:n_sliced].tolist()):
        if gather:
            packed[at : at + n] = arr[s : s + n]
        else:
            arr[s : s + n] = packed[at : at + n]
        at += n
    if n_sliced < lens.size:
        idx = ragged_indices(starts[n_sliced:], lens[n_sliced:])
        if gather:
            packed[at:] = arr[idx]
        else:
            arr[idx] = packed[at:]


def _rebuilt_groups(
    ctx: _RebuildContext,
    d: int,
    ids: Optional[np.ndarray] = None,
    sources: Optional[list] = None,
):
    """Split the blocks placed in rebuilt chunk ``d`` — all of them, or
    the ascending subset ``ids`` — by source chunk.

    Yields ``(saved chunk words, block numbers, their tags)`` for each
    source chunk that owns any of them, read from ``sources`` (default:
    the context's).  A chunk slice is read only here, once a block
    actually needs its bytes, and as it is stored: the kernels convert
    the words they copy out, so no decoded copy of a saved chunk is
    made, let alone kept.
    """
    if ids is None:
        ids = ctx.by_chunk[d]
    if sources is None:
        sources = ctx.sources
    cuts = np.searchsorted(ids, ctx.src_first).tolist()
    for source, a, b in zip(sources, cuts[:-1], cuts[1:]):
        if a < b:
            part = ids[a:b]
            words = (
                source.stored() if isinstance(source, ChunkSlice)
                else source
            )
            yield words, part, ctx.tags[part]


def _convert_rebuilt_runs(
    ctx: _RebuildContext,
    arr: np.ndarray,
    blocks: np.ndarray,
    convert,
    out: np.ndarray,
) -> None:
    """Gather the payloads of ``blocks`` from the saved chunk ``arr``,
    ``convert(words, sizes)`` them back to back, scatter the result
    into the rebuilt chunk ``out``."""
    if blocks.size == 0:
        return
    # Conversion is per block, so the order is free: long runs first.
    long = ctx.src_size[blocks] >= _SLICE_WORDS
    n_long = int(np.count_nonzero(long))
    if 0 < n_long < blocks.size:
        blocks = np.concatenate((blocks[long], blocks[~long]))
    sizes = ctx.src_size[blocks]
    vals = np.empty(int(sizes.sum()), dtype=np.uint64)
    _move_runs(vals, arr, ctx.src_pos[blocks], sizes, n_long, gather=True)
    vals = convert(vals, sizes)
    _move_runs(
        vals, out, ctx.dst_pos[blocks], ctx.dst_size[blocks], n_long,
        gather=False,
    )


def _fill_rebuilt_payloads(
    ctx: _RebuildContext,
    arr: np.ndarray,
    part: np.ndarray,
    tags: np.ndarray,
    out: np.ndarray,
) -> None:
    """Payloads of the non-scannable blocks ``part`` (tagged ``tags``)
    from the saved chunk ``arr`` into their rebuilt chunk's words
    ``out``: opaque words re-extended, doubles and strings re-packed
    into their new word counts."""
    converter = ctx.converter

    def opaque(words, _sizes):
        return converter.convert_raw_array(words)

    def double(words, _sizes):
        return converter.double_words_from_patterns(
            converter.double_pattern_array(words)
        )

    is_str = tags == STRING_TAG
    is_dbl = tags == DOUBLE_TAG
    is_opq = (tags >= NO_SCAN_TAG) & ~is_str & ~is_dbl
    _convert_rebuilt_runs(ctx, arr, part[is_opq], opaque, out)
    _convert_rebuilt_runs(ctx, arr, part[is_dbl], double, out)
    with ctx.timer.kernel("strings"):
        _convert_rebuilt_runs(
            ctx, arr, part[is_str], converter.repack_string_batch, out
        )


def _simulate_first_fit(
    heap: Heap, sizes: np.ndarray, dst_wb: int
) -> tuple[np.ndarray, list[tuple[int, int]], list[list[int]]]:
    """Replay :meth:`Heap.alloc` placement without touching memory.

    Returns ``(block_addrs, chunks, freelist)`` where ``chunks`` is
    ``(base, n_words)`` per created chunk and ``freelist`` the surviving
    ``[block_addr, size]`` entries.  The model mirrors ``_try_alloc``
    exactly: first fit, tail carving, head-pushed chunks.

    A restart starts from an empty freelist, so its entries are the
    created chunks' single free runs and nearly every block carves from
    the tail of the one its predecessor carved from: placement is a
    cumulative sum per run, and only the block that starts a run
    replays the allocator's scan.
    """
    page_words = PAGE_SIZE // dst_wb
    chunk_words = heap.chunk_words
    heap_base = heap._heap_base
    stride = heap._chunk_stride
    slot = heap._next_chunk_slot
    freelist: list[list[int]] = []
    chunks: list[tuple[int, int]] = []
    blocks = np.empty(sizes.size, dtype=np.int64)
    need = np.cumsum(sizes + 1)

    def add_chunk(min_words: int) -> None:
        nonlocal slot
        n_words = max(chunk_words, min_words + 1)
        n_words = -(-n_words // page_words) * page_words
        if n_words * dst_wb > stride:
            raise HeapExhausted(
                f"allocation of {min_words} words exceeds the maximum chunk "
                f"size of this platform layout"
            )
        base = heap_base + slot * stride
        slot += 1
        chunks.append((base, n_words))
        freelist.insert(0, [base + dst_wb, n_words - 1])

    i = 0
    while i < sizes.size:
        wosize = int(sizes[i])
        # The allocator's scan: the first entry the block fits.
        for k, (addr, size) in enumerate(freelist):
            if size >= wosize:
                break
        else:
            add_chunk(wosize + 1)
            continue
        if size <= wosize + 1:
            # Exact fit, or one word over: the bare header left behind
            # stays a white zero-size fragment.
            freelist.pop(k)
            blocks[i] = addr + (size - wosize) * dst_wb
            i += 1
            continue
        # Tail carving.  The blocks that follow carve from the same
        # entry while it keeps a word to spare (carving block j leaves
        # size - used[j]) and the entries before it stay too small.
        before = int(need[i - 1]) if i else 0
        end = int(np.searchsorted(need, before + size - 1, side="right"))
        if k:
            skipped = max(ent[1] for ent in freelist[:k])
            fits_earlier = np.flatnonzero(sizes[i + 1 : end] <= skipped)
            if fits_earlier.size:
                end = i + 1 + int(fits_earlier[0])
        used = need[i:end] - before
        blocks[i:end] = addr + (size - used + 1) * dst_wb
        freelist[k][1] = size - int(used[-1])
        i = end
    return blocks.astype(np.uint64), chunks, freelist


def _fix_rebuilt_heap(
    ctx: _RebuildContext,
    arr: np.ndarray,
    part: np.ndarray,
    tags: np.ndarray,
    out: np.ndarray,
) -> None:
    """Convert every field of the scannable blocks among ``part`` on its
    way from the saved chunk ``arr`` into ``out``; the counterpart of
    :func:`_fill_rebuilt_payloads`."""

    def fix(words, _sizes):
        return _rebuilt_fields(ctx, words)

    _convert_rebuilt_runs(ctx, arr, part[tags < NO_SCAN_TAG], fix, out)


def _rebuilt_fields(ctx: _RebuildContext, words: np.ndarray) -> np.ndarray:
    """Scannable fields across word sizes, word by word: immediates
    re-boxed, pointers remapped, dangling words neutralized to unit."""
    converter = ctx.converter
    # Re-box everything, then overwrite the (even) pointer words.
    fixed = converter.convert_immediate_array(words)
    even = np.flatnonzero((words & np.uint64(1)) == 0)
    if even.size:
        ptrs = words[even]
        mapped, ok = ctx.mapper.map_many(ptrs)
        unit = np.uint64(converter.dst_values.val_unit)
        fixed[even] = np.where(
            ok, mapped, np.where(ptrs == 0, np.uint64(0), unit)
        )
    return fixed


# ---------------------------------------------------------------------------
# Value fixing
# ---------------------------------------------------------------------------


def _value_fixer(vm: VirtualMachine, mapper: AddressMapper, converter: ValueConverter):
    """Classify-and-fix for one word: pointer -> adjust, immediate ->
    convert (identity when architectures match)."""
    values = vm.mem.values

    def fix(w: int) -> int:
        if w & 1:
            return converter.convert_immediate(w)
        mapped = mapper.map(w)
        if mapped is not None:
            return mapped
        if w == 0:
            return 0
        # A dangling pointer (into dropped free space) or opaque even
        # word: neutralize to unit so later scans cannot fault.
        return values.val_unit if converter.word_size_differs else w

    return fix


# ---------------------------------------------------------------------------
# Threads / stacks / registers
# ---------------------------------------------------------------------------


def _restore_threads_raw(vm: VirtualMachine, snap: VMSnapshot) -> None:
    """Create every thread the VM lacks (all but the main one, on a
    fresh VM) and copy each one's stack contents in raw.

    No thread may run until all are restored (paper §3.2.3); nothing
    runs here at all — the interpreter resumes only after restart
    completes.
    """
    unit = vm.mem.values.val_unit
    for rec in snap.threads:
        thread = vm.sched.threads.get(rec.tid)
        if thread is None:
            stack = vm.sched.new_stack(f"thread-stack-{rec.tid}")
            thread = VMThread(rec.tid, stack, unit)
            vm.sched.adopt(thread)
        stack = thread.stack
        used = len(rec.stack_words)
        if used > stack.n_words:
            capacity = stack.n_words
            while capacity < used:
                capacity *= 2
            stack.replace_capacity(capacity)
        # Copy the used region under stack_high (top of stack first).
        base_index = stack.n_words - used
        ws = rec.stack_words
        if isinstance(ws, np.ndarray):
            ws = ws.tolist()
        stack.area.words[base_index : base_index + used] = ws
        stack.sp = stack.stack_high - used * vm.mem.arch.word_bytes


def _fix_thread_stacks(
    vm: VirtualMachine,
    snap: VMSnapshot,
    mapper: AddressMapper,
    converter: ValueConverter,
) -> None:
    """Fix the used stack words of every thread."""
    values = vm.mem.values
    for rec in snap.threads:
        stack = vm.sched.threads[rec.tid].stack
        first = (stack.sp - stack.area.base) // vm.mem.arch.word_bytes
        _fix_stack_words(stack.area.words, first, mapper, converter, values)


def _fix_thread_registers(
    vm: VirtualMachine, snap: VMSnapshot, mapper: AddressMapper, fix
) -> None:
    """Fix every thread's registers and scheduling state."""
    for rec in snap.threads:
        thread = vm.sched.threads[rec.tid]
        thread.state = ThreadState(rec.state)
        thread.block_kind = BlockKind(rec.block_kind)
        if thread.block_kind is BlockKind.JOIN:
            thread.blocked_on = rec.blocked_on  # a thread id, not a value
        else:
            thread.blocked_on = fix(rec.blocked_on)
        thread.pending_mutex = fix(rec.pending_mutex)
        thread.result = fix(rec.result)
        thread.accu = fix(rec.regs.accu)
        thread.env = fix(rec.regs.env)
        thread.extra_args = rec.regs.extra_args
        if rec.regs.trapsp:
            mapped_trap = mapper.map(rec.regs.trapsp)
            if mapped_trap is None:
                raise RestartError(f"thread {rec.tid} trap pointer does not map")
            thread.trapsp = mapped_trap
        else:
            thread.trapsp = 0
        pc_addr = mapper.map(rec.regs.pc)
        if pc_addr is None:
            raise RestartError(f"thread {rec.tid} PC does not map")
        thread.pc = (pc_addr - vm.code_base) // 4


def _fix_stack_words(
    words: list, first: int, mapper: AddressMapper, converter, values
) -> None:
    """The inner loop of :func:`_fix_thread_stacks`.

    Replicates ``_value_fixer`` element-wise: immediates are converted,
    pointers remapped, and unmapped non-null even words neutralized to
    unit on word-size-changing restarts (kept verbatim otherwise).
    """
    if first >= len(words):
        return
    arr = np.asarray(words[first:], dtype=np.uint64)
    out = np.empty_like(arr)
    odd = (arr & np.uint64(1)) == 1
    if odd.any():
        out[odd] = converter.convert_immediate_array(arr[odd])
    even = ~odd
    if even.any():
        ptrs = arr[even]
        mapped, ok = mapper.map_many(ptrs)
        if converter.word_size_differs:
            fallback = np.where(
                ptrs == 0, np.uint64(0), np.uint64(values.val_unit)
            )
        else:
            fallback = ptrs
        out[even] = np.where(ok, mapped, fallback)
    words[first:] = out.tolist()


def _restore_current(vm: VirtualMachine, snap: VMSnapshot, mapper: AddressMapper) -> None:
    """Install the checkpointed current thread into the interpreter."""
    current = vm.sched.threads.get(snap.header.current_tid)
    if current is None:
        raise RestartError("checkpoint names an unknown current thread")
    vm.sched.current = current
    vm.interp.load_from_thread(current)


# ---------------------------------------------------------------------------
# C globals
# ---------------------------------------------------------------------------


def _restore_cglobals(vm: VirtualMachine, snap: VMSnapshot, fix, converter) -> None:
    """Restore the registered C-global area (paper's "global data")."""
    cg = vm.mem.cglobals
    roots = set(snap.cglobal_roots)
    for idx, w in enumerate(snap.cglobal_words):
        if idx in roots:
            cg.area.words[idx] = fix(w)
        else:
            cg.area.words[idx] = converter.convert_raw(w)
    cg.root_indices = sorted(roots)
    cg._next = len(snap.cglobal_words)
