"""High-availability supervision: checkpoint, crash, restart elsewhere.

The supervisor closes the loop the paper leaves open: it runs a workload
VM with periodic checkpoints pushed to a checkpoint store, kills the VM
at random instruction budgets (the same steps machinery the interpreter
uses for preemption), and auto-restarts from the store's latest manifest
on a *different* simulated platform — by default one differing in both
endianness and word size, forcing the heterogeneous conversion path —
repeating until the program completes.

Output continuity uses the cluster coordinator's protocol: stdout is
flushed before each checkpoint and the cumulative output rides in the
manifest meta, so the restarted VM's sink is prefilled and the final
output is bit-identical to an uninterrupted run.

Per-phase metrics (run, checkpoint, upload, restart) accumulate in a
:class:`~repro.metrics.PhaseTimer`; the report adds dedup ratio, work
lost to each fault, and per-restart latencies.
"""

from __future__ import annotations

import base64
import contextlib
import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.arch.platforms import PLATFORMS, Platform, get_platform
from repro.bytecode.image import CodeImage
from repro.checkpoint.commit import COMMIT_POINTS, recover_commit
from repro.checkpoint.generation import CommitTailer, GenRecord
from repro.checkpoint.reader import MAX_DELTA_CHAIN, ChainLink, restart_vm
from repro.checkpoint.schema import FormatProfile, ImageDigest
from repro.errors import (
    ReproError,
    RestartError,
    StoreIntegrityError,
    StoreNotFoundError,
)
from repro.faults.injectors import CrashHooks, SimulatedCrashError
from repro.metrics import INTEGRITY, PhaseTimer
from repro.store.chunkstore import Manifest, PutStats
from repro.store.fleet.client import FleetClient
from repro.vm import VMConfig, VirtualMachine


def restart_candidates(
    current: Platform, require_hetero: bool = True
) -> list[str]:
    """Platforms a takeover may land on — a different machine, and (by
    default) different endianness *and* word size, so every failover
    exercises the full heterogeneous conversion path.  Shared by the
    supervisor's crash-restart loop and the live-replication driver's
    standby placement."""
    names = []
    for name in sorted(PLATFORMS):
        p = PLATFORMS[name]
        if p.name == current.name:
            continue
        if require_hetero and (
            p.arch.endianness is current.arch.endianness
            or p.arch.word_bytes == current.arch.word_bytes
        ):
            continue
        names.append(name)
    if not names:  # no fully-heterogeneous peer: any other machine
        names = [n for n in sorted(PLATFORMS) if n != current.name]
    return names


def find_parent(
    client: FleetClient,
    vm_id: str,
    child: Manifest,
    listing: dict,
    known: Optional[dict] = None,
) -> Optional[Manifest]:
    """The manifest of the generation the delta ``child`` binds to: the
    newest one under it whose meta records ``child``'s parent SHA-256,
    or None if no upload carries it.

    A delta's parent is nearly always the upload just before it, so that
    one manifest is checked first.  Only when it is some other
    generation are this vm's generations listed — a scoped listing reads
    every manifest the store retains for ``vm_id`` — and then once per
    fetch: ``listing`` (an empty dict to begin with) keeps it for the
    rest of the walk.  ``known`` maps generations the caller has already
    asked for to their manifests (``None``: not stored); those are not
    fetched again.
    """
    parent_sha = child.meta.get("parent_sha256", "")
    if not parent_sha:
        return None
    known = {} if known is None else known

    def manifest(generation: int) -> Optional[Manifest]:
        if generation not in known:
            try:
                known[generation] = client.get_manifest(vm_id, generation)
            except StoreNotFoundError:
                known[generation] = None
        return known[generation]

    previous = manifest(child.generation - 1)
    if previous is not None and previous.meta.get("body_sha256") == parent_sha:
        return previous
    if vm_id not in listing:
        listing[vm_id] = client.ls(vm_id)["vms"].get(vm_id, [])
    older = [
        g["generation"]
        for g in listing[vm_id]
        if g["generation"] < child.generation - 1
        and g["meta"].get("body_sha256") == parent_sha
    ]
    return manifest(max(older)) if older else None


def _phase(timer: Optional[PhaseTimer], name: str):
    return timer.phase(name) if timer is not None else contextlib.nullcontext()


def _chain_manifests(
    client: FleetClient, vm_id: str, head: Manifest
) -> list[Manifest]:
    """``head`` and the parents its chain binds to, newest first.

    A delta's ``chain_depth`` says how many parents it has, and they are
    nearly always the uploads just before it: generations g-1 ... g-d
    are asked for in one batch, and each is taken only when its
    ``body_sha256`` is its child's ``parent_sha256``.  A link that does
    not bind falls back to :func:`find_parent`'s listing.  An
    unresolvable parent leaves the chain truncated; its restore then
    fails typed and the generation walk falls back.
    """
    depth = head.meta.get("chain_depth", 0)
    if head.meta.get("kind") != "delta" or not isinstance(depth, int):
        depth = 0
    depth = max(0, min(depth, MAX_DELTA_CHAIN, head.generation - 1))
    wanted = [head.generation - i for i in range(1, depth + 1)]
    known = dict(zip(wanted, client.get_manifests(vm_id, wanted)))
    chain = [head]
    listing: dict = {}
    while (
        chain[-1].meta.get("kind") == "delta"
        and len(chain) <= MAX_DELTA_CHAIN
    ):
        parent = find_parent(client, vm_id, chain[-1], listing, known)
        if parent is None:
            break
        chain.append(parent)
    return chain


def fetch_chain(
    client: FleetClient,
    vm_id: str,
    generation: Optional[int] = None,
    timer: Optional[PhaseTimer] = None,
) -> tuple[Manifest, list[ChainLink]]:
    """Download one head generation and, when it is a delta, the parents
    it binds to — into memory, each payload verified against its
    manifest: the head's manifest, the parents' in one batch, and the
    chunks of every link together.  Returns the head's manifest and the
    links, head first, for :func:`~repro.checkpoint.reader.restart_vm`.
    Nothing is written to disk.  This is the cold-restore download path
    that warm standby replication exists to beat.

    Each link is hashed once, as its chunks arrive: one
    :class:`~repro.checkpoint.schema.ImageDigest` per link yields the
    digest its manifest names and, carried on the link, the body
    digests the restore checks."""
    with _phase(timer, "restart_download"):
        head = client.get_manifest(vm_id, generation)
        manifests = _chain_manifests(client, vm_id, head)
        digests = [ImageDigest() for _m in manifests]
        payloads = client.get_payloads(vm_id, manifests, digests)
    return head, [
        ChainLink(f"vm {vm_id!r} generation {m.generation}", payload, d)
        for m, payload, d in zip(manifests, payloads, digests)
    ]


def manifest_meta(rec: GenRecord, platform: Platform) -> dict:
    """The store-manifest meta of one protected generation — the only
    writer of the schema tabulated in docs/STORE.md."""
    fmt = rec.format_version
    meta = {
        "platform": platform.name,
        "instructions": rec.instructions,
        # Flush-before-checkpoint: the file carries an empty output
        # buffer and the manifest the cumulative output, so a restart
        # prefills the fresh sink instead of replaying writes.
        "stdout_b64": base64.b64encode(rec.stdout).decode(),
        # Chain identity: a delta restart locates its parents in the
        # store by matching parent_sha256 against older generations'
        # body_sha256.
        "kind": rec.kind,
        "body_sha256": rec.body_sha256,
        # Schema identity: what the uploaded file claims to be, so
        # fsck and auditors know the layout without fetching it.
        "format_version": fmt,
        "integrity_trailer": (
            FormatProfile.for_version(fmt).integrity_trailer
            if fmt is not None
            else False
        ),
    }
    if rec.kind == "delta":
        meta["chain_depth"] = rec.chain_depth
        meta["parent_sha256"] = rec.parent_sha256
    return meta


def protected_config(base: Optional[VMConfig]) -> VMConfig:
    """A copy of ``base`` whose checkpoints a protection driver owns —
    the one protection policy of both HA planes and the cluster.

    Only the driver's :meth:`CommitTailer.capture` commits a generation:
    a program's own ``checkpoint ()`` and the interval policy are
    ignored, since a commit nobody uploads or ships would become the
    parent the next protected delta binds to.

    After each first full, a generation carries only the dirty regions
    since its parent (a v4 delta); ``base``'s ``chkpt_full_every`` and
    ``chkpt_dirty_threshold`` still decide when one goes full again
    (``CHKPT_FULL_EVERY=1``: every one).
    """
    cfg = VMConfig() if base is None else VMConfig(**vars(base))
    cfg.chkpt_state = "disable"  # only the capture commits
    cfg.chkpt_incremental = True
    # A delta's base must survive local rotation (the writer's rule).
    cfg.chkpt_retain = max(cfg.chkpt_retain, 8)
    return cfg


def restore_generation(
    client: FleetClient,
    vm_id: str,
    code: CodeImage,
    platform: Platform | str,
    config: Optional[VMConfig] = None,
    generation: Optional[int] = None,
    timer: Optional[PhaseTimer] = None,
) -> tuple[VirtualMachine, int]:
    """Restore one stored generation of ``vm_id`` (the newest when
    ``generation`` is None) onto ``platform``: download its chain into
    memory, restore, prefill stdout.  Returns the VM and the depth of
    the chain it restored (0: a full; d: a delta and d parents).  A
    damaged chain raises the :class:`~repro.errors.RestartError` that
    names the link, ``vm '<vm_id>' generation <g>``."""
    manifest, links = fetch_chain(client, vm_id, generation=generation,
                                  timer=timer)
    with _phase(timer, "restart_rebuild"):
        vm, _stats = restart_vm(get_platform(platform), code, links, config)
    vm.channels.prefill_stdout(
        base64.b64decode(manifest.meta.get("stdout_b64", ""))
    )
    return vm, len(links) - 1


def restore_from_store(
    client: FleetClient,
    vm_id: str,
    code: CodeImage,
    platform: Platform | str,
    path: str,
    config: Optional[VMConfig] = None,
    timer: Optional[PhaseTimer] = None,
) -> tuple[VirtualMachine, int, int]:
    """Recover the newest restorable generation of ``vm_id`` onto
    ``platform`` (:func:`restore_generation`).  Returns the VM, how
    many damaged store generations were skipped to get there, and the
    depth of the chain it restored.

    ``path`` is where the restored VM will checkpoint: commit debris a
    crash left there is resolved first.  Store generations are walked
    newest-first until one restores: a damaged latest generation — a
    file that fails its own checks, or a payload that fails its
    manifest's digest — degrades the recovery, never kills it.  Raises
    :class:`~repro.errors.StoreNotFoundError` when nothing was ever
    stored, and the last tried generation's own
    :class:`~repro.errors.RestartError` (or
    :class:`~repro.errors.StoreIntegrityError`) when none restores.
    """
    # A mid-write crash leaves journal/tmp debris (and possibly a torn
    # head) at the local path; resolve it the way a rebooted machine
    # would before the restored VM commits there.
    recover_commit(path)
    generation: Optional[int] = None
    older: Optional[list[int]] = None
    skipped = 0
    while True:
        try:
            vm, depth = restore_generation(
                client, vm_id, code, platform, config, generation, timer
            )
            break
        except (RestartError, StoreIntegrityError):
            if older is None:
                # Nothing uploads while the VM is down, so the newest
                # listed generation is the head that just failed.
                listing = client.ls(vm_id)["vms"].get(vm_id, [])
                older = sorted(g["generation"] for g in listing)[:-1]
            if not older:
                raise
            skipped += 1
            generation = older.pop()
    if skipped:
        INTEGRITY.fallback_restores += 1
    return vm, skipped, depth


@dataclass
class HAReport:
    """What one supervised run did and what it cost."""

    completed: bool = False
    exit_code: int = 0
    stdout: bytes = b""
    faults_injected: int = 0
    #: Faults that struck *during* a checkpoint write (a strict subset of
    #: ``faults_injected``) — the crash window PR 3 opened up.
    midwrite_faults: int = 0
    #: Restarts that had to skip past one or more unrestorable store
    #: generations before succeeding.
    fallback_restores: int = 0
    checkpoints: int = 0
    #: Of ``checkpoints``, how many were full and how many v4 deltas.
    full_checkpoints: int = 0
    delta_checkpoints: int = 0
    restarts: int = 0
    cold_restarts: int = 0
    #: Per warm restart, the depth of the chain it restored: 0 for a
    #: full, d for a delta fetched with its d parents.
    restart_chain_depths: list[int] = field(default_factory=list)
    generations: list[int] = field(default_factory=list)
    platforms_visited: list[str] = field(default_factory=list)
    work_lost_instructions: int = 0
    restart_latencies: list[float] = field(default_factory=list)
    upload_stats: PutStats = field(default_factory=PutStats)
    phases: PhaseTimer = field(default_factory=PhaseTimer)
    #: Movement of the process-wide integrity counters over this run.
    integrity: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-able summary (the CLI's ``repro ha run --json``)."""
        doc = {
            **vars(self),
            "stdout": self.stdout.decode(errors="replace"),
            "dedup_ratio": self.upload_stats.dedup_ratio,
            "phases": self.phases.as_dict(),
            "integrity": dict(self.integrity),
        }
        del doc["upload_stats"]
        return doc


class HASupervisor:
    """Run a workload to completion through injected failures."""

    def __init__(
        self,
        code: CodeImage,
        client: FleetClient,
        vm_id: str,
        start_platform: Platform | str = "rodrigo",
        checkpoint_every: int = 20_000,
        fault_budgets: tuple[int, int] = (30_000, 120_000),
        max_faults: int = 3,
        seed: int = 2002,
        config: Optional[VMConfig] = None,
        require_hetero: bool = True,
        max_slices: int = 100_000,
        midwrite_fault_prob: float = 0.0,
    ) -> None:
        if checkpoint_every <= 0:
            raise ReproError("checkpoint_every must be positive")
        if not 0.0 <= midwrite_fault_prob <= 1.0:
            raise ReproError("midwrite_fault_prob must be in [0, 1]")
        self.code = code
        self.client = client
        self.vm_id = vm_id
        self.start_platform = get_platform(start_platform)
        self.checkpoint_every = checkpoint_every
        self.fault_budgets = fault_budgets
        self.max_faults = max_faults
        self.require_hetero = require_hetero
        self.max_slices = max_slices
        self.midwrite_fault_prob = midwrite_fault_prob
        self._rng = random.Random(seed)
        self._base_config = config

    # -- pieces ------------------------------------------------------------

    def _next_fault(self, report: HAReport) -> Optional[int]:
        if report.faults_injected >= self.max_faults:
            return None
        return self._rng.randint(*self.fault_budgets)

    # -- the supervision loop ----------------------------------------------

    def run(self) -> HAReport:
        report = HAReport()
        timer = report.phases
        integrity_before = INTEGRITY.as_dict()
        fd, ckpt_path = tempfile.mkstemp(suffix=".hckp")
        os.close(fd)
        os.unlink(ckpt_path)  # the first capture commits it atomically
        try:
            return self._supervise(report, timer, ckpt_path)
        finally:
            report.integrity = INTEGRITY.delta_since(integrity_before)
            leftovers = [ckpt_path, ckpt_path + ".tmp", ckpt_path + ".journal"]
            i = 1
            while os.path.exists(f"{ckpt_path}.{i}"):
                leftovers.append(f"{ckpt_path}.{i}")
                i += 1
            for leftover in leftovers:
                if os.path.exists(leftover):
                    os.unlink(leftover)

    def _supervise(
        self, report: HAReport, timer: PhaseTimer, ckpt_path: str
    ) -> HAReport:
        platform = self.start_platform
        config = protected_config(self._base_config)
        vm = VirtualMachine(platform, self.code, config)
        tailer = CommitTailer(vm, ckpt_path)
        report.platforms_visited.append(platform.name)

        since_restart = 0  # instructions executed since (re)start
        since_checkpoint = 0  # of those, not yet covered by a checkpoint
        next_fault = self._next_fault(report)

        for _ in range(self.max_slices):
            budget = self.checkpoint_every
            crash_after = False
            if next_fault is not None and since_restart + budget >= next_fault:
                budget = max(1, next_fault - since_restart)
                crash_after = True
            before = vm.interp.instructions
            with timer.phase("run"):
                result = vm.run(max_instructions=budget)
            executed = vm.interp.instructions - before
            since_restart += executed
            since_checkpoint += executed

            if result.status in ("stopped", "exited"):
                report.completed = True
                report.exit_code = result.exit_code
                report.stdout = vm.channels.stdout_bytes()
                return report

            midwrite_point = None
            if (
                not crash_after
                and report.faults_injected < self.max_faults
                and self._rng.random() < self.midwrite_fault_prob
            ):
                midwrite_point = self._rng.choice(COMMIT_POINTS[:-1])

            if not crash_after:
                if self._protect(
                    report, timer, tailer, platform, midwrite_point
                ):
                    since_checkpoint = 0
                    continue
                # The machine died mid-checkpoint-write: the crash window
                # the atomic commit protocol exists for.
                report.midwrite_faults += 1

            # The fault: the machine dies here, taking the VM and any
            # work since the last upload with it — every name for it, so
            # its heap is gone before the restart builds the next one.
            report.faults_injected += 1
            report.work_lost_instructions += since_checkpoint
            vm = tailer = result = None
            t0 = time.perf_counter()
            vm, platform = self._restart(
                report, timer, ckpt_path, platform, config
            )
            report.restart_latencies.append(time.perf_counter() - t0)
            report.platforms_visited.append(platform.name)
            tailer = CommitTailer(vm, ckpt_path)
            since_restart = 0
            since_checkpoint = 0
            next_fault = self._next_fault(report)
        raise ReproError("HA supervision exceeded max_slices")

    def _protect(
        self,
        report: HAReport,
        timer: PhaseTimer,
        tailer: CommitTailer,
        platform: Platform,
        crash_point: Optional[str] = None,
    ) -> bool:
        """One protection cycle — capture, mirror to the store; returns
        False if the machine "died".

        With ``crash_point`` set, a simulated crash strikes the commit
        protocol at that step — the checkpoint file is left in whatever
        torn/half-rotated state a real power cut would leave, nothing is
        uploaded, and the caller treats it as a fault.
        """
        try:
            with timer.phase("checkpoint"):
                rec = tailer.capture(
                    CrashHooks(crash_point) if crash_point else None
                )
        except SimulatedCrashError:
            return False
        with timer.phase("upload"):
            generation, stats = self.client.put_checkpoint(
                self.vm_id, rec.data, meta=manifest_meta(rec, platform)
            )
        report.checkpoints += 1
        if rec.kind == "delta":
            report.delta_checkpoints += 1
        else:
            report.full_checkpoints += 1
        report.generations.append(generation)
        report.upload_stats.merge(stats)
        return True

    def _restart(
        self,
        report: HAReport,
        timer: PhaseTimer,
        ckpt_path: str,
        crashed_platform: Platform,
        config: VMConfig,
    ) -> tuple[VirtualMachine, Platform]:
        target = get_platform(
            self._rng.choice(
                restart_candidates(crashed_platform, self.require_hetero)
            )
        )
        try:
            vm, skipped, depth = restore_from_store(
                self.client, self.vm_id, self.code, target, ckpt_path,
                config, timer,
            )
        except StoreNotFoundError:
            # Crashed before the first checkpoint landed: cold start.
            report.cold_restarts += 1
            return VirtualMachine(target, self.code, config), target
        report.fallback_restores += bool(skipped)
        report.restarts += 1
        report.restart_chain_depths.append(depth)
        return vm, target
