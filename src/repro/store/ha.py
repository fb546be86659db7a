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
from repro.checkpoint.reader import restart_vm
from repro.checkpoint.schema import FormatProfile
from repro.errors import ReproError, RestartError, StoreNotFoundError
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
    client: FleetClient, vm_id: str, child: Manifest, listing: dict
) -> Optional[Manifest]:
    """The manifest of the generation the delta ``child`` binds to: the
    newest one under it whose meta records ``child``'s parent SHA-256,
    or None if no upload carries it.

    A delta's parent is nearly always the upload just before it, so that
    one manifest is fetched and checked first.  Only when it is some
    other generation are this vm's generations listed — a scoped
    listing reads every manifest the store retains for ``vm_id`` — and
    then once per fetch: ``listing`` (an empty dict to begin with)
    keeps it for the rest of the walk.
    """
    parent_sha = child.meta.get("parent_sha256", "")
    if not parent_sha:
        return None
    try:
        previous = client.get_manifest(vm_id, child.generation - 1)
    except StoreNotFoundError:
        previous = None
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
    return client.get_manifest(vm_id, max(older)) if older else None


def _phase(timer: Optional[PhaseTimer], name: str):
    return timer.phase(name) if timer is not None else contextlib.nullcontext()


def fetch_chain(
    client: FleetClient,
    vm_id: str,
    ckpt_path: str,
    generation: Optional[int] = None,
    timer: Optional[PhaseTimer] = None,
) -> Manifest:
    """Download one head generation and, when it is a delta, the parents
    it binds to — laid out at ``path.1``, ``path.2``, ... the way local
    rotation would, so the chain reader finds them.  This is the
    cold-restore download path that warm standby replication exists to
    beat."""
    with _phase(timer, "restart_download"):
        manifest = client.get_checkpoint_file(
            vm_id, ckpt_path, generation=generation
        )
        # Stale numbered generations from a previous restart would be
        # mistaken for chain parents; clear them first.
        i = 1
        while os.path.exists(f"{ckpt_path}.{i}"):
            os.unlink(f"{ckpt_path}.{i}")
            i += 1
        m = manifest
        depth = 0
        listing: dict = {}
        while m.meta.get("kind") == "delta":
            m = find_parent(client, vm_id, m, listing)
            if m is None:
                # Unresolvable parent: leave the chain truncated; the
                # restore raises and the generation-walk falls back.
                break
            depth += 1
            client.get_checkpoint_file(
                vm_id, f"{ckpt_path}.{depth}", manifest=m
            )
    return manifest


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


def protected_config(base: Optional[VMConfig], path: str) -> VMConfig:
    """A copy of ``base`` whose checkpoints a protection driver owns."""
    cfg = VMConfig() if base is None else VMConfig(**vars(base))
    cfg.chkpt_state = "enable"
    cfg.chkpt_filename = path
    cfg.chkpt_mode = "blocking"  # the capture reads the committed file
    cfg.chkpt_interval = None  # the driver owns the cadence
    return cfg


def restore_from_store(
    client: FleetClient,
    vm_id: str,
    code: CodeImage,
    platform: Platform | str,
    path: str,
    config: Optional[VMConfig] = None,
    timer: Optional[PhaseTimer] = None,
) -> tuple[VirtualMachine, int]:
    """Recover the newest restorable generation of ``vm_id`` onto
    ``platform``: download the head and its delta parents to ``path``,
    restore, prefill stdout.  Returns the VM and how many damaged store
    generations were skipped to get there.

    Store generations are walked newest-first until one restores: a
    damaged latest generation degrades the recovery, never kills it.
    Raises :class:`~repro.errors.StoreNotFoundError` when nothing was
    ever stored, and the last tried generation's own
    :class:`~repro.errors.RestartError` when none restores.
    """
    platform = get_platform(platform)
    # A mid-write crash leaves journal/tmp debris (and possibly a torn
    # head) at the local path; resolve it the way a rebooted machine
    # would before the store download overwrites the file.
    recover_commit(path)
    manifest = fetch_chain(client, vm_id, path, timer=timer)
    older: Optional[list[int]] = None
    skipped = 0
    while True:
        try:
            with _phase(timer, "restart_rebuild"):
                vm, _stats = restart_vm(platform, code, path, config)
            break
        except RestartError:
            if older is None:
                listing = client.ls(vm_id)["vms"].get(vm_id, [])
                older = sorted(
                    g["generation"]
                    for g in listing
                    if g["generation"] < manifest.generation
                )
            if not older:
                raise
            skipped += 1
            manifest = fetch_chain(
                client, vm_id, path, generation=older.pop(), timer=timer
            )
    if skipped:
        INTEGRITY.fallback_restores += 1
    vm.channels.prefill_stdout(
        base64.b64decode(manifest.meta.get("stdout_b64", ""))
    )
    return vm, skipped


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
    restarts: int = 0
    cold_restarts: int = 0
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
        os.unlink(ckpt_path)  # perform_checkpoint recreates it atomically
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
        config = protected_config(self._base_config, ckpt_path)
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
                meta = manifest_meta(
                    tailer.capture(
                        CrashHooks(crash_point) if crash_point else None
                    ),
                    platform,
                )
        except SimulatedCrashError:
            return False
        # The committed file is the record's data (blocking mode).  It is
        # streamed from disk and the record, which never read it, let go:
        # a multi-megabyte generation is at no point held in memory whole.
        with timer.phase("upload"):
            generation, stats = self.client.put_checkpoint_file(
                self.vm_id, tailer.path, meta=meta
            )
        report.checkpoints += 1
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
            vm, skipped = restore_from_store(
                self.client, self.vm_id, self.code, target, ckpt_path,
                config, timer,
            )
        except StoreNotFoundError:
            # Crashed before the first checkpoint landed: cold start.
            report.cold_restarts += 1
            return VirtualMachine(target, self.code, config), target
        report.fallback_restores += bool(skipped)
        report.restarts += 1
        return vm, target
