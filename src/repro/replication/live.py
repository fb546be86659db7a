"""Live warm-standby replication: the end-to-end failover driver.

This is where the pieces meet.  A primary VM runs the workload on one
platform, checkpointing every ``checkpoint_every`` instructions through
the :class:`~repro.checkpoint.generation.CommitTailer`; each committed
generation is shipped over the acked channel to a
:class:`~repro.replication.standby.StandbyServer` that keeps a resident
VM on a *different* platform — different endianness, different word
size — so takeover needs no conversion work at all.  Client-visible
stdout flows through the :class:`~repro.replication.gate.OutputGate`:
held until the covering generation is acked, per the output rule.

Three seeded fault schedules:

``none``
    Crash-free run — the oracle the others must match bit-for-bit.
``crash``
    The primary dies at a seeded point: either mid-run (work since the
    last generation is lost and re-executed) or mid-commit (a
    ``CrashHooks`` power-cut inside the atomic-commit protocol — killed
    mid-generation).  The standby sees the channel drop, suspects,
    acquires epoch+1, and its resident VM finishes the program.
``partition``
    The channel blackholes at a seeded point.  The isolated primary
    *keeps running*, believing it leads — but the gate holds everything
    it produces, so nothing escapes.  The standby times out, promotes
    through the lease, and finishes.  When the old primary finally
    reaches the store again, it finds a higher epoch held by someone
    else, fences, and demotes; its held output is discarded, exactly
    the bytes the successor re-produced.

In every schedule the concatenated client-observed stdout is
bit-identical to the crash-free run, and the lease history shows
exactly one holder per epoch.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.arch.platforms import Platform, get_platform
from repro.bytecode.image import CodeImage
from repro.checkpoint.commit import COMMIT_POINTS
from repro.checkpoint.generation import CommitTailer, GenRecord
from repro.errors import (
    LeaseLostError,
    ReplicationError,
    ReproError,
    StandbyUnreachableError,
)
from repro.faults.injectors import CrashHooks, FlakySocket, SimulatedCrashError
from repro.metrics import REPLICATION
from repro.replication.channel import ReplicationSender
from repro.replication.gate import OutputGate
from repro.replication.lease import EpochLease
from repro.replication.standby import StandbyServer
from repro.store.fleet.client import FleetClient
from repro.store.ha import (
    manifest_meta,
    protected_config,
    restart_candidates,
    restore_from_store,
)
from repro.vm import VMConfig, VirtualMachine

# Not called here any more, but benchmarks/e2e/spans.py (frozen) installs
# its reader and store.get probes on these two names *of this module*;
# without them a traced run warns "probe ... unavailable".
from repro.checkpoint.reader import restart_vm  # noqa: F401
from repro.store.ha import fetch_chain  # noqa: F401

#: Fault schedules the driver understands.
SCHEDULES = ("none", "crash", "partition")


@dataclass
class LiveReport:
    """What one live-replicated run did, for audit and comparison."""

    completed: bool = False
    exit_code: int = 0
    #: The client-observed stream: every span the gate released, in
    #: order, across both reigns.  The correctness invariant is that
    #: this equals the crash-free run's stdout byte for byte.
    client_stdout: bytes = b""
    schedule: str = "none"
    fault_slice: int = 0
    fault_style: str = ""
    generations_shipped: int = 0
    #: Of those, full checkpoints (the rest are deltas).
    generations_full: int = 0
    generations_discarded: int = 0
    #: How the standby applied what it received: folded into the
    #: resident VM in place, or by restoring its chain afresh (and why
    #: the last time) — the fast path's hit rate on this program.
    generations_applied_in_place: int = 0
    generations_rebuilt: int = 0
    last_rebuild_reason: str = ""
    promotions: int = 0
    fenced_demotions: int = 0
    #: Bytes the old primary produced but the gate never released
    #: (discarded on fence/crash; re-produced by the successor).
    held_discarded_bytes: int = 0
    takeover_seconds: Optional[float] = None
    primary_platform: str = ""
    standby_platform: str = ""
    epochs: list[int] = field(default_factory=list)
    #: Every lease claim ever made: ``[(epoch, holder, valid), ...]``.
    #: Valid claims held the lease; invalid ones are losing contenders
    #: kept for the split-brain audit.
    lease_history: list[tuple[int, str, bool]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            **vars(self),
            "client_stdout": self.client_stdout.decode(errors="replace"),
            "lease_history": [list(t) for t in self.lease_history],
        }


class LiveHA:
    """Primary + warm standby + lease, under one seeded fault schedule."""

    def __init__(
        self,
        code: CodeImage,
        store_addrs: Sequence[tuple[str, int] | str],
        vm_id: str,
        primary_platform: Platform | str = "rodrigo",
        standby_platform: Optional[Platform | str] = None,
        checkpoint_every: int = 20_000,
        schedule: str = "crash",
        seed: int = 2002,
        config: Optional[VMConfig] = None,
        max_slices: int = 10_000,
        mirror_to_store: bool = False,
        heartbeat_timeout: float = 0.2,
        heartbeat_misses: int = 3,
        ack_timeout: float = 0.5,
        max_retransmits: int = 2,
        channel_faults: Optional[dict] = None,
    ) -> None:
        if schedule not in SCHEDULES:
            raise ReproError(f"unknown fault schedule {schedule!r}")
        if checkpoint_every <= 0:
            raise ReproError("checkpoint_every must be positive")
        self.code = code
        #: The store fleet's shards (one address is a 1-shard fleet).
        self.store_addrs = list(store_addrs)
        self.vm_id = vm_id
        self.primary_platform = get_platform(primary_platform)
        if standby_platform is None:
            # Deterministic default: the first fully-heterogeneous peer.
            standby_platform = restart_candidates(self.primary_platform)[0]
        self.standby_platform = get_platform(standby_platform)
        self.checkpoint_every = checkpoint_every
        self.schedule = schedule
        self.seed = seed
        self.max_slices = max_slices
        self.mirror_to_store = mirror_to_store
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_misses = heartbeat_misses
        self.ack_timeout = ack_timeout
        self.max_retransmits = max_retransmits
        #: Instructions between keepalive PINGs inside a slice, so a
        #: long computation never looks like a dead primary.
        self.keepalive_every = max(1_000, checkpoint_every // 4)
        #: Optional drop/delay/duplicate/reorder probabilities applied to
        #: the replication channel for the whole run (FlakySocket knobs).
        self.channel_faults = dict(channel_faults or {})
        self._rng = random.Random(seed)
        self._base_config = config

    # -- the run ------------------------------------------------------------

    def run(self) -> LiveReport:
        report = LiveReport(
            schedule=self.schedule,
            primary_platform=self.primary_platform.name,
            standby_platform=self.standby_platform.name,
        )
        tmpdir = tempfile.mkdtemp(prefix="repro-live-")
        primary_path = os.path.join(tmpdir, "primary.hckp")
        standby_path = os.path.join(tmpdir, "standby.hckp")

        primary_client = FleetClient(self.store_addrs, backoff=0.01)
        standby_client = FleetClient(self.store_addrs, backoff=0.01)
        primary_lease = EpochLease(primary_client, self.vm_id, "primary")
        standby_lease = EpochLease(standby_client, self.vm_id, "standby")

        standby = StandbyServer(
            self.code,
            self.standby_platform,
            node_id="standby",
            chain_path=standby_path,
            lease=standby_lease,
            config=protected_config(self._base_config),
            heartbeat_timeout=self.heartbeat_timeout,
            heartbeat_misses=self.heartbeat_misses,
            auto_promote=True,
        )
        sender: Optional[ReplicationSender] = None
        try:
            epoch = primary_lease.claim(
                expected=primary_lease.read().epoch
            )
            report.epochs.append(epoch)
            s_host, s_port = standby.start()
            flaky_holder: list[FlakySocket] = []

            def wrap(sock):
                fs = FlakySocket(
                    sock, seed=self.seed, **self.channel_faults
                )
                flaky_holder.append(fs)
                return fs

            sender = ReplicationSender.connect(
                s_host,
                s_port,
                node_id="primary",
                wrap=wrap,
                ack_timeout=self.ack_timeout,
                max_retransmits=self.max_retransmits,
            )
            sender.hello(
                self.code.digest().hex(), epoch, self.primary_platform.name
            )
            flaky = flaky_holder[0]

            self._reign(
                report, primary_client, primary_lease, epoch,
                sender, flaky, standby, primary_path,
            )
            report.promotions = 1 if standby.promoted_event.is_set() else 0
            report.takeover_seconds = standby.takeover_seconds
            state = standby.describe()
            report.generations_applied_in_place = state["applied_in_place"]
            report.generations_rebuilt = state["rebuilt"]
            report.last_rebuild_reason = state["last_rebuild_reason"]
            report.lease_history = [
                (c.epoch, c.holder, c.valid)
                for c in primary_lease.history()
            ]
            return report
        finally:
            if sender is not None:
                sender.close()
            standby.stop()
            primary_client.close()
            standby_client.close()
            for name in sorted(os.listdir(tmpdir)):
                os.unlink(os.path.join(tmpdir, name))
            os.rmdir(tmpdir)

    # -- the primary's reign and its ends -----------------------------------

    def _reign(
        self,
        report: LiveReport,
        client: FleetClient,
        lease: EpochLease,
        epoch: int,
        sender: ReplicationSender,
        flaky: FlakySocket,
        standby: StandbyServer,
        path: str,
    ) -> None:
        vm = VirtualMachine(
            self.primary_platform,
            self.code,
            protected_config(self._base_config),
        )
        gate = OutputGate()
        tailer = CommitTailer(vm, path)
        chunks: list[bytes] = []

        fault_slice = 0
        fault_style = ""
        if self.schedule == "crash":
            fault_slice = self._rng.randint(2, 5)
            fault_style = self._rng.choice(["mid-run", "mid-commit"])
        elif self.schedule == "partition":
            fault_slice = self._rng.randint(2, 5)
            fault_style = "blackhole"
        report.fault_slice = fault_slice
        report.fault_style = fault_style

        for slice_idx in range(1, self.max_slices + 1):
            fault_now = fault_slice and slice_idx == fault_slice
            budget = self.checkpoint_every
            if fault_now and fault_style == "mid-run":
                # Die at a seeded instruction budget inside the slice.
                budget = self._rng.randint(1, self.checkpoint_every)
            result = self._run_slice(vm, sender, budget)
            if result.status in ("stopped", "exited"):
                # Clean completion: exit is the final event; there is no
                # divergent re-execution left to protect against.
                vm.channels.stdout.flush()
                gate.feed(vm.channels.stdout_bytes())
                gate.release_all()
                chunks.append(gate.take())
                report.completed = True
                report.exit_code = result.exit_code
                report.client_stdout = b"".join(chunks)
                return

            if fault_now and fault_style == "mid-run":
                self._die(report, gate, chunks, sender, standby)
                self._succeed(report, standby, chunks)
                return
            if fault_now and fault_style == "blackhole":
                flaky.partition(True)

            try:
                if fault_now and fault_style == "mid-commit":
                    # A power cut strikes the atomic-commit protocol
                    # partway through: killed mid-generation.
                    point = self._rng.choice(COMMIT_POINTS[:-1])
                    tailer.capture(inner_hooks=CrashHooks(point))
                    raise ReproError("CrashHooks did not fire")
                rec = tailer.capture()
            except SimulatedCrashError:
                self._die(report, gate, chunks, sender, standby)
                self._succeed(report, standby, chunks)
                return

            if self.mirror_to_store:
                # The cold-restore baseline the benchmark measures warm
                # takeover against: what the supervisor would upload.
                client.put_checkpoint(
                    self.vm_id, rec.data,
                    meta=manifest_meta(rec, self.primary_platform),
                )
            try:
                sender.ship(rec)
            except StandbyUnreachableError:
                # Channel dead but we still run: the isolated-primary
                # case.  Keep producing (held), let the lease decide.
                self._isolated(
                    report, vm, tailer, gate, chunks, lease,
                    epoch, standby, pending=rec,
                )
                self._succeed(report, standby, chunks)
                return
            report.generations_shipped += 1
            report.generations_full += rec.kind == "full"
            gate.feed(rec.stdout)
            gate.release_to(len(rec.stdout))
            chunks.append(gate.take())
        raise ReproError("live replication exceeded max_slices")

    def _run_slice(self, vm: VirtualMachine, sender: ReplicationSender, budget: int):
        """Run up to ``budget`` instructions, with keepalive PINGs
        between chunks so the standby's failure detector never mistakes
        a long computation (or a loaded host) for a dead primary."""
        remaining = budget
        while True:
            before = vm.interp.instructions
            result = vm.run(
                max_instructions=min(self.keepalive_every, remaining)
            )
            remaining -= max(vm.interp.instructions - before, 1)
            if result.status in ("stopped", "exited") or remaining <= 0:
                return result
            sender.ping()

    def _die(
        self,
        report: LiveReport,
        gate: OutputGate,
        chunks: list[bytes],
        sender: ReplicationSender,
        standby: StandbyServer,
    ) -> None:
        """The primary's host dies: the channel drops (the standby sees
        EOF and suspects immediately), held output is lost."""
        report.held_discarded_bytes += gate.held_bytes
        sender.close()
        if not standby.await_promoted(
            timeout=30 * self.heartbeat_timeout * self.heartbeat_misses + 10
        ):
            raise ReplicationError(
                "standby never promoted after primary death"
            )

    def _isolated(
        self,
        report: LiveReport,
        vm: VirtualMachine,
        tailer: CommitTailer,
        gate: OutputGate,
        chunks: list[bytes],
        lease: EpochLease,
        epoch: int,
        standby: StandbyServer,
        pending: GenRecord,
    ) -> None:
        """The partitioned primary keeps running, believing it leads.

        Every byte it produces stays held — the gate has no acks to
        release against — so nothing divergent can escape.  When it
        finally reaches the store again it finds the standby's higher
        epoch, fences, and demotes; the held bytes are discarded, and
        the successor re-produces exactly them.
        """
        report.generations_discarded += 1  # the unacked ship
        gate.feed(pending.stdout)  # produced, NOT released: no ack came
        isolated_slices = 0
        while not standby.await_promoted(timeout=0.02):
            if isolated_slices >= self.max_slices:
                raise ReplicationError(
                    "standby never promoted during partition"
                )
            result = vm.run(max_instructions=self.checkpoint_every)
            vm.channels.stdout.flush()
            gate.feed(vm.channels.stdout_bytes())
            if result.status in ("stopped", "exited"):
                break  # finished in isolation; output still held
            try:
                rec = tailer.capture()
                gate.feed(rec.stdout)
                report.generations_discarded += 1
            except SimulatedCrashError:  # pragma: no cover - not seeded
                break
            isolated_slices += 1
        if not standby.await_promoted(
            timeout=30 * self.heartbeat_timeout * self.heartbeat_misses + 10
        ):
            raise ReplicationError(
                "standby never promoted during partition"
            )
        # The partition heals: the primary reaches the store again and
        # runs its fencing probe.  It must lose.
        try:
            lease.check(epoch)
        except LeaseLostError:
            REPLICATION.fenced_demotions += 1
            report.fenced_demotions += 1
            report.held_discarded_bytes += gate.held_bytes
        else:
            raise ReplicationError(
                "old primary was not fenced after the standby promoted"
            )

    def _succeed(
        self,
        report: LiveReport,
        standby: StandbyServer,
        chunks: list[bytes],
    ) -> None:
        """The promoted standby's resident VM finishes the program.

        Its gate resumes from the prefill (acked coverage, released by
        construction) and the client's delivered offset, so the handoff
        neither repeats nor drops a byte."""
        vm = standby.resident_vm  # prefill already written by promote()
        if vm is None:
            raise ReplicationError("promoted standby has no resident VM")
        report.epochs.append(standby.epoch)
        delivered = sum(len(c) for c in chunks)
        gate = OutputGate.resume(
            prefill=standby.prefill, delivered=delivered
        )
        chunks.append(gate.take())  # released prefill the client lacks
        for _ in range(self.max_slices):
            result = vm.run(max_instructions=self.checkpoint_every)
            vm.channels.stdout.flush()
            gate.feed(vm.channels.stdout_bytes())
            # The successor reigns unprotected (no standby of its own);
            # degraded mode releases as it produces.
            gate.release_all()
            chunks.append(gate.take())
            if result.status in ("stopped", "exited"):
                report.completed = True
                report.exit_code = result.exit_code
                report.client_stdout = b"".join(chunks)
                return
        raise ReproError("successor exceeded max_slices")


def cold_restore_from_store(
    client: FleetClient,
    vm_id: str,
    code: CodeImage,
    platform: Platform | str,
    path: str,
    config: Optional[VMConfig] = None,
) -> tuple[VirtualMachine, float]:
    """The baseline a warm standby competes with: the supervisor's
    :func:`~repro.store.ha.restore_from_store`, timed.  Returns the
    restored VM and the elapsed seconds."""
    t0 = time.perf_counter()
    vm, _skipped, _depth = restore_from_store(
        client, vm_id, code, platform, path, config
    )
    return vm, time.perf_counter() - t0
