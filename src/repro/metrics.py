"""Phase timing instrumentation.

The paper's Figures 13 and 14 break checkpoint and restart down into
their substantial parts (minor GC, heap dump, stack, commit, ... /
heap restore, pointer fixing, conversion, ...).  ``PhaseTimer`` is the
shared instrument both the writer and the reader use to produce those
breakdowns.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from typing import ClassVar


class PhaseTimer:
    """Accumulates wall-clock time per named phase."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        #: Fine-grained kernel timings nested *inside* phases.  Kept in a
        #: separate dict so they never double-count toward :attr:`total`.
        self.kernel_seconds: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        """Time one phase (additive across repeated entries)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.seconds[name] = self.seconds.get(name, 0.0) + dt
            self.counts[name] = self.counts.get(name, 0) + 1

    @contextmanager
    def kernel(self, name: str):
        """Time one kernel inside an enclosing phase.

        Kernel time is informational (which inner loop dominates a
        phase); it is excluded from :attr:`total` and :meth:`fractions`
        because the enclosing phase already accounts for it.
        """
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.kernel_seconds[name] = (
                self.kernel_seconds.get(name, 0.0) + dt
            )

    def add(self, name: str, seconds: float) -> None:
        """Record an externally measured duration."""
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + 1

    @property
    def total(self) -> float:
        """Sum over all phases."""
        return sum(self.seconds.values())

    def fractions(self) -> dict[str, float]:
        """Per-phase share of the total (empty timer -> empty dict)."""
        total = self.total
        if total <= 0:
            return {}
        return {k: v / total for k, v in self.seconds.items()}

    def merge(self, other: "PhaseTimer") -> None:
        """Fold another timer's phases into this one."""
        for k, v in other.seconds.items():
            self.add(k, v)
        for k, v in other.kernel_seconds.items():
            self.kernel_seconds[k] = self.kernel_seconds.get(k, 0.0) + v

    def as_dict(self) -> dict:
        """JSON-able breakdown (seconds, entry counts, kernel timings)."""
        return {
            "total_seconds": self.total,
            "phases": dict(self.seconds),
            "counts": dict(self.counts),
            "kernels": dict(self.kernel_seconds),
        }

    def report(self, title: str = "phases") -> str:
        """Human-readable table of the breakdown."""
        lines = [f"{title}: total {self.total * 1e3:.3f} ms"]
        for name, sec in sorted(
            self.seconds.items(), key=lambda kv: -kv[1]
        ):
            share = 100.0 * sec / self.total if self.total else 0.0
            lines.append(f"  {name:<24s} {sec * 1e3:10.3f} ms  {share:5.1f}%")
        for name, sec in sorted(
            self.kernel_seconds.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  [kernel] {name:<15s} {sec * 1e3:10.3f} ms")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Process-wide counters
# ---------------------------------------------------------------------------


class _Counters:
    """What every counter dataclass below does, derived from its fields.

    Numeric fields are counters (or gauges) that move; anything else —
    :attr:`IntegrityCounters.last_fallback`,
    :attr:`ReplicationCounters.last_rebuild_reason` — is a point-in-time
    diagnosis, reported and reset but never differenced.
    """

    #: Read-only properties :meth:`as_dict` reports beside the fields.
    DERIVED: ClassVar[tuple[str, ...]] = ()

    def as_dict(self) -> dict:
        doc = {}
        for name in [f.name for f in fields(self)] + list(self.DERIVED):
            value = getattr(self, name)
            doc[name] = dict(value) if isinstance(value, dict) else value
        return doc

    def delta_since(self, snapshot: dict) -> dict:
        """Counter movement since an :meth:`as_dict` snapshot."""
        return {
            f.name: getattr(self, f.name) - snapshot.get(f.name, 0)
            for f in fields(self)
            if isinstance(getattr(self, f.name), (int, float))
        }

    def reset(self) -> None:
        for f in fields(self):
            fresh = f.default_factory() if f.default is MISSING else f.default
            setattr(self, f.name, fresh)


# ---------------------------------------------------------------------------
# Integrity accounting
# ---------------------------------------------------------------------------


@dataclass
class IntegrityCounters(_Counters):
    """Process-wide counts of integrity events on the checkpoint path.

    A restore that survives corruption by walking a generation chain, or
    an ``fsck`` that patches damaged sections, must leave an audit trail
    an operator can alarm on — silently healed corruption hides a dying
    disk.  ``repro info --json`` and the HA supervisor report these.
    """

    #: Checkpoint files that failed CRC/digest/parse verification.
    integrity_failures: int = 0
    #: Restores that succeeded only by falling back to an older
    #: generation (local ``path.N`` chain or an earlier store manifest).
    fallback_restores: int = 0
    #: File sections repaired in place from a store replica by fsck.
    sections_repaired: int = 0
    #: Background checkpoint writes that failed after the application
    #: had already resumed (the error surfaces at the next join).
    background_checkpoint_failures: int = 0
    #: Diagnosis of the most recent fallback generation walk: which
    #: requested head failed, every link that was tried with its error
    #: (and the failing section, when known), and which file finally
    #: restored.  Empty until a fallback happens.
    last_fallback: dict = field(default_factory=dict)


#: The module-level instance everything increments (GIL-atomic int adds).
INTEGRITY = IntegrityCounters()


# ---------------------------------------------------------------------------
# Restart / lazy-restore accounting
# ---------------------------------------------------------------------------


@dataclass
class RestartCounters(_Counters):
    """Process-wide counters for deferred (lazy) restarts.

    A lazy restart defers most of the file's bytes — read, CRC, parse —
    behind section handles; the deferred share is verified later by the
    first-touch thunks and the background drain.  These counters say how
    much work restart actually put off, and whether any deferred section
    turned out to be corrupt after the application had already resumed
    (:attr:`late_failures` — the alarmable one).
    """

    #: Restores that deferred heap conversion and section verification.
    lazy_restores: int = 0
    #: Body sections still unresolved when a lazy restart returned.
    sections_deferred: int = 0
    #: Bytes whose read + CRC verification restart deferred.
    bytes_deferred: int = 0
    #: Deferred verifications completed after restart (per source file).
    late_verifications: int = 0
    #: Deferred verifications that FAILED after the VM was running —
    #: surfaced as the typed late CheckpointIntegrityError.
    late_failures: int = 0


#: The module-level instance the lazy restart path increments.
RESTART = RestartCounters()


# ---------------------------------------------------------------------------
# Incremental-checkpoint accounting
# ---------------------------------------------------------------------------


@dataclass
class DeltaCounters(_Counters):
    """Process-wide counts for incremental (delta) checkpointing.

    ``repro info --json`` reports these so an operator can see whether
    the dirty-ratio heuristics actually pay off in their workload.
    """

    #: Full checkpoints written (including forced fallbacks to full).
    checkpoints_full: int = 0
    #: Delta (format v4) checkpoints written.
    checkpoints_delta: int = 0
    #: Dirty regions serialized across all delta checkpoints.
    dirty_regions: int = 0
    #: Bytes a delta saved versus the full heap dump it replaced
    #: (heap words * word size minus the delta file size, clamped at 0).
    delta_bytes_saved: int = 0


#: The module-level instance the writer increments.
DELTA = DeltaCounters()


# ---------------------------------------------------------------------------
# Store transport accounting
# ---------------------------------------------------------------------------


@dataclass
class StoreCounters(_Counters):
    """Process-wide store-client transport accounting.

    ``repro info --json`` reports these; a climbing retry count with a
    healthy store means the network (or a lockstep-retry bug) is the
    problem, not the daemon.
    """

    #: Requests that needed at least one transport-level retry
    #: (summed across every client in this process).
    transport_retries: int = 0


#: The module-level instance every StoreClient increments.
STORE = StoreCounters()


# ---------------------------------------------------------------------------
# Fleet accounting
# ---------------------------------------------------------------------------


@dataclass
class FleetCounters(_Counters):
    """Process-wide counters for the sharded store fleet client.

    The interesting ratio: ``batched_ops / batches_sent`` says how much
    round-trip amortization RSTP/2 batching is buying.
    """

    #: BATCH frames sent (each carries many sub-operations).
    batches_sent: int = 0
    #: Sub-operations carried inside those BATCH frames.
    batched_ops: int = 0
    #: Chunks received via streamed GET_MANY responses.
    streamed_chunks: int = 0
    #: Uploads re-verified because a destructive op moved a shard's
    #: destruction epoch during the upload (chunks a racing gc swept
    #: were re-sent from the source).
    stale_cache_retries: int = 0
    #: Chunks copied to their owner shard by rebalance/gc placement.
    rebalance_moves: int = 0
    #: Manifests re-homed onto their owner shard by rebalance.
    manifest_moves: int = 0
    #: Chunks found on a non-owner shard during reads (pre-rebalance).
    misplaced_fetches: int = 0


#: The module-level instance the fleet client increments.
FLEET = FleetCounters()


# ---------------------------------------------------------------------------
# Warm-standby replication accounting
# ---------------------------------------------------------------------------


@dataclass
class ReplicationCounters(_Counters):
    """Process-wide counters for warm-standby continuous replication.

    The gauges (:attr:`lag_generations`, :attr:`lag_bytes`,
    :attr:`output_held_bytes`) reflect the *current* state of the
    channel: how far the standby trails the primary and how much stdout
    the output rule is holding back.  The event counters accumulate;
    :attr:`promotions` and :attr:`fenced_demotions` are the split-brain
    audit trail an operator alarms on.
    """

    #: Committed generations shipped to the standby.
    generations_sent: int = 0
    #: Generations the standby spliced into its resident VM — folded in
    #: place (a delta that moved no block) or by restoring its chain
    #: afresh, and why the last one needed that ("full", "layout",
    #: "lazy", ...): the fast path's hit rate, read from the system.
    generations_applied: int = 0
    generations_applied_in_place: int = 0
    generations_rebuilt: int = 0
    last_rebuild_reason: str = ""
    #: Checkpoint payload bytes shipped (files + carried stdout).
    bytes_sent: int = 0
    #: Acknowledgements received by the primary.
    acks: int = 0
    #: GEN frames re-sent after an ack timeout.
    retransmits: int = 0
    #: Duplicate GEN frames the standby dropped (already applied).
    duplicates_dropped: int = 0
    #: Heartbeat windows the standby's failure detector missed.
    heartbeats_missed: int = 0
    #: Gauge: generations sent but not yet acknowledged.
    lag_generations: int = 0
    #: Gauge: bytes sent but not yet acknowledged.
    lag_bytes: int = 0
    #: Gauge: stdout bytes buffered behind the output rule.
    output_held_bytes: int = 0
    #: Standby takeovers (epoch lease acquired, resident VM promoted).
    promotions: int = 0
    #: Nodes that observed a higher epoch and fenced themselves.
    fenced_demotions: int = 0


#: The module-level instance the replication channel increments.
REPLICATION = ReplicationCounters()
