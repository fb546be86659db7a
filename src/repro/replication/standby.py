"""The standby daemon: a resident VM kept ≤1 generation behind.

One TCP listener, one primary at a time.  Every GEN frame is verified
(wire digest, sequence contiguity), durably committed into the
standby's *local* generation chain through the same atomic-commit
protocol the primary used, and then spliced into a **resident VM** —
full heterogeneous conversion included, so the resident VM already
lives on the standby's platform (different endianness, different word
size) before any failover happens.  Only then is the ACK sent: an
acked generation is takeover-ready by definition, which is what lets
the primary release stdout up to it.

Splicing costs what changed, not what exists, and the standby holds
the state once.  Next to the resident VM it keeps the
:class:`~repro.checkpoint.resident.ResidentImage` its last restore left
behind — conversion tables, not a saved copy of the heap.  A generation
that keeps the block layout (a delta bound to the held head, or a full)
is verified once from the arriving bytes and folded into the resident
VM in place.  Anything else restores afresh: the first full or a full
whose blocks moved from the bytes received, a delta (a layout change, a
lazily restored image) from the local chain, re-verifying every link it
reads from disk.  The image being replaced is dropped first; the VM it
belongs to stays promotable until its replacement exists.

Failure detection rides the channel itself: any frame resets the miss
counter; ``heartbeat_misses`` consecutive quiet windows (or an abrupt
EOF — a crashed primary's kernel sending FIN/RST) marks the primary
suspect.  With ``auto_promote``, suspicion triggers promotion: the
standby acquires epoch+1 through the store lease (the split-brain
guard — if the store says no, someone else leads and we stay down),
and the resident VM plus its stdout prefill become the new primary.
Takeover applies only the un-acked tail — which is empty, because
apply-before-ack means the resident VM is already *at* the acked
frontier.  Nor does it open a connection or read the lease: the
standby does both when its primary greets it, so a takeover is the
claim alone.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Optional

from repro.arch.platforms import Platform, get_platform
from repro.checkpoint.commit import atomic_commit
from repro.checkpoint.format import VMSnapshot
from repro.checkpoint.generation import GenRecord
from repro.checkpoint.reader import MAX_DELTA_CHAIN, ChainLink, restart_vm
from repro.checkpoint.resident import ResidentImage, read_generation
from repro.errors import (
    CheckpointError,
    LeaseLostError,
    ReplicationError,
    ReplicationProtocolError,
    RestartError,
    StoreError,
)
from repro.metrics import REPLICATION
from repro.replication import wire
from repro.replication.lease import EpochLease
from repro.vm import VMConfig, VirtualMachine

#: Generations kept in the standby's local chain.  A head that is a
#: delta deeper than this keeps its whole chain regardless: the head
#: must always be restorable from local files alone.
DEFAULT_RETAIN = 24


class StandbyServer:
    """Receives, verifies, splices, acks; promotes when the lease says so."""

    def __init__(
        self,
        code,
        platform: Platform | str,
        node_id: str,
        chain_path: str,
        lease: Optional[EpochLease] = None,
        config: Optional[VMConfig] = None,
        heartbeat_timeout: float = 0.25,
        heartbeat_misses: int = 3,
        auto_promote: bool = False,
        retain: int = DEFAULT_RETAIN,
    ) -> None:
        self.code = code
        self.platform = get_platform(platform)
        self.node_id = node_id
        self.chain_path = chain_path
        self.lease = lease
        self.config = config
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_misses = heartbeat_misses
        self.auto_promote = auto_promote
        self.retain = retain

        self.applied_seq = 0
        self.applied_instructions = 0
        self.last_body_sha = ""
        self.resident_vm: Optional[VirtualMachine] = None
        #: What the restore that built ``resident_vm`` left behind for
        #: folding the next delta in place (None: nothing restored yet,
        #: or a lazy restore).
        self.image: Optional[ResidentImage] = None
        self.applied_in_place = 0
        self.rebuilt = 0
        #: Why the last generation was restored afresh instead of folded
        #: in place: "full" (the first: nothing to fold into), "layout",
        #: "lazy", "depth", "unstaged", "no-image", "apply-failed" (""
        #: while none was).
        self.last_rebuild_reason = ""
        self.prefill = b""
        self.primary_node: Optional[str] = None
        self.primary_epoch = 0
        self.epoch = 0
        #: The lease's newest valid epoch as last seen — when a primary
        #: said HELLO, or by a claim of our own — for the next claim to
        #: expect (None: not observed, or the store failed us then).
        self.lease_observed: Optional[int] = None
        self.takeover_seconds: Optional[float] = None
        #: Store exchanges the takeover's claim took (one when observed).
        self.takeover_exchanges: Optional[int] = None
        #: Why the failure detector fired ("eof", "timeout"), if it did.
        self.suspicion_reason = ""

        self.suspect_event = threading.Event()
        self.promoted_event = threading.Event()
        self._lock = threading.Lock()
        #: Serializes the lease client between the serving thread (the
        #: observation at HELLO) and whoever calls :meth:`promote`.
        self._lease_lock = threading.Lock()
        self._stopping = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(1)
        self._listener.settimeout(0.1)
        self._thread = threading.Thread(
            target=self._serve, name=f"standby-{self.node_id}", daemon=True
        )
        self._thread.start()
        return self._listener.getsockname()

    def stop(self) -> None:
        self._stopping.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    # -- the serving loop --------------------------------------------------

    def _serve(self) -> None:
        while not self._stopping.is_set() and not self.promoted_event.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                self._speak(conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def _speak(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(self.heartbeat_timeout)
        missed = 0
        greeted = False
        while not self._stopping.is_set() and not self.promoted_event.is_set():
            try:
                frame = wire.recv_frame(conn, allow_eof=True)
            except (socket.timeout, TimeoutError):
                if not greeted:
                    continue  # nobody to suspect yet
                missed += 1
                REPLICATION.heartbeats_missed += 1
                if missed >= self.heartbeat_misses:
                    self._suspect("timeout")
                continue
            except (ReplicationProtocolError, OSError):
                if greeted:
                    self._suspect("eof")
                return
            if frame is None:  # clean EOF — the primary's host died
                if greeted:
                    self._suspect("eof")
                return
            missed = 0
            op, payload = frame
            # The frame must not outlive its handling: a full's buffer
            # would sit beside the next frame while it is received.
            del frame
            try:
                if op == wire.OP_HELLO:
                    self._on_hello(conn, payload)
                    greeted = True
                elif op == wire.OP_GEN:
                    self._on_gen(conn, payload)
                elif op == wire.OP_PING:
                    wire.send_frame(conn, wire.OP_PONG)
                else:
                    self._err(conn, f"unexpected opcode 0x{op:02x}")
            except (ReplicationProtocolError, ReplicationError) as e:
                self._err(conn, str(e))
            except OSError:
                if greeted:
                    self._suspect("eof")
                return
            finally:
                del payload

    def _err(self, conn, message: str) -> None:
        try:
            wire.send_frame(
                conn, wire.OP_ERR, wire.encode_json({"error": message})
            )
        except OSError:
            pass

    def _on_hello(self, conn, payload: bytes) -> None:
        info = wire.decode_json(payload)
        if info.get("code_digest") != self.code.digest().hex():
            raise ReplicationError(
                "primary runs a different program (code digest mismatch)"
            )
        self.primary_node = info.get("node")
        self.primary_epoch = int(info.get("epoch", 0))
        # Before the answer, so before any generation is acked: a
        # primary that lives long enough to be protected has been
        # observed, and its standby's takeover is one claim.
        self._observe_lease()
        wire.send_frame(
            conn,
            wire.OP_OK,
            wire.encode_json(
                {"node": self.node_id, "applied": self.applied_seq}
            ),
        )

    def _observe_lease(self) -> None:
        """Open the lease client's connection and note the newest valid
        epoch.  Never fails the greeting: a store that cannot answer
        leaves the standby unobserved, and its promotion reads first."""
        if self.lease is None:
            return
        with self._lease_lock:
            try:
                self.lease_observed = self.lease.read().epoch
            except (StoreError, ReplicationError):
                self.lease_observed = None

    def _on_gen(self, conn, payload: bytes) -> None:
        rec = wire.decode_gen(payload)  # verifies sizes + file digest
        if rec.seq <= self.applied_seq:
            REPLICATION.duplicates_dropped += 1
            self._ack(conn, rec.seq)
            return
        if rec.seq != self.applied_seq + 1:
            # A gap cannot happen under the 1-in-flight discipline; if
            # it somehow does, the cumulative ack tells the primary
            # where we really are.
            self._ack(conn, rec.seq)
            return
        if rec.kind == "delta" and rec.parent_sha256 != self.last_body_sha:
            raise ReplicationError(
                f"generation {rec.seq} binds to parent "
                f"{rec.parent_sha256[:16]}..., standby chain head is "
                f"{self.last_body_sha[:16] or '(none)'}..."
            )
        self._splice(rec)
        self._ack(conn, rec.seq)

    def _ack(self, conn, seq: int) -> None:
        wire.send_frame(
            conn, wire.OP_ACK, wire.encode_ack(seq, self.applied_seq)
        )

    # -- splicing ----------------------------------------------------------

    def _splice(self, rec: GenRecord) -> None:
        """Commit the generation locally and fold it into the resident VM.

        One decision (:meth:`_plan`): a generation the held image can
        take — a delta, or a full that keeps the layout — is folded in
        place; anything else restores afresh, a full from the bytes
        received and a delta from the local chain.  The arriving file is
        verified before anything is written; the local commit uses the
        same journal/rotate/rename protocol as the primary's checkpoint,
        so the standby's chain is itself crash-consistent; apply happens
        *before* the ack — the output rule depends on it.  A generation
        that cannot be committed or applied leaves the standby where it
        was.
        """
        snap, reason = self._plan(rec)
        full = snap.delta is None
        # Never rotate away a generation the new head still needs.
        keep = max(self.retain, rec.chain_depth)
        try:
            atomic_commit(self.chain_path, rec.data, retain=keep)
        except CheckpointError as e:
            raise ReplicationError(
                f"standby could not commit generation {rec.seq}: {e}"
            ) from e
        _drop_generations_past(self.chain_path, keep)
        with self._lock:
            if self.promoted_event.is_set():
                raise ReplicationError(
                    f"generation {rec.seq} arrived after promotion"
                )
            if not reason:
                try:
                    self.image.apply(snap)
                except Exception:
                    # Whatever stopped it, the resident VM is torn and
                    # must not be acked or promoted; its chain is whole.
                    self.resident_vm = self.image = None
                    reason = "apply-failed"
            del snap
            if reason:
                self._rebuild(rec, full)
                self.rebuilt += 1
                self.last_rebuild_reason = reason
                REPLICATION.generations_rebuilt += 1
                REPLICATION.last_rebuild_reason = reason
            else:
                self.applied_in_place += 1
                REPLICATION.generations_applied_in_place += 1
            self.prefill = rec.stdout
            self.applied_seq = rec.seq
            self.applied_instructions = rec.instructions
            self.last_body_sha = rec.body_sha256
        REPLICATION.generations_applied += 1

    def _plan(self, rec: GenRecord) -> tuple[VMSnapshot, str]:
        """Verify ``rec``'s file; return it parsed, with ``""`` to fold
        it in place or why it must be restored instead."""
        try:
            snap = read_generation(rec.data)
            if self.image is None:
                if self.config is not None and self.config.lazy_restore:
                    return snap, "lazy"
                return snap, "full" if snap.delta is None else "no-image"
            if rec.chain_depth > MAX_DELTA_CHAIN:
                return snap, "depth"  # the restore refuses it, loudly
            return snap, self.image.fold_reason(snap)
        except RestartError as e:
            raise ReplicationError(
                f"generation {rec.seq} failed to splice: {e}"
            ) from e

    def _rebuild(self, rec: GenRecord, full: bool) -> None:
        """Restore a new resident VM and image: a full from the bytes
        received, a delta from the local chain.  The image being
        replaced goes first; its VM stays promotable until the new one
        exists."""
        self.image = None
        source = (
            [ChainLink(self.chain_path, rec.data)] if full
            else self.chain_path
        )
        try:
            vm, stats = restart_vm(
                self.platform, self.code, source, self.config
            )
        except RestartError as e:
            raise ReplicationError(
                f"generation {rec.seq} failed to splice: {e}"
            ) from e
        self.resident_vm = vm
        self.image = stats.image

    # -- failure detection and promotion -----------------------------------

    def _suspect(self, reason: str) -> None:
        if not self.suspect_event.is_set():
            self.suspicion_reason = reason
        self.suspect_event.set()
        if self.auto_promote and not self.promoted_event.is_set():
            try:
                self.promote()
            except (LeaseLostError, ReplicationError):
                # Someone else leads (or no lease is configured): we
                # stay a standby and keep listening.
                pass

    def promote(self) -> VirtualMachine:
        """Acquire epoch+1 and hand over the resident VM.

        Only the lease can say yes: a standby whose claim loses (another
        node already took a higher epoch) raises
        :class:`~repro.errors.LeaseLostError` and must stay down.  The
        un-acked tail is applied first — under the synchronous apply
        discipline it is always empty, making takeover O(lease claim):
        one ``CLAIM`` that the lease's owner shard decides atomically,
        expecting the epoch observed when the primary said HELLO, on
        the connection opened then.  A valid claim is the newest epoch
        when it commits, so it is its own fencing probe.  It touches
        only the lease's records, so the cost does not depend on what
        else the store holds.  See :meth:`_claim` for an observation
        that went stale and a standby that has none.
        """
        if self.lease is None:
            raise ReplicationError("no lease configured; cannot promote")
        with self._lock:
            if self.resident_vm is None:
                raise ReplicationError(
                    "nothing replicated yet; cold-start instead"
                )
        t0 = time.perf_counter()
        with self._lease_lock:
            before = self.lease.client.exchanges
            self.epoch = self.lease_observed = self._claim()
            self.takeover_exchanges = self.lease.client.exchanges - before
        self.takeover_seconds = time.perf_counter() - t0
        REPLICATION.promotions += 1
        with self._lock:
            # Under the lock: no generation is half-folded into the VM
            # being handed over, and none will be folded into it later.
            self.promoted_event.set()
            self.image = None
            vm = self.resident_vm
            vm.channels.prefill_stdout(self.prefill)
        return vm

    def _claim(self) -> int:
        """One ``CLAIM`` expecting the observed epoch.  A stale
        observation loses, and the losing answer names the head it lost
        to — the read a read-then-claim would have made — so the second
        claim expects that: the same winner, at the price of one losing
        record in the history.  Unobserved, read first."""
        if self.lease_observed is None:
            return self.lease.claim(expected=self.lease.read().epoch)
        try:
            return self.lease.claim(expected=self.lease_observed)
        except LeaseLostError as lost:
            return self.lease.claim(expected=lost.epoch)

    # -- introspection -----------------------------------------------------

    def await_suspect(self, timeout: float) -> bool:
        return self.suspect_event.wait(timeout)

    def await_promoted(self, timeout: float) -> bool:
        return self.promoted_event.wait(timeout)

    def describe(self) -> dict:
        with self._lock:
            return {
                "node": self.node_id,
                "platform": self.platform.name,
                "applied_seq": self.applied_seq,
                "applied_instructions": self.applied_instructions,
                "applied_in_place": self.applied_in_place,
                "rebuilt": self.rebuilt,
                "last_rebuild_reason": self.last_rebuild_reason,
                "chain_head_sha": self.last_body_sha,
                "primary": self.primary_node,
                "suspect": self.suspect_event.is_set(),
                "suspicion_reason": self.suspicion_reason,
                "promoted": self.promoted_event.is_set(),
                "epoch": self.epoch,
                "lease_observed": self.lease_observed,
                "takeover_seconds": self.takeover_seconds,
                "takeover_exchanges": self.takeover_exchanges,
            }


def _drop_generations_past(path: str, keep: int) -> None:
    """Unlink ``path.N`` for ``N > keep``: what a deeper chain left
    behind once the head no longer needs it."""
    n = keep + 1
    try:
        while os.path.exists(f"{path}.{n}"):
            os.unlink(f"{path}.{n}")
            n += 1
    except OSError:
        pass  # a leftover file costs space, not correctness
