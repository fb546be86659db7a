"""The store daemon's operations: every RSTP op, plus follower replication.

:class:`StoreOpHandlers` answers every store operation against one
:class:`~repro.store.chunkstore.ChunkStore`, transport-free, in the
spirit of "checkpointing as a service": workload VMs push periodic
checkpoints here, restart supervisors pull the latest manifest from
here.  The one daemon — the selectors-based
:class:`~repro.store.fleet.aserver.FleetNode` — is these handlers behind
an event loop.

Replication
-----------

The daemon can be given N follower stores (other daemons' addresses).
Replication is manifest-granular and self-healing: when a manifest
commits locally, the primary asks each *live* follower which referenced
chunks it is missing, streams exactly those over, then commits the same
manifest (same generation number) there.  A follower that was down and
comes back is therefore fully caught up by the next checkpoint that
lands — content addressing makes re-sends idempotent and cheap.

The ``PUT_MANIFEST`` reply is sent only after every live follower has
the generation, so replication runs inside the commit, on the daemon's
loop thread: while it ships, the daemon serves nobody else.  The stall
is bounded by the follower client's budget (2 s connect, 10 s I/O, one
retry) and a follower the heartbeat has marked dead is skipped outright.
Follower topologies must be acyclic — a daemon that replicated back to
its own primary would wait on a loop thread that is waiting on it.

Liveness is tracked by heartbeats: a background thread pings every
follower each ``heartbeat_interval`` seconds; ``heartbeat_misses``
consecutive failures mark it dead (skipped by replication), one
successful ping revives it.  Dead followers keep being probed by the
same loop, and the probe that revives one immediately replays every
vm/generation it missed while it was out — a follower that was dead
across quiet vms does not stay stale until those vms happen to commit
again.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import StoreError, StoreProtocolError
from repro.store import protocol as P
from repro.store.chunkstore import ChunkStore, Manifest, chunk_key


@dataclass
class FollowerState:
    """Liveness bookkeeping for one replication target."""

    host: str
    port: int
    alive: bool = True
    consecutive_failures: int = 0
    #: ``time.monotonic()`` of the last successful ping — monotonic on
    #: purpose: liveness must not move when NTP steps the wall clock
    #: (a backwards step would otherwise "age" a healthy follower, a
    #: forwards step would make a dead one look freshly seen).  0.0
    #: means never.
    last_ok: float = 0.0
    last_error: str = ""
    manifests_replicated: int = 0
    chunks_replicated: int = 0
    #: Pings sent to this follower while it was marked dead.
    reprobes: int = 0
    #: Dead->alive transitions that triggered a full catch-up replay.
    catchups: int = 0

    @property
    def addr(self) -> str:
        return f"{self.host}:{self.port}"

    def seen_ago(self) -> Optional[float]:
        """Seconds since the last successful ping (None if never).

        Computed against the monotonic clock, so a wall-clock step
        (NTP, manual ``date``) cannot make a live follower look stale
        or a dead one look fresh.
        """
        if self.last_ok == 0.0:
            return None
        return max(0.0, time.monotonic() - self.last_ok)

    def describe(self) -> dict:
        return {
            "addr": self.addr,
            "alive": self.alive,
            "consecutive_failures": self.consecutive_failures,
            "last_ok_age_seconds": self.seen_ago(),
            "last_error": self.last_error,
            "manifests_replicated": self.manifests_replicated,
            "chunks_replicated": self.chunks_replicated,
            "reprobes": self.reprobes,
            "catchups": self.catchups,
        }


class StoreOpHandlers:
    """Every RSTP operation against one chunk store, transport-free.

    A handler returns ``(opcode, payload)`` for the single response
    frame.  The connection-layer ops (``HELLO``/``BATCH``/``GET_MANY``)
    are *not* here: they are about framing, and the daemon's event loop
    answers them, keeping their counters on this object.
    """

    def __init__(
        self,
        store: ChunkStore,
        node_id: Optional[str] = None,
        replicas: list[tuple[str, int]] | None = None,
        heartbeat_misses: int = 3,
    ) -> None:
        self.store = store
        self.node_id = node_id
        self.followers = [FollowerState(h, p) for h, p in (replicas or [])]
        self.heartbeat_misses = heartbeat_misses
        self.replication_failures = 0
        self._commit_lock = threading.Lock()
        self._started = time.monotonic()
        self.requests_served = 0
        self.batches_handled = 0
        self.batched_ops_handled = 0
        self.chunks_streamed = 0
        self.hellos = 0
        self._dispatch = {
            P.OP_PING: self._op_ping,
            P.OP_HAS_CHUNK: self._op_has_chunk,
            P.OP_HAS_MANY: self._op_has_many,
            P.OP_PUT_CHUNK: self._op_put_chunk,
            P.OP_GET_CHUNK: self._op_get_chunk,
            P.OP_PUT_MANIFEST: self._op_put_manifest,
            P.OP_GET_MANIFEST: self._op_get_manifest,
            P.OP_LS: self._op_ls,
            P.OP_GC: self._op_gc,
            P.OP_STAT: self._op_stat,
            P.OP_AUDIT: self._op_audit,
            P.OP_EPOCH: self._op_epoch,
            P.OP_DEL_MANIFEST: self._op_del_manifest,
            P.OP_SWEEP: self._op_sweep,
        }

    # -- request dispatch --------------------------------------------------

    def dispatch(self, op: int, payload: bytes) -> tuple[int, bytes]:
        handler = self._dispatch.get(op)
        if handler is None:
            raise StoreProtocolError(f"unknown opcode 0x{op:02x}")
        self.requests_served += 1
        return handler(payload)

    def _op_ping(self, _payload: bytes) -> tuple[int, bytes]:
        return P.OP_OK, b"pong"

    @staticmethod
    def _digest(payload: bytes) -> str:
        if len(payload) != 32:
            raise StoreProtocolError("expected a 32-byte chunk digest")
        return payload.hex()

    @staticmethod
    def _digests(payload: bytes, what: str) -> list[str]:
        if len(payload) % 32:
            raise StoreProtocolError(f"{what} payload is not whole digests")
        return [payload[i : i + 32].hex() for i in range(0, len(payload), 32)]

    def _op_has_chunk(self, payload: bytes) -> tuple[int, bytes]:
        key = self._digest(payload)
        return P.OP_OK, bytes([1 if self.store.has_object(key) else 0])

    def _op_has_many(self, payload: bytes) -> tuple[int, bytes]:
        out = bytearray()
        for key in self._digests(payload, "HAS_MANY"):
            out.append(1 if self.store.has_object(key) else 0)
        return P.OP_OK, bytes(out)

    def _op_put_chunk(self, payload: bytes) -> tuple[int, bytes]:
        key_raw, data = P.decode_chunk(payload)
        if chunk_key(data) != key_raw.hex():
            raise StoreProtocolError(
                "chunk content does not match its declared digest"
            )
        _, was_new = self.store.put_object(data)
        return P.OP_OK, bytes([1 if was_new else 0])

    def _op_get_chunk(self, payload: bytes) -> tuple[int, bytes]:
        key = self._digest(payload)
        data = self.store.get_object(key)
        return P.OP_OK, P.encode_chunk(payload, data)

    def _op_put_manifest(self, payload: bytes) -> tuple[int, bytes]:
        req = P.decode_json(payload)
        try:
            vm_id = req["vm_id"]
            chunks = list(req["chunks"])
            payload_len = int(req["payload_len"])
            payload_sha256 = req["payload_sha256"]
        except (KeyError, TypeError, ValueError) as e:
            raise StoreProtocolError(f"malformed PUT_MANIFEST: {e}") from e
        with self._commit_lock:
            manifest = self.store.commit_manifest(
                vm_id,
                chunks,
                payload_len=payload_len,
                payload_sha256=payload_sha256,
                meta=req.get("meta"),
                chunk_size=req.get("chunk_size"),
                generation=req.get("generation"),
                verify_chunks=bool(req.get("check_chunks", True)),
            )
        self._replicate(manifest)
        return P.OP_OK, P.encode_json({"generation": manifest.generation})

    def _op_get_manifest(self, payload: bytes) -> tuple[int, bytes]:
        req = P.decode_json(payload)
        manifest = self.store.read_manifest(
            req["vm_id"], req.get("generation")
        )
        return P.OP_OK, manifest.to_json().encode()

    def _op_ls(self, _payload: bytes) -> tuple[int, bytes]:
        return P.OP_OK, P.encode_json(self.store.ls())

    def _op_gc(self, _payload: bytes) -> tuple[int, bytes]:
        return P.OP_OK, P.encode_json(self.store.gc())

    def _op_stat(self, _payload: bytes) -> tuple[int, bytes]:
        return P.OP_OK, P.encode_json(self.stats())

    def _op_audit(self, payload: bytes) -> tuple[int, bytes]:
        req = P.decode_json(payload) if payload else {}
        return P.OP_OK, P.encode_json(
            self.store.audit(
                deep=bool(req.get("deep")),
                check_refs=bool(req.get("check_refs", True)),
            )
        )

    def _op_epoch(self, _payload: bytes) -> tuple[int, bytes]:
        return P.OP_OK, P.encode_json({"epoch": self.store.epoch})

    def _op_del_manifest(self, payload: bytes) -> tuple[int, bytes]:
        req = P.decode_json(payload)
        try:
            vm_id = req["vm_id"]
            generation = int(req["generation"])
        except (KeyError, TypeError, ValueError) as e:
            raise StoreProtocolError(f"malformed DEL_MANIFEST: {e}") from e
        with self._commit_lock:
            deleted = self.store.delete_manifest(vm_id, generation)
        return P.OP_OK, P.encode_json({"deleted": deleted})

    def _op_sweep(self, payload: bytes) -> tuple[int, bytes]:
        keep = set(self._digests(payload, "SWEEP"))
        with self._commit_lock:
            report = self.store.sweep_keep(keep)
        return P.OP_OK, P.encode_json(report)

    def stats(self) -> dict:
        out = {
            "uptime": time.monotonic() - self._started,
            "requests_served": self.requests_served,
            "objects": sum(1 for _ in self.store.iter_objects()),
            "vms": self.store.vm_ids(),
            "epoch": self.store.epoch,
            "batches_handled": self.batches_handled,
            "batched_ops_handled": self.batched_ops_handled,
            "chunks_streamed": self.chunks_streamed,
            "hellos": self.hellos,
            "followers": [f.describe() for f in self.followers],
            "replication_failures": self.replication_failures,
        }
        if self.node_id is not None:
            out["node_id"] = self.node_id
        return out

    # -- replication -------------------------------------------------------

    def _follower_client(self, follower: FollowerState):
        from repro.store.client import StoreClient

        # Replication retries little: the heartbeat loop owns failure
        # detection, and this budget bounds how long a slow follower can
        # stall the loop thread (see the module docstring).
        return StoreClient(
            follower.host, follower.port,
            connect_timeout=2.0, io_timeout=10.0, retries=1, backoff=0.05,
        )

    def _replicate(self, manifest: Manifest) -> None:
        for follower in self.followers:
            if not follower.alive:
                continue
            try:
                with self._follower_client(follower) as client:
                    # Ship every generation of this VM the follower lacks,
                    # not just the one that triggered us — this is what
                    # catches a recovered follower fully up.
                    self._ship_missing(
                        client, follower, client.ls(), manifest.vm_id
                    )
            except StoreError as e:
                self.replication_failures += 1
                self._mark_failure(follower, e)

    def _ship_missing(
        self, client, follower: FollowerState, listing: dict, vm_id: str
    ) -> None:
        """Replicate each generation of ``vm_id`` absent from ``listing``."""
        have = {
            g["generation"] for g in listing.get("vms", {}).get(vm_id, [])
        }
        for gen in self.store.generations(vm_id):
            if gen not in have:
                self._replicate_one(
                    client, follower, self.store.read_manifest(vm_id, gen)
                )

    def _replicate_one(self, client, follower: FollowerState,
                       manifest: Manifest) -> None:
        keys = list(manifest.chunks)
        present = client.has_many(keys)
        for key, have in zip(keys, present):
            if have:
                continue
            client.put_chunk(self.store.get_object(key))
            follower.chunks_replicated += 1
        client.put_manifest(
            manifest.vm_id,
            keys,
            payload_len=manifest.payload_len,
            payload_sha256=manifest.payload_sha256,
            meta=manifest.meta,
            chunk_size=manifest.chunk_size,
            generation=manifest.generation,
        )
        follower.manifests_replicated += 1

    def _catch_up(self, follower: FollowerState) -> None:
        """Replay everything a just-revived follower missed.

        The commit-path replication only covers the vm being committed;
        a follower that died and came back while other vms were quiet
        would stay stale for those vms until they next commit.  Run the
        same ls-diff/ship loop over *every* vm instead, right when the
        heartbeat revives the follower.
        """
        with self._follower_client(follower) as client:
            listing = client.ls()
            for vm_id in self.store.vm_ids():
                self._ship_missing(client, follower, listing, vm_id)

    # -- heartbeats --------------------------------------------------------

    def _mark_failure(self, follower: FollowerState, error: Exception) -> None:
        follower.consecutive_failures += 1
        follower.last_error = str(error)
        if follower.consecutive_failures >= self.heartbeat_misses:
            follower.alive = False

    def heartbeat_once(self) -> None:
        """Ping every follower once, updating liveness.

        A dead follower is re-probed on the same cadence; the ping that
        revives it triggers a full catch-up so it rejoins replication
        with no generations missing.
        """
        for follower in self.followers:
            was_dead = not follower.alive
            if was_dead:
                follower.reprobes += 1
            try:
                with self._follower_client(follower) as client:
                    client.ping()
                if was_dead:
                    follower.catchups += 1
                    try:
                        self._catch_up(follower)
                    except StoreError as e:
                        self.replication_failures += 1
                        self._mark_failure(follower, e)
                        continue
                follower.alive = True
                follower.consecutive_failures = 0
                follower.last_ok = time.monotonic()
                follower.last_error = ""
            except StoreError as e:
                self._mark_failure(follower, e)
