"""The store daemon: every RSTP op behind one selectors event loop.

:class:`FleetNode` answers every store operation against one
:class:`~repro.store.chunkstore.ChunkStore`, in the spirit of
"checkpointing as a service": workload VMs push periodic checkpoints
here, restart supervisors pull the latest manifest from here.

At fleet scale — hundreds of supervisors holding persistent sockets — a
thread per connection is hundreds of mostly-idle threads.  The daemon
multiplexes every connection on one ``selectors`` loop instead:
non-blocking sockets, frames assembled incrementally by a
:class:`~repro.net.FrameBuffer` (a big one read in place, never copied),
a per-connection output buffer.  The store work itself is
byte-shuffling and hashing, so one loop thread keeps up with many
clients and the accept path never queues behind a slow handler.  A
single-node store is this same daemon as a 1-shard fleet.

Every opcode is one entry of one table.  A handler returns the frames
of its answer — each ``(opcode, *payload parts)``, copied once, into
the output buffer: one ``OK`` for most, and for the connection-layer ops

- ``HELLO``    — the handshake: this node's identity and epoch;
- ``BATCH``    — each sub-operation through the same table (a chunk put
  hashes and compresses its slice of the request in place), one ``OK``
  frame whose payload carries the per-sub-op results;
- ``GET_MANY`` — one ``CHUNK`` frame per present key, then one ``END``
  frame naming the missing ones.

An answer is *pumped*: its frames move to the output buffer only while
that holds less than ``_WATERMARK`` bytes, and a connection's later
requests wait, unread, until its answer in progress is out — so a
``GET_MANY`` of hundreds of chunks costs the daemon one watermark, not
the whole answer.

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

A fleet shard holds only the chunks the ring gives it, so it can ship
a manifest whole only when it holds every chunk its follower lacks.  A
manifest it cannot is skipped — counted in ``replication_skips``, the
last reason in ``last_replication_skip`` — and is not the follower's
failure: the follower stays alive and keeps receiving what the shard
can ship.

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

import selectors
import socket
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.errors import StoreError, StoreProtocolError
from repro.net import FrameBuffer
from repro.store import protocol as P
from repro.store.chunkstore import ChunkStore, Manifest, chunk_key
from repro.store.client import StoreClient

#: Output-buffer level below which an answer in progress is pumped on.
_WATERMARK = 512 * 1024

#: Ops a BATCH may not carry: no nesting, no streams inside a
#: single-frame answer, no handshake mid-connection.
_NOT_BATCHABLE = (P.OP_BATCH, P.OP_GET_MANY, P.OP_HELLO)

#: One response frame: ``(opcode, *payload parts)``.
Frame = tuple


def _ok(payload: bytes = b"") -> list[Frame]:
    return [(P.OP_OK, payload)]


def _ok_json(obj) -> list[Frame]:
    return _ok(P.encode_json(obj))


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


class _Conn:
    """One multiplexed client connection."""

    __slots__ = ("sock", "frames", "outbuf", "answer")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.frames = FrameBuffer(P.CODEC)
        self.outbuf = bytearray()
        #: The frames of the answer being pumped, while it lasts.
        self.answer: Optional[Iterator[Frame]] = None


class FleetNode:
    """The daemon: a chunk store behind a selectors event loop."""

    def __init__(
        self,
        store: ChunkStore,
        host: str = "127.0.0.1",
        port: int = 0,
        node_id: Optional[str] = None,
        replicas: list[tuple[str, int]] | None = None,
        heartbeat_interval: float = 2.0,
        heartbeat_misses: int = 3,
    ) -> None:
        self.store = store
        self.node_id = node_id
        self.followers = [FollowerState(h, p) for h, p in (replicas or [])]
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self.replication_failures = 0
        #: Manifests not shipped because chunks the follower lacks live
        #: on other shards, and why the last one was.
        self.replication_skips = 0
        self.last_replication_skip = ""
        self._commit_lock = threading.Lock()
        self._started = time.monotonic()
        self.requests_served = 0
        self.batches_handled = 0
        self.batched_ops_handled = 0
        self.chunks_streamed = 0
        self.hellos = 0
        self.connections_accepted = 0
        self._ops = {
            P.OP_PING: self._op_ping,
            P.OP_HAS_MANY: self._op_has_many,
            P.OP_PUT_CHUNK: self._op_put_chunk,
            P.OP_GET_CHUNK: self._op_get_chunk,
            P.OP_PUT_MANIFEST: self._op_put_manifest,
            P.OP_GET_MANIFEST: self._op_get_manifest,
            P.OP_LS: self._op_ls,
            P.OP_STAT: self._op_stat,
            P.OP_AUDIT: self._op_audit,
            P.OP_HELLO: self._op_hello,
            P.OP_BATCH: self._op_batch,
            P.OP_GET_MANY: self._op_get_many,
            P.OP_EPOCH: self._op_epoch,
            P.OP_DEL_MANIFEST: self._op_del_manifest,
            P.OP_SWEEP: self._op_sweep,
            P.OP_CLAIM: self._op_claim,
        }
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self._listener.setblocking(False)
        #: The bound (host, port) — concrete even if port 0 was asked,
        #: and still readable after :meth:`stop`.
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        # A socketpair wakes the select() so stop() does not have to
        # wait out the poll timeout.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._listener, selectors.EVENT_READ, "accept")
        self._sel.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._conns: dict[socket.socket, _Conn] = {}
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Run the event loop in a background thread; returns the address."""
        if self.followers:
            threading.Thread(
                target=self._heartbeat_loop, name="store-heartbeat", daemon=True
            ).start()
        self._thread = threading.Thread(
            target=self._loop, name="fleet-node", daemon=True
        )
        self._thread.start()
        return self.address

    def _heartbeat_loop(self) -> None:  # pragma: no cover - timing loop
        while not self._stopping.wait(self.heartbeat_interval):
            self.heartbeat_once()

    def stop(self) -> None:
        self._stopping.set()
        try:
            self._wake_w.send(b"x")
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        else:
            self._teardown()

    def _teardown(self) -> None:
        for sock in list(self._conns):
            self._drop(sock)
        for sock in (self._listener, self._wake_r, self._wake_w):
            try:
                self._sel.unregister(sock)
            except (KeyError, ValueError):
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._sel.close()

    # -- event loop --------------------------------------------------------

    def _loop(self) -> None:
        try:
            while not self._stopping.is_set():
                for key, mask in self._sel.select(timeout=0.5):
                    if key.data == "accept":
                        self._accept()
                    elif key.data == "wake":
                        try:
                            self._wake_r.recv(4096)
                        except OSError:
                            pass
                    else:
                        conn: _Conn = key.data
                        if mask & selectors.EVENT_READ:
                            self._readable(conn)
                        if (
                            conn.sock in self._conns
                            and mask & selectors.EVENT_WRITE
                        ):
                            self._writable(conn)
        finally:
            self._teardown()

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:  # BlockingIOError: the backlog is drained
                return
            sock.setblocking(False)
            # A pumped answer leaves in several writes: Nagle would hold
            # each tail back for the client's delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Conn(sock)
            self._conns[sock] = conn
            self._sel.register(sock, selectors.EVENT_READ, conn)
            self.connections_accepted += 1

    def _drop(self, sock: socket.socket) -> None:
        self._conns.pop(sock, None)
        try:
            self._sel.unregister(sock)
        except (KeyError, ValueError):
            pass
        try:
            sock.close()
        except OSError:
            pass

    def _interest(self, conn: _Conn) -> None:
        # While an answer is pumped its requester's next ones stay
        # unread (TCP backpressure), and the pump keeps outbuf filled.
        events = selectors.EVENT_READ if conn.answer is None else 0
        if conn.outbuf:
            events |= selectors.EVENT_WRITE
        try:
            self._sel.modify(conn.sock, events, conn)
        except (KeyError, ValueError):
            pass

    def _readable(self, conn: _Conn) -> None:
        try:
            alive = conn.frames.fill(conn.sock)
        except BlockingIOError:
            return
        except OSError:
            alive = False
        if not alive:
            self._drop(conn.sock)
            return
        self._serve(conn)

    def _writable(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.outbuf)
        except BlockingIOError:
            return
        except OSError:
            self._drop(conn.sock)
            return
        del conn.outbuf[:sent]
        self._pump(conn)
        self._serve(conn)

    def _serve(self, conn: _Conn) -> None:
        """Answer each whole request received, in order, until one's
        answer is still being pumped: the rest wait for it."""
        while conn.answer is None:
            try:
                frame = conn.frames.pop()
            except StoreProtocolError:
                # Garbage framing: drop the connection.
                self._drop(conn.sock)
                return
            if frame is None:
                break
            self._handle(conn, *frame)
        self._interest(conn)

    # -- request dispatch --------------------------------------------------

    def _handle(self, conn: _Conn, op: int, payload: bytes) -> None:
        try:
            conn.answer = iter(self.dispatch(op, payload))
        except Exception as e:  # never let a handler kill the loop
            conn.answer = iter([(P.OP_ERR, P.error_payload(e))])
        self._pump(conn)

    def _pump(self, conn: _Conn) -> None:
        """Move the answer in progress into outbuf, each frame copied
        once, while outbuf is under the watermark."""
        while conn.answer is not None and len(conn.outbuf) < _WATERMARK:
            try:
                frame = next(conn.answer, None)
                if frame is None:
                    conn.answer = None
                    return
                op, *parts = frame
                head = P.CODEC.header(op, sum(map(len, parts)))
            except Exception as e:  # never let a handler kill the loop
                conn.answer = None
                op, parts = P.OP_ERR, [P.error_payload(e)]
                head = P.CODEC.header(op, len(parts[0]))
            conn.outbuf += head
            for part in parts:
                conn.outbuf += part

    def dispatch(self, op: int, payload: bytes) -> Iterable[Frame]:
        """The frames answering one request, through the one op table."""
        handler = self._ops.get(op)
        if handler is None:
            raise StoreProtocolError(f"unknown opcode 0x{op:02x}")
        self.requests_served += 1
        return handler(payload)

    def _op_ping(self, _payload: bytes) -> list[Frame]:
        return _ok(b"pong")

    def _op_hello(self, payload: bytes) -> list[Frame]:
        P.decode_request(P.OP_HELLO, payload)
        self.hellos += 1
        return _ok_json({"node_id": self.node_id, "epoch": self.store.epoch})

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

    def _op_has_many(self, payload: bytes) -> list[Frame]:
        out = bytearray()
        for key in self._digests(payload, "HAS_MANY"):
            out.append(1 if self.store.has_object(key) else 0)
        return _ok(bytes(out))

    def _op_put_chunk(self, payload: bytes) -> list[Frame]:
        key_raw, data = P.decode_chunk(payload)
        key = chunk_key(data)
        if key != key_raw.hex():
            raise StoreProtocolError(
                "chunk content does not match its declared digest"
            )
        _, was_new = self.store.put_object(data, key)
        return _ok(bytes([1 if was_new else 0]))

    def _op_get_chunk(self, payload: bytes) -> list[Frame]:
        key = self._digest(payload)
        return [
            (P.OP_OK, *P.chunk_parts(payload, self.store.get_object(key)))
        ]

    def _op_get_many(self, payload: bytes) -> Iterator[Frame]:
        """A generator: each chunk is read only when the pump asks."""
        keys = self._digests(payload, "GET_MANY")
        if len(keys) > P.MAX_GET_MANY:
            raise StoreProtocolError(
                f"GET_MANY of {len(keys)} exceeds MAX_GET_MANY "
                f"({P.MAX_GET_MANY})"
            )
        missing: list[str] = []
        for key in keys:
            try:
                data = self.store.get_object(key)
            except StoreError:
                missing.append(key)
                continue
            self.chunks_streamed += 1
            yield P.OP_CHUNK, *P.chunk_parts(bytes.fromhex(key), data)
        yield P.OP_END, P.encode_json(
            {"count": len(keys) - len(missing), "missing": missing}
        )

    def _op_batch(self, payload: bytes) -> list[Frame]:
        items = P.decode_ops(payload)
        results: list[Frame] = []
        for sub_op, sub_payload in items:
            try:
                if sub_op in _NOT_BATCHABLE:
                    raise StoreProtocolError(
                        f"opcode {P.OP_NAMES[sub_op]} not allowed inside BATCH"
                    )
                results.extend(self.dispatch(sub_op, sub_payload))
            except Exception as e:  # one bad sub-op must not fail the batch
                results.append((P.OP_ERR, P.error_payload(e)))
        self.batches_handled += 1
        self.batched_ops_handled += len(items)
        return [(P.OP_OK, *P.batch_parts(results))]

    def _op_put_manifest(self, payload: bytes) -> list[Frame]:
        req = P.decode_request(
            P.OP_PUT_MANIFEST, payload,
            vm_id=str, chunks=list, payload_len=int, payload_sha256=str,
        )
        with self._commit_lock:
            manifest = self.store.commit_manifest(
                req["vm_id"],
                req["chunks"],
                payload_len=req["payload_len"],
                payload_sha256=req["payload_sha256"],
                meta=req.get("meta"),
                chunk_size=req.get("chunk_size"),
                generation=req.get("generation"),
                verify_chunks=bool(req.get("check_chunks", True)),
            )
        self._replicate(manifest)
        return _ok_json({"generation": manifest.generation})

    def _op_claim(self, payload: bytes) -> list[Frame]:
        req = P.decode_request(
            P.OP_CLAIM, payload, lease_id=str, holder=str, expected=int
        )
        if req["expected"] < 0:
            raise StoreProtocolError("malformed CLAIM: 'expected' must be >= 0")
        with self._commit_lock:
            answer, record = self.store.claim(
                req["lease_id"], req["holder"], req["expected"]
            )
        self._replicate(record)
        return _ok_json(answer)

    def _op_get_manifest(self, payload: bytes) -> list[Frame]:
        req = P.decode_request(P.OP_GET_MANIFEST, payload, vm_id=str)
        return _ok(
            self.store.read_manifest_bytes(req["vm_id"], req.get("generation"))
        )

    def _op_ls(self, payload: bytes) -> list[Frame]:
        req = P.decode_request(P.OP_LS, payload, optional={"vm_id": str})
        return _ok_json(self.store.ls(req.get("vm_id")))

    def _op_stat(self, _payload: bytes) -> list[Frame]:
        return _ok_json(self.stats())

    def _op_audit(self, payload: bytes) -> list[Frame]:
        req = P.decode_request(P.OP_AUDIT, payload)
        return _ok_json(
            self.store.audit(
                deep=bool(req.get("deep")),
                check_refs=bool(req.get("check_refs", True)),
            )
        )

    def _op_epoch(self, _payload: bytes) -> list[Frame]:
        return _ok_json({"epoch": self.store.epoch})

    def _op_del_manifest(self, payload: bytes) -> list[Frame]:
        req = P.decode_request(
            P.OP_DEL_MANIFEST, payload, vm_id=str, generation=int
        )
        with self._commit_lock:
            deleted = self.store.delete_manifest(
                req["vm_id"], req["generation"]
            )
        return _ok_json({"deleted": deleted})

    def _op_sweep(self, payload: bytes) -> list[Frame]:
        keep = set(self._digests(payload, "SWEEP"))
        with self._commit_lock:
            report = self.store.sweep_keep(keep)
        return _ok_json(report)

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
            "replication_skips": self.replication_skips,
            "last_replication_skip": self.last_replication_skip,
        }
        if self.node_id is not None:
            out["node_id"] = self.node_id
        return out

    # -- replication -------------------------------------------------------

    def _follower_client(self, follower: FollowerState) -> StoreClient:
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
                    # catches a recovered follower fully up.  Only this
                    # VM is listed: a commit must not cost the follower
                    # a read of its whole store.
                    vm_id = manifest.vm_id
                    self._ship_missing(
                        client, follower, client.ls(vm_id), vm_id
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
        lacking = [key for key, have in zip(keys, present) if not have]
        elsewhere = {k for k in lacking if not self.store.has_object(k)}
        if elsewhere:
            self.replication_skips += 1
            self.last_replication_skip = (
                f"vm {manifest.vm_id!r} gen {manifest.generation}: "
                f"{len(elsewhere)} chunk(s) the follower lacks live on "
                f"other shards"
            )
            return
        for key in lacking:
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
