"""The store daemon: one selectors event loop, many connections.

At fleet scale — hundreds of supervisors holding persistent sockets — a
thread per connection is hundreds of mostly-idle threads.
:class:`FleetNode` multiplexes every connection on one ``selectors``
loop instead: non-blocking sockets, per-connection in/out byte buffers,
frames popped incrementally by :func:`~repro.store.fleet.wire.pop_frame`.
The store work itself is byte-shuffling and hashing, so one loop thread
keeps up with many clients and the accept path never queues behind a
slow handler.  A single-node store is this same daemon as a 1-shard
fleet.

Opcode semantics (and follower replication) are the
:class:`~repro.store.server.StoreOpHandlers` this class extends; this
module adds only the RSTP/2 connection-layer ops:

- ``HELLO``    — version negotiation (one round trip);
- ``BATCH``    — run each sub-operation through the shared dispatch,
  answer one OK frame whose payload carries per-sub-op results;
- ``GET_MANY`` — queue one ``CHUNK`` frame per present key, then one
  ``END`` frame naming the missing ones.

Responses are framed with the *request's* wire revision, so a raw
revision-1 peer that never says ``HELLO`` sees pure revision-1 traffic.
"""

from __future__ import annotations

import selectors
import socket
import threading
from typing import Optional

from repro.errors import StoreError, StoreProtocolError
from repro.store import protocol as P
from repro.store.chunkstore import ChunkStore
from repro.store.fleet import wire as W
from repro.store.server import StoreOpHandlers

#: recv() size per readable event.
_RECV_SIZE = 256 * 1024


class _Conn:
    """One multiplexed client connection."""

    __slots__ = ("sock", "inbuf", "outbuf")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()


class FleetNode(StoreOpHandlers):
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
        super().__init__(
            store,
            node_id=node_id,
            replicas=replicas,
            heartbeat_misses=heartbeat_misses,
        )
        self.heartbeat_interval = heartbeat_interval
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
        self.connections_accepted = 0

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
        events = selectors.EVENT_READ
        if conn.outbuf:
            events |= selectors.EVENT_WRITE
        try:
            self._sel.modify(conn.sock, events, conn)
        except (KeyError, ValueError):
            pass

    def _readable(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(_RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            self._drop(conn.sock)
            return
        if not data:
            self._drop(conn.sock)
            return
        conn.inbuf += data
        while True:
            try:
                frame = W.pop_frame(conn.inbuf)
            except StoreProtocolError:
                # Garbage framing: drop the connection.
                self._drop(conn.sock)
                return
            if frame is None:
                break
            wire_rev, op, payload = frame
            self._handle(conn, wire_rev, op, payload)
        self._interest(conn)

    def _writable(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.outbuf)
        except BlockingIOError:
            return
        except OSError:
            self._drop(conn.sock)
            return
        del conn.outbuf[:sent]
        self._interest(conn)

    # -- request handling --------------------------------------------------

    def _send(self, conn: _Conn, wire_rev: int, op: int, payload: bytes) -> None:
        conn.outbuf += P.encode_frame(op, payload, wire_rev)

    def _handle(
        self, conn: _Conn, wire_rev: int, op: int, payload: bytes
    ) -> None:
        try:
            if op == P.OP_HELLO:
                self._op_hello(conn, wire_rev, payload)
            elif op == P.OP_GET_MANY:
                self._op_get_many(conn, wire_rev, payload)
            elif op == P.OP_BATCH:
                self._op_batch(conn, wire_rev, payload)
            else:
                rop, rpayload = self.dispatch(op, payload)
                self._send(conn, wire_rev, rop, rpayload)
        except Exception as e:  # never let a handler kill the loop
            self._send(conn, wire_rev, P.OP_ERR, W.error_payload(e))

    def _op_hello(self, conn: _Conn, wire_rev: int, payload: bytes) -> None:
        req = P.decode_json(payload) if payload else {}
        try:
            client_max = int(req.get("max_version", P.VERSION))
        except (TypeError, ValueError) as e:
            raise StoreProtocolError(f"malformed HELLO: {e}") from e
        agreed = min(client_max, P.RSTP2)
        if agreed not in P.SUPPORTED_VERSIONS:
            agreed = P.VERSION
        self.hellos += 1
        self.requests_served += 1
        self._send(
            conn,
            wire_rev,
            P.OP_OK,
            P.encode_json(
                {
                    "version": agreed,
                    "node_id": self.node_id,
                    "epoch": self.store.epoch,
                }
            ),
        )

    def _op_batch(self, conn: _Conn, wire_rev: int, payload: bytes) -> None:
        items = W.decode_ops(payload)
        results: list[tuple[int, bytes]] = []
        for sub_op, sub_payload in items:
            if sub_op in (P.OP_BATCH, P.OP_GET_MANY, P.OP_HELLO):
                # No nesting, no streams inside a single-frame answer.
                results.append(
                    (
                        P.OP_ERR,
                        W.error_payload(
                            StoreProtocolError(
                                f"opcode {P.OP_NAMES.get(sub_op, sub_op)} "
                                f"not allowed inside BATCH"
                            )
                        ),
                    )
                )
                continue
            try:
                results.append(self.dispatch(sub_op, sub_payload))
            except Exception as e:  # one bad sub-op must not fail the batch
                results.append((P.OP_ERR, W.error_payload(e)))
        self.batches_handled += 1
        self.batched_ops_handled += len(items)
        self._send(conn, wire_rev, P.OP_OK, W.encode_ops(results))

    def _op_get_many(self, conn: _Conn, wire_rev: int, payload: bytes) -> None:
        if len(payload) % 32:
            raise StoreProtocolError("GET_MANY payload is not whole digests")
        keys = [payload[i : i + 32] for i in range(0, len(payload), 32)]
        if len(keys) > W.MAX_GET_MANY:
            raise StoreProtocolError(
                f"GET_MANY of {len(keys)} exceeds MAX_GET_MANY "
                f"({W.MAX_GET_MANY})"
            )
        self.requests_served += 1
        missing: list[str] = []
        sentc = 0
        for key_raw in keys:
            key = key_raw.hex()
            try:
                data = self.store.get_object(key)
            except StoreError:
                missing.append(key)
                continue
            self._send(
                conn, wire_rev, P.OP_CHUNK, P.encode_chunk(key_raw, data)
            )
            sentc += 1
        self.chunks_streamed += sentc
        self._send(
            conn,
            wire_rev,
            P.OP_END,
            P.encode_json({"count": sentc, "missing": missing}),
        )
