"""The per-node store client.

One persistent TCP connection to one store daemon, re-established
transparently when it drops.  Every connection opens with a ``HELLO``
handshake; every request then goes through the one retry loop
(:class:`repro.net.RetryPolicy`: bounded attempts, full-jitter
exponential backoff) on transport failure.  Application errors reported
by the daemon (``ERR`` frames) are *not* retried — they are re-raised as
the matching :class:`~repro.errors.StoreError` subclass.

Retried uploads are safe end to end: chunk puts are content-addressed
(idempotent by construction) and a manifest commit of an unchanged
payload returns the existing generation instead of minting a new one.

This class speaks to exactly one node.  Whole checkpoints — chunking,
dedup, routing, verification — are the job of
:class:`~repro.store.fleet.client.FleetClient`, which holds one of these
per shard (a single-node store is a 1-shard fleet).
"""

from __future__ import annotations

import socket
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from repro.errors import (
    StoreConnectionError,
    StoreError,
    StoreIntegrityError,
    StoreNotFoundError,
    StoreProtocolError,
)
from repro.metrics import FLEET, STORE
from repro.net import RetryPolicy
from repro.store import protocol as P
from repro.store.chunkstore import DEFAULT_CHUNK_SIZE, Manifest, chunk_key

T = TypeVar("T")

_ERROR_CLASSES = {
    "StoreError": StoreError,
    "StoreIntegrityError": StoreIntegrityError,
    "StoreProtocolError": StoreProtocolError,
    "StoreNotFoundError": StoreNotFoundError,
    "StoreConnectionError": StoreConnectionError,
}

#: How many digests one HAS_MANY query carries at most.
_HAS_BATCH = 1024

#: The longest sleep between two connection attempts, in seconds.
_BACKOFF_MAX = 1.0

#: What the retry loop treats as a transport failure: the socket died
#: or the byte stream stopped being frames.
_TRANSPORT_ERRORS = (OSError, StoreProtocolError)


def _remote_error(payload: bytes) -> StoreError:
    """The typed error an ``ERR`` payload carries."""
    err = P.decode_json(payload)
    if not isinstance(err, dict):
        raise StoreProtocolError("malformed ERR payload")
    return _ERROR_CLASSES.get(err.get("error"), StoreError)(
        err.get("message", "unknown store error")
    )


def unwrap_reply(rop: int, rpayload: bytes) -> bytes:
    """An ``OK`` reply's payload; raises the daemon's typed error on ``ERR``."""
    if rop == P.OP_ERR:
        raise _remote_error(rpayload)
    if rop != P.OP_OK:
        raise StoreProtocolError(f"unexpected response opcode 0x{rop:02x}")
    return rpayload


def parse_addr(addr: str) -> tuple[str, int]:
    """``"host:port"`` as ``(host, port)``."""
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise StoreError(f"bad store address {addr!r} (expected host:port)")
    return host, int(port)


def batched(seq: list, size: int) -> Iterator[list]:
    for i in range(0, len(seq), size):
        yield seq[i : i + size]


class StoreClient:
    """A connection to one store daemon."""

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 5.0,
        io_timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.05,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        jitter_seed: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.chunk_size = chunk_size
        self._retry = RetryPolicy(
            retries, backoff, _BACKOFF_MAX, seed=jitter_seed
        )
        #: The daemon's ``node_id``, learned from its HELLO answer.
        self.remote_node_id: Optional[str] = None
        self._sock: Optional[socket.socket] = None
        #: Transport failures survived via retry (observability + tests).
        self.retries_used = 0
        #: Requests sent through :meth:`_exchange`, one per exchange
        #: however many attempts it took (the handshake is not one).
        self.exchanges = 0

    # -- connection management ---------------------------------------------

    def _connect(self) -> socket.socket:
        """Open the connection and shake hands on it."""
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        try:
            # Each request is one write and waits for its answer: Nagle
            # would hold back the tail of any write the kernel splits.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.io_timeout)
            P.send_frame(sock, P.OP_HELLO)
            op, payload = P.recv_frame(sock)
            if op != P.OP_OK:
                detail = (
                    str(_remote_error(payload))
                    if op == P.OP_ERR
                    else f"opcode 0x{op:02x}"
                )
                raise StoreProtocolError(
                    f"peer {self.host}:{self.port} refused HELLO ({detail}); "
                    f"it is not a store daemon"
                )
            info = P.decode_json(payload)
            if not isinstance(info, dict):
                raise StoreProtocolError(
                    f"peer {self.host}:{self.port} answered HELLO with "
                    f"a malformed payload"
                )
        except BaseException:
            sock.close()
            raise
        self.remote_node_id = info.get("node_id")
        return sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "StoreClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- request core ------------------------------------------------------

    def _exchange(
        self, op: int, payload: bytes | list,
        read: Callable[[socket.socket], T],
    ) -> T:
        """Send one request and ``read`` its answer off the socket.

        ``payload`` is one buffer or the list of them that make it up
        (:meth:`~repro.net.FrameCodec.send_frame`).  The one retry loop:
        a transport failure anywhere in connect, handshake, send or read
        drops the connection and tries again on a fresh one, within the
        retry policy's budget.
        """

        def attempt() -> T:
            try:
                if self._sock is None:
                    self._sock = self._connect()
                P.send_frame(self._sock, op, payload)
                return read(self._sock)
            except BaseException:
                # Whatever stopped the exchange, the stream is no longer
                # at a frame boundary this side knows.
                self.close()
                raise

        def note_retry() -> None:
            self.retries_used += 1
            STORE.transport_retries += 1

        self.exchanges += 1
        return self._retry.run(
            attempt,
            transient=_TRANSPORT_ERRORS,
            on_retry=note_retry,
            exhausted=lambda attempts, last: StoreConnectionError(
                f"store at {self.host}:{self.port} unreachable after "
                f"{attempts} attempt(s): {last}"
            ),
        )

    def _call(self, op: int, payload: bytes | list = b"") -> bytes:
        """One request/response exchange; returns the ``OK`` payload."""
        rop, rpayload = self._exchange(op, payload, P.recv_frame)
        if rop not in (P.OP_OK, P.OP_ERR):
            self.close()
        return unwrap_reply(rop, rpayload)

    # -- primitive operations ----------------------------------------------

    def ping(self) -> bool:
        return self._call(P.OP_PING) == b"pong"

    def has_many(self, keys: list[str]) -> list[bool]:
        out: list[bool] = []
        for batch in batched(keys, _HAS_BATCH):
            payload = b"".join(bytes.fromhex(k) for k in batch)
            resp = self._call(P.OP_HAS_MANY, payload)
            if len(resp) != len(batch):
                raise StoreProtocolError("HAS_MANY answer length mismatch")
            out.extend(b == 1 for b in resp)
        return out

    def put_chunk(self, data: bytes) -> str:
        key = chunk_key(data)
        self._call(P.OP_PUT_CHUNK, P.chunk_parts(bytes.fromhex(key), data))
        return key

    def get_chunk(self, key: str) -> bytes:
        resp = self._call(P.OP_GET_CHUNK, bytes.fromhex(key))
        key_raw, data = P.decode_chunk(resp)
        if key_raw.hex() != key or chunk_key(data) != key:
            raise StoreIntegrityError(
                f"chunk {key[:16]}... failed verification after download"
            )
        return bytes(data)

    def put_manifest(
        self,
        vm_id: str,
        chunks: list[str],
        payload_len: int,
        payload_sha256: str,
        meta: Optional[dict] = None,
        chunk_size: Optional[int] = None,
        generation: Optional[int] = None,
        check_chunks: bool = True,
    ) -> int:
        req = {
            "vm_id": vm_id,
            "chunks": chunks,
            "payload_len": payload_len,
            "payload_sha256": payload_sha256,
            "meta": meta or {},
            "chunk_size": chunk_size or self.chunk_size,
        }
        if generation is not None:
            req["generation"] = generation
        if not check_chunks:
            # Fleet commits: the chunks live on their owner shards, not
            # necessarily on the manifest's shard.
            req["check_chunks"] = False
        resp = P.decode_json(self._call(P.OP_PUT_MANIFEST, P.encode_json(req)))
        return int(resp["generation"])

    def claim(self, lease_id: str, holder: str, expected: int) -> dict:
        """One ``CLAIM``: the daemon records the claim and answers
        ``{epoch, valid, head: {epoch, holder}}``."""
        req = {"lease_id": lease_id, "holder": holder, "expected": expected}
        return P.decode_json(self._call(P.OP_CLAIM, P.encode_json(req)))

    def get_manifest(self, vm_id: str, generation: Optional[int] = None) -> Manifest:
        req: dict = {"vm_id": vm_id}
        if generation is not None:
            req["generation"] = generation
        return Manifest.from_json(
            self._call(P.OP_GET_MANIFEST, P.encode_json(req))
        )

    def get_manifests(
        self, vm_id: str, generations: list[int]
    ) -> list[Optional[Manifest]]:
        """Several generations' manifests in one ``BATCH``; ``None`` for
        a generation this daemon does not hold."""
        replies = self.batch_call([
            (P.OP_GET_MANIFEST,
             P.encode_json({"vm_id": vm_id, "generation": g}))
            for g in generations
        ])
        out: list[Optional[Manifest]] = []
        for rop, rpayload in replies:
            try:
                out.append(Manifest.from_json(unwrap_reply(rop, rpayload)))
            except StoreNotFoundError:
                out.append(None)
        return out

    def ls(self, vm_id: Optional[str] = None) -> dict:
        """The daemon's listing; scoped to one vm when ``vm_id`` is given
        (an empty request payload means everything)."""
        payload = b"" if vm_id is None else P.encode_json({"vm_id": vm_id})
        return P.decode_json(self._call(P.OP_LS, payload))

    def stat(self) -> dict:
        return P.decode_json(self._call(P.OP_STAT))

    def audit(self, deep: bool = False, check_refs: bool = True) -> dict:
        return P.decode_json(
            self._call(
                P.OP_AUDIT,
                P.encode_json({"deep": deep, "check_refs": check_refs}),
            )
        )

    # -- batched and streamed operations ------------------------------------

    def batch_call(self, items: list[tuple]) -> list[tuple[int, bytes]]:
        """Run many sub-operations; one round trip per MAX_BATCH_OPS.

        Each item is ``(opcode, *payload parts)``; each frame is sent as
        its parts (:func:`~repro.store.protocol.batch_parts`), never
        joined.  Returns one ``(opcode, payload)`` per item, in order —
        callers unwrap each with :func:`unwrap_reply`, so one failed
        sub-op does not fail the batch.
        """
        results: list[tuple[int, bytes]] = []
        for group in batched(items, P.MAX_BATCH_OPS):
            sub = P.decode_ops(self._call(P.OP_BATCH, P.batch_parts(group)))
            if len(sub) != len(group):
                raise StoreProtocolError("BATCH answer count mismatch")
            FLEET.batches_sent += 1
            FLEET.batched_ops += len(group)
            results.extend((op, bytes(payload)) for op, payload in sub)
        return results

    def put_chunks(
        self, chunks: list[bytes], keys: Optional[list[str]] = None
    ) -> list[bool]:
        """Batched content-addressed puts; per chunk, whether the daemon
        stored it new (False: it already held it).

        ``keys`` are the chunks' content addresses when the caller has
        already hashed them (the server checks each one regardless).
        """
        if keys is None:
            keys = [chunk_key(c) for c in chunks]
        ops = [
            (P.OP_PUT_CHUNK, *P.chunk_parts(bytes.fromhex(k), c))
            for k, c in zip(keys, chunks)
        ]
        return [
            unwrap_reply(rop, rpayload) == b"\x01"
            for rop, rpayload in self.batch_call(ops)
        ]

    def get_many(
        self, keys: list[str], sink: Callable[[str, memoryview], None]
    ) -> list[str]:
        """Stream many chunks into ``sink(key, data)``; returns the keys
        the daemon does not hold.

        One streamed request per MAX_GET_MANY keys; every chunk is
        verified against its content address before ``sink`` sees it.
        ``data`` is a view of the frame it arrived in: copy what you
        keep.  A retried request may hand ``sink`` a key again.
        """
        missing: list[str] = []
        for group in batched(list(dict.fromkeys(keys)), P.MAX_GET_MANY):
            missing.extend(self._get_many_stream(group, sink))
        return missing

    def _get_many_stream(
        self, keys: list[str], sink: Callable[[str, memoryview], None]
    ) -> list[str]:
        """One GET_MANY exchange: CHUNK frames, then END."""
        wanted = set(keys)

        def read_stream(sock: socket.socket):
            while True:
                op, rpayload = P.recv_frame(sock)
                if op == P.OP_CHUNK:
                    key_raw, data = P.decode_chunk(rpayload)
                    key = key_raw.hex()
                    if key not in wanted or chunk_key(data) != key:
                        raise StoreProtocolError(
                            f"streamed chunk {key[:16]}... fails verification"
                        )
                    sink(key, data)
                    FLEET.streamed_chunks += 1
                elif op == P.OP_END:
                    return True, P.decode_json(rpayload)
                elif op == P.OP_ERR:
                    return False, rpayload
                else:
                    raise StoreProtocolError(
                        f"unexpected stream opcode 0x{op:02x}"
                    )

        ended, end = self._exchange(
            P.OP_GET_MANY, b"".join(bytes.fromhex(k) for k in keys), read_stream
        )
        if not ended:
            raise _remote_error(end)
        return [k for k in end.get("missing", []) if k in wanted]

    # -- housekeeping ops ---------------------------------------------------

    def epoch(self) -> int:
        return int(P.decode_json(self._call(P.OP_EPOCH))["epoch"])

    def del_manifest(self, vm_id: str, generation: int) -> bool:
        resp = P.decode_json(
            self._call(
                P.OP_DEL_MANIFEST,
                P.encode_json({"vm_id": vm_id, "generation": generation}),
            )
        )
        return bool(resp["deleted"])

    def sweep(self, keep: Iterable[str]) -> dict:
        payload = b"".join(bytes.fromhex(k) for k in sorted(set(keep)))
        return P.decode_json(self._call(P.OP_SWEEP, payload))
