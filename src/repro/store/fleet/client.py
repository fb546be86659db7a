"""The checkpoint client: a sharded router over per-node connections.

:class:`FleetClient` is what supervisors, the CLI and the HA pipeline
hold — for a fleet of N shards or a single daemon (a 1-shard fleet).
It owns the checkpoint-level surface (``put_checkpoint[_file]``,
``get_checkpoint[_file]``, ``ls``, ``get_manifest``, gc/rebalance/audit):
it chunks the payload, routes every chunk to its ring owner over that
node's :class:`~repro.store.client.StoreClient`, asks the owner which
chunks it already has, and verifies every download against the
manifest digest.

The upload's epoch bracket
--------------------------

An upload trusts each ``HAS_MANY`` "present" answer and does not send
that chunk.  A gc can sweep the chunk between that answer and the
manifest commit, leaving a manifest that names a chunk no shard holds.
The defense is an epoch bracket around every upload: the client reads
every shard's destruction epoch before uploading and re-reads it after
the commit.  If any epoch moved *during* the upload, every referenced
chunk is re-verified against its owner shard and the missing ones are
re-uploaded from the source stream (the "two-pass" path, counted in
``FLEET.stale_cache_retries``).  Chunk puts are content-addressed and
manifest commits idempotent, so the recovery pass is safe to repeat.
"""

from __future__ import annotations

import contextlib
import hashlib
from typing import Callable, Iterable, Iterator, Optional

from repro.errors import StoreError, StoreIntegrityError, StoreNotFoundError
from repro.metrics import FLEET
from repro.store.chunkstore import (
    DEFAULT_CHUNK_SIZE,
    Manifest,
    PutStats,
    chunk_key,
)
from repro.store import protocol as P
from repro.store.client import StoreClient, parse_addr
from repro.store.fleet.ring import HashRing

#: Chunk bytes an upload buffers per shard before one presence query and
#: one batched put (capped at ``MAX_BATCH_OPS`` chunks, so one ``BATCH``),
#: and a file download assembles before writing them out.
_WINDOW_BYTES = 1 << 20


class FleetClient:
    """Routes checkpoint traffic across a consistent-hash store fleet."""

    def __init__(
        self,
        addrs: list[tuple[str, int]] | list[str],
        connect_timeout: float = 5.0,
        io_timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.05,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        drain: Iterable[str] | None = None,
        jitter_seed: Optional[int] = None,
    ) -> None:
        if not addrs:
            raise StoreError("a fleet client needs at least one node address")
        self.nodes: dict[str, StoreClient] = {}
        for addr in addrs:
            host, port = parse_addr(addr) if isinstance(addr, str) else addr
            self.nodes[f"{host}:{port}"] = StoreClient(
                host,
                port,
                connect_timeout=connect_timeout,
                io_timeout=io_timeout,
                retries=retries,
                backoff=backoff,
                chunk_size=chunk_size,
                jitter_seed=jitter_seed,
            )
        #: Nodes being decommissioned: still consulted as sources (and
        #: drained by ``rebalance``) but own nothing on the ring.
        self.draining = {
            d if isinstance(d, str) else f"{d[0]}:{d[1]}"
            for d in (drain or [])
        }
        ring_nodes = [n for n in self.nodes if n not in self.draining]
        if not ring_nodes:
            raise StoreError("every fleet node is draining; none can own keys")
        self.ring = HashRing(ring_nodes)
        self.chunk_size = chunk_size

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        for client in self.nodes.values():
            client.close()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def retries_used(self) -> int:
        return sum(c.retries_used for c in self.nodes.values())

    @property
    def exchanges(self) -> int:
        return sum(c.exchanges for c in self.nodes.values())

    def ping(self) -> bool:
        return all(c.ping() for c in self.nodes.values())

    # -- placement ---------------------------------------------------------

    def chunk_node(self, key: str) -> str:
        return self.ring.chunk_node(key)

    def manifest_node(self, vm_id: str) -> str:
        return self.ring.manifest_node(vm_id)

    def _group_by_owner(self, keys: Iterable[str]) -> dict[str, list[str]]:
        grouped: dict[str, list[str]] = {}
        for key in keys:
            grouped.setdefault(self.ring.chunk_node(key), []).append(key)
        return grouped

    def _epochs(self) -> dict[str, int]:
        """Every shard's destruction epoch."""
        return {node: client.epoch() for node, client in self.nodes.items()}

    # -- upload ------------------------------------------------------------

    def put_checkpoint(
        self, vm_id: str, payload: bytes, meta: Optional[dict] = None
    ) -> tuple[int, PutStats]:
        def make_iter() -> Iterator[memoryview]:
            cs = self.chunk_size
            view = memoryview(payload).toreadonly()
            for i in range(0, len(view), cs):
                yield view[i : i + cs]

        return self._put_stream(vm_id, make_iter, meta)

    def put_checkpoint_file(
        self, vm_id: str, path: str, meta: Optional[dict] = None
    ) -> tuple[int, PutStats]:
        def make_iter() -> Iterator[bytes]:
            with open(path, "rb") as f:
                while True:
                    chunk = f.read(self.chunk_size)
                    if not chunk:
                        return
                    yield chunk

        return self._put_stream(vm_id, make_iter, meta)

    def _put_stream(
        self,
        vm_id: str,
        make_iter: Callable[[], Iterator[bytes]],
        meta: Optional[dict],
    ) -> tuple[int, PutStats]:
        """Sharded dedup upload with the epoch-bracket staleness guard.

        ``make_iter`` must produce a *fresh* chunk iterator per call —
        the rare recovery pass after a racing gc re-reads the source.
        Each shard's window is flushed once it holds ``_WINDOW_BYTES``
        and let go before the source is read further, so an upload holds
        about one window per shard of what it reads.
        """

        def source() -> Iterator[bytes]:
            empty = True
            for chunk in make_iter():
                empty = False
                yield chunk
            if empty:  # an empty payload is one empty chunk
                yield b""

        epochs_before = self._epochs()
        stats = PutStats()
        payload_sha = hashlib.sha256()
        keys: list[str] = []
        payload_len = 0
        seen: set[str] = set()
        pending: dict[str, list[tuple[str, bytes]]] = {}
        pending_bytes: dict[str, int] = {}
        for chunk in source():
            key = chunk_key(chunk)
            payload_sha.update(chunk)
            keys.append(key)
            payload_len += len(chunk)
            stats.chunks_total += 1
            stats.bytes_total += len(chunk)
            if key in seen:
                continue
            seen.add(key)
            node = self.ring.chunk_node(key)
            window = pending.setdefault(node, [])
            window.append((key, chunk))
            pending_bytes[node] = pending_bytes.get(node, 0) + len(chunk)
            if (
                pending_bytes[node] >= _WINDOW_BYTES
                or len(window) >= P.MAX_BATCH_OPS
            ):
                del pending_bytes[node]
                self._flush_window(node, pending.pop(node), stats)
        for node, items in sorted(pending.items()):
            self._flush_window(node, items, stats)
        generation = self._commit(
            vm_id, keys, payload_len, payload_sha.hexdigest(), meta
        )
        if generation == 1 and len(self.nodes) > 1:
            self._refuse_split_history(vm_id)
        self._verify_after_commit(epochs_before, keys, source)
        return generation, stats

    def _refuse_split_history(self, vm_id: str) -> None:
        """The claim rule, for uploads: an owner that numbered this
        upload generation 1 holds none of the vm's history, so while
        another shard holds some (a join or drain moved the owner, and
        no rebalance followed) the upload would start a second history
        whose newest generation hides behind the older ones.  Withdraw
        the commit and refuse, one scoped listing per other shard."""
        owner = self.ring.manifest_node(vm_id)
        for node, client in sorted(self.nodes.items()):
            if node != owner and client.ls(vm_id)["vms"]:
                self.nodes[owner].del_manifest(vm_id, 1)
                raise StoreNotFoundError(
                    f"vm {vm_id!r} has generations on {node}, not on its "
                    f"owner {owner}; run `repro store fleet rebalance` "
                    f"before uploading"
                )

    def _flush_window(
        self,
        node: str,
        items: list[tuple[str, bytes]],
        stats: PutStats,
    ) -> None:
        """One presence round trip + one batched-put round trip.

        What counts as new is what the daemon answers it stored new: a
        chunk another client put after this one heard "absent" is not.
        """
        client = self.nodes[node]
        present = client.has_many([key for key, _chunk in items])
        to_put = [item for item, have in zip(items, present) if not have]
        if to_put:
            stored_new = client.put_chunks(
                [chunk for _key, chunk in to_put],
                keys=[key for key, _chunk in to_put],
            )
            for (_key, chunk), new in zip(to_put, stored_new):
                if new:
                    stats.chunks_new += 1
                    stats.bytes_new += len(chunk)

    def _commit(
        self,
        vm_id: str,
        keys: list[str],
        payload_len: int,
        payload_sha256: str,
        meta: Optional[dict],
        generation: Optional[int] = None,
    ) -> int:
        owner = self.ring.manifest_node(vm_id)
        return self.nodes[owner].put_manifest(
            vm_id,
            keys,
            payload_len=payload_len,
            payload_sha256=payload_sha256,
            meta=meta,
            chunk_size=self.chunk_size,
            generation=generation,
            check_chunks=False,
        )

    def _verify_after_commit(
        self,
        epochs_before: dict[str, int],
        keys: list[str],
        make_iter: Callable[[], Iterator[bytes]],
    ) -> None:
        """Close the epoch bracket; re-upload if a gc raced the upload.

        Any destructive op between the opening epoch read and now has
        moved some shard's epoch, which means a "present" answer we
        trusted may have named a chunk that no longer exists.  Re-check
        every referenced key against its owner and re-send the missing
        ones from the source stream.
        """
        if self._epochs() == epochs_before:
            return
        FLEET.stale_cache_retries += 1
        missing: set[str] = set()
        for node, group in self._group_by_owner(set(keys)).items():
            group = sorted(group)
            for key, have in zip(group, self.nodes[node].has_many(group)):
                if not have:
                    missing.add(key)
        if missing:
            resent: set[str] = set()
            for chunk in make_iter():
                key = chunk_key(chunk)
                if key in missing and key not in resent:
                    self.nodes[self.ring.chunk_node(key)].put_chunk(chunk)
                    resent.add(key)
            if resent != missing:
                raise StoreNotFoundError(
                    f"{len(missing - resent)} chunk(s) vanished during "
                    f"upload and are absent from the source stream"
                )

    # -- lease claims ------------------------------------------------------

    def claim(self, lease_id: str, holder: str, expected: int) -> dict:
        """One ``CLAIM`` on the lease's owner shard, which decides it
        (:meth:`~repro.store.chunkstore.ChunkStore.claim`).

        The owner refuses a claim expecting an epoch it holds no record
        of.  A first claim (``expected`` 0) is judged against no records
        at all, so on a fleet of several shards it first confirms, one
        scoped listing per other shard, that no other shard holds any.
        """
        owner = self.ring.manifest_node(lease_id)
        if expected == 0:
            for node, client in sorted(self.nodes.items()):
                if node != owner and client.ls(lease_id)["vms"]:
                    raise StoreNotFoundError(
                        f"lease {lease_id!r} has claim records on {node}, "
                        f"not on its owner {owner}; rebalance before "
                        f"claiming"
                    )
        return self.nodes[owner].claim(lease_id, holder, expected)

    # -- download ----------------------------------------------------------

    def get_manifest(
        self, vm_id: str, generation: Optional[int] = None
    ) -> Manifest:
        if generation is None:
            # Pre-rebalance, a vm's generations may be split across
            # shards; "latest" must be the fleet-wide maximum.
            best: Optional[Manifest] = None
            for _node, client in sorted(self.nodes.items()):
                try:
                    m = client.get_manifest(vm_id)
                except StoreNotFoundError:
                    continue
                if best is None or m.generation > best.generation:
                    best = m
            if best is None:
                raise StoreNotFoundError(
                    f"no checkpoints stored for vm {vm_id!r}"
                )
            return best
        owner = self.ring.manifest_node(vm_id)
        order = [owner] + [n for n in sorted(self.nodes) if n != owner]
        last: Optional[StoreNotFoundError] = None
        for node in order:
            try:
                return self.nodes[node].get_manifest(vm_id, generation)
            except StoreNotFoundError as e:
                last = e
        raise last  # type: ignore[misc]

    def get_manifests(
        self, vm_id: str, generations: list[int]
    ) -> list[Optional[Manifest]]:
        """Several generations' manifests, asked of the vm's owner shard
        in one ``BATCH``; ``None`` where no shard holds one."""
        owner = self.ring.manifest_node(vm_id)
        found = self.nodes[owner].get_manifests(vm_id, generations)
        if len(self.nodes) > 1:
            # Pre-rebalance, a generation may still sit on another shard.
            for i, (g, m) in enumerate(zip(generations, found)):
                if m is None:
                    with contextlib.suppress(StoreNotFoundError):
                        found[i] = self.get_manifest(vm_id, g)
        return found

    def _hunt_chunk(self, key: str, exclude: str) -> bytes:
        """Last-resort read of a chunk that is not on its owner shard."""
        for node in sorted(self.nodes):
            if node == exclude:
                continue
            try:
                data = self.nodes[node].get_chunk(key)
            except StoreNotFoundError:
                continue
            FLEET.misplaced_fetches += 1
            return data
        raise StoreNotFoundError(f"chunk {key[:16]}... is on no fleet node")

    def get_chunk(self, key: str) -> bytes:
        """One verified chunk, from its owner shard or wherever it is."""
        got: dict[str, bytes] = {}
        self._fetch([key], lambda k, data: got.update({k: bytes(data)}))
        return got[key]

    def _fetch(
        self, keys: Iterable[str], sink: Callable[[str, memoryview], None]
    ) -> None:
        """Stream each key's verified bytes into ``sink(key, data)``: one
        ``GET_MANY`` per owner shard; a chunk its owner lacks is hunted
        on the others."""
        for node, group in self._group_by_owner(set(keys)).items():
            for key in self.nodes[node].get_many(sorted(group), sink):
                sink(key, self._hunt_chunk(key, exclude=node))

    def _assemble(
        self, vm_id: str, spans: list[tuple[Manifest, int, int]]
    ) -> list[bytearray]:
        """Chunks ``[a, b)`` of each manifest, fetched together and
        copied, as each arrives, into one buffer per span preallocated
        at its size — each chunk at the offset its position and the
        manifest's chunk size give it."""
        buffers: list[bytearray] = []
        slots: dict[str, list[memoryview]] = {}
        for m, a, b in spans:
            cs = m.chunk_size
            buf = bytearray(max(0, min(b * cs, m.payload_len) - a * cs))
            view = memoryview(buf)
            for i, key in enumerate(m.chunks[a:b]):
                slots.setdefault(key, []).append(view[i * cs : (i + 1) * cs])
            buffers.append(buf)

        def place(key: str, data) -> None:
            for slot in slots[key]:
                if len(slot) != len(data):
                    raise StoreIntegrityError(
                        f"vm {vm_id!r}: chunk {key[:16]}... does not fit "
                        f"its place in the manifest; downloaded payload "
                        f"fails verification"
                    )
                slot[:] = data

        self._fetch(slots, place)
        return buffers

    def get_payloads(
        self, vm_id: str, manifests: list[Manifest]
    ) -> list[bytearray]:
        """Each generation's payload, in memory and verified against its
        manifest; the chunks of all of them are fetched together — one
        ``GET_MANY`` per shard up to ``MAX_GET_MANY`` distinct keys — and
        each payload is the buffer it was assembled in."""
        payloads = self._assemble(
            vm_id, [(m, 0, len(m.chunks)) for m in manifests]
        )
        for m, payload in zip(manifests, payloads):
            self._verify_payload(vm_id, m, len(payload),
                                 hashlib.sha256(payload).hexdigest())
        return payloads

    def get_checkpoint(
        self, vm_id: str, generation: Optional[int] = None
    ) -> tuple[bytearray, Manifest]:
        manifest = self.get_manifest(vm_id, generation)
        return self.get_payloads(vm_id, [manifest])[0], manifest

    def get_checkpoint_file(
        self, vm_id: str, path: str, generation: Optional[int] = None
    ) -> Manifest:
        """Download one generation to ``path``, verified, a window of
        chunks at a time: the payload is never in memory whole."""
        manifest = self.get_manifest(vm_id, generation)
        per = max(1, _WINDOW_BYTES // max(1, manifest.chunk_size))
        payload_sha = hashlib.sha256()
        written = 0
        with open(path, "wb") as f:
            for a in range(0, len(manifest.chunks), per):
                (window,) = self._assemble(vm_id, [(manifest, a, a + per)])
                payload_sha.update(window)
                written += len(window)
                f.write(window)
        self._verify_payload(vm_id, manifest, written, payload_sha.hexdigest())
        return manifest

    @staticmethod
    def _verify_payload(
        vm_id: str, manifest: Manifest, length: int, sha256: str
    ) -> None:
        if length != manifest.payload_len or sha256 != manifest.payload_sha256:
            raise StoreIntegrityError(
                f"vm {vm_id!r} gen {manifest.generation}: downloaded payload "
                f"fails verification"
            )

    # -- listings and stats ------------------------------------------------

    def ls(self, vm_id: Optional[str] = None) -> dict:
        """Merged listing across every shard (generations deduped).

        Scoped to ``vm_id`` it still asks every shard — before a
        rebalance one vm's generations can sit on two of them — but each
        shard reads that vm's manifests only, and no ``objects`` count
        comes back.
        """
        vms: dict[str, dict[int, dict]] = {}
        objects = 0
        for _node, client in sorted(self.nodes.items()):
            listing = client.ls(vm_id)
            objects += int(listing.get("objects", 0))
            for vm, gens in listing.get("vms", {}).items():
                merged = vms.setdefault(vm, {})
                for g in gens:
                    merged.setdefault(int(g["generation"]), g)
        merged_vms = {
            vm: [by_gen[g] for g in sorted(by_gen)]
            for vm, by_gen in sorted(vms.items())
        }
        if vm_id is not None:
            return {"vms": merged_vms}
        return {"vms": merged_vms, "objects": objects}

    def fleet_stat(self) -> dict:
        """Per-shard stats, ring ownership and this process's counters."""
        shards = {}
        for node, client in sorted(self.nodes.items()):
            s = client.stat()
            s["draining"] = node in self.draining
            shards[node] = s
        ownership = self.ring.ownership()
        return {
            "shards": shards,
            "ring": {
                "vnodes": self.ring.vnodes,
                "nodes": list(self.ring.nodes),
                "ownership": ownership,
                "ranges": self.ring.ranges(),
            },
            # There is no client-side cache; the key stays, always None,
            # because the e2e harness (benchmarks/e2e/workloads.py)
            # indexes it.
            "caches": None,
            "fleet_counters": FLEET.as_dict(),
        }

    stat = fleet_stat

    # -- housekeeping ------------------------------------------------------

    def _all_manifests(self) -> list[tuple[str, Manifest]]:
        """(holding node, manifest) for every manifest on every shard."""
        out: list[tuple[str, Manifest]] = []
        for node, client in sorted(self.nodes.items()):
            for vm_id, gens in client.ls().get("vms", {}).items():
                for g in gens:
                    out.append(
                        (node, client.get_manifest(vm_id, int(g["generation"])))
                    )
        return out

    def _ensure_placement(self, live: set[str]) -> int:
        """Copy every live chunk onto its owner shard; returns moves."""
        moves = 0
        for node, group in sorted(self._group_by_owner(live).items()):
            client = self.nodes[node]
            group = sorted(group)
            have = client.has_many(group)
            for key, present in zip(group, have):
                if present:
                    continue
                client.put_chunk(self._hunt_chunk(key, exclude=node))
                moves += 1
                FLEET.rebalance_moves += 1
        return moves

    def gc(self) -> dict:
        """Fleet-wide mark and sweep.

        A shard's local gc would be wrong here: its manifests say
        nothing about which of its chunks *other* shards' manifests
        reference.  Mark globally instead, self-heal placement (every
        live chunk onto its owner), then hand each shard the exact keep
        set for the keys it owns — a draining or non-owner shard keeps
        nothing.  Every sweep bumps its shard's epoch, which closes the
        bracket of any upload it raced with a re-verify.
        """
        live: set[str] = set()
        for _node, manifest in self._all_manifests():
            live.update(manifest.chunks)
        moved = self._ensure_placement(live)
        owned: dict[str, set[str]] = {node: set() for node in self.nodes}
        for key in live:
            owned[self.ring.chunk_node(key)].add(key)
        removed = 0
        bytes_freed = 0
        for node, client in sorted(self.nodes.items()):
            report = client.sweep(owned[node])
            removed += int(report["removed"])
            bytes_freed += int(report["bytes_freed"])
        return {
            "removed": removed,
            "kept": len(live),
            "bytes_freed": bytes_freed,
            "chunks_moved": moved,
        }

    def rebalance(self) -> dict:
        """Re-home manifests and chunks after node join/leave.

        Consistent hashing bounds the movement to roughly the joining
        (or leaving) node's share of the keyspace.  Manifest moves are
        commit-then-delete — the copy lands on the owner before the old
        holder's copy goes away, so a reader never sees a gap — and the
        closing :meth:`gc` both copies chunks to their owners and
        sweeps the stale copies.
        """
        manifests_moved = 0
        for node, manifest in self._all_manifests():
            owner = self.ring.manifest_node(manifest.vm_id)
            if owner == node:
                continue
            self.nodes[owner].put_manifest(
                manifest.vm_id,
                list(manifest.chunks),
                payload_len=manifest.payload_len,
                payload_sha256=manifest.payload_sha256,
                meta=manifest.meta,
                chunk_size=manifest.chunk_size,
                generation=manifest.generation,
                check_chunks=False,
            )
            self.nodes[node].del_manifest(manifest.vm_id, manifest.generation)
            manifests_moved += 1
            FLEET.manifest_moves += 1
        swept = self.gc()
        return {
            "manifests_moved": manifests_moved,
            "chunks_moved": swept["chunks_moved"],
            "removed": swept["removed"],
            "kept": swept["kept"],
            "bytes_freed": swept["bytes_freed"],
        }

    def audit(self, deep: bool = False) -> dict:
        """Cross-shard integrity + placement audit.

        Each shard verifies its own objects and manifests
        (``check_refs=False`` — references legitimately cross shards);
        the fleet layer then checks the two placement invariants (every
        manifest on its vm's owner, every referenced chunk on its
        owner).  ``deep`` additionally reassembles and digest-verifies
        the latest generation of every vm through the fleet read path.
        """
        problems: list[str] = []
        shards = {}
        for node, client in sorted(self.nodes.items()):
            report = client.audit(check_refs=False)
            shards[node] = report
            problems.extend(f"{node}: {p}" for p in report["problems"])
        manifests = 0
        vms: set[str] = set()
        for node, manifest in self._all_manifests():
            manifests += 1
            vms.add(manifest.vm_id)
            owner = self.ring.manifest_node(manifest.vm_id)
            if owner != node:
                problems.append(
                    f"vm {manifest.vm_id!r} gen {manifest.generation}: "
                    f"manifest on {node}, belongs on {owner}"
                )
            for cnode, group in sorted(
                self._group_by_owner(set(manifest.chunks)).items()
            ):
                group = sorted(group)
                for key, present in zip(
                    group, self.nodes[cnode].has_many(group)
                ):
                    if not present:
                        problems.append(
                            f"vm {manifest.vm_id!r} gen "
                            f"{manifest.generation}: chunk {key[:16]}... "
                            f"missing on owner {cnode}"
                        )
        if deep:
            for vm_id in sorted(vms):
                try:
                    self.get_checkpoint(vm_id)
                except StoreError as e:
                    problems.append(f"vm {vm_id!r}: {e}")
        return {
            "shards": shards,
            "manifests": manifests,
            "problems": problems,
            "ok": not problems,
        }
