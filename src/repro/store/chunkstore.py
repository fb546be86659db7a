"""Content-addressed checkpoint repository.

A checkpoint payload (the bytes of one ``.hckp`` file) is split into
fixed-size chunks; each chunk is keyed by its SHA-256 digest and stored
zlib-compressed under ``objects/<kk>/<key>.z``.  A *manifest* per VM
generation records the ordered chunk keys plus the whole-payload digest,
so ``put``/``get``/``ls``/``gc`` all operate on manifests and successive
periodic checkpoints dedup every chunk that did not change.

Integrity is re-verified chunk by chunk on every read: a chunk whose
decompressed bytes no longer hash to its key raises
:class:`~repro.errors.StoreIntegrityError` (and so does a reassembled
payload whose digest disagrees with its manifest).

Layout::

    root/
      objects/ab/ab3f...9c.z        zlib(chunk), key = sha256(chunk)
      manifests/<vm_id>/00000001.json
      .lock                         flocked by every mutation (DirectoryLock)
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
import time
import zlib
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import StoreError, StoreIntegrityError, StoreNotFoundError

#: Default payload chunk size.  Small enough that a single mutated heap
#: page re-uploads little; large enough that manifests stay short.
DEFAULT_CHUNK_SIZE = 64 * 1024

_VM_ID_RE = re.compile(r"[A-Za-z0-9._-]+(/[A-Za-z0-9._-]+)*\Z")


def _check_vm_id(vm_id: str) -> str:
    if not _VM_ID_RE.match(vm_id) or ".." in vm_id.split("/"):
        raise StoreError(f"invalid vm id {vm_id!r}")
    return vm_id


def chunk_key(data: bytes) -> str:
    """The content address of one chunk."""
    return hashlib.sha256(data).hexdigest()


class DirectoryLock:
    """A coarse mutual-exclusion lock over one store directory.

    Guards the window the GC satellite worries about: ``gc`` computes
    its live set from the manifests, so a ``commit`` that has written a
    manifest whose chunks are still landing (the daemon's streamed
    upload order, or a crash between the two) must never interleave with
    the sweep — the sweep would delete chunks the brand-new generation
    references.

    Implementation: an exclusive ``flock`` on ``<root>/.lock``, a file
    that stays in place (the first lock creates it; no locked operation
    creates or unlinks anything).  The kernel holds the lock for the
    open file, so a holder that dies — however it dies — frees it at
    once, and a live holder's lock is never taken from it however long
    it holds.  Every handle opens the file afresh, so handles in one
    process, on one thread or several, exclude each other as separate
    processes do.  Waiting longer than ``timeout`` raises
    :class:`~repro.errors.StoreError` rather than deadlocking the
    caller.
    """

    def __init__(
        self,
        path: str,
        timeout: float = 10.0,
        poll_interval: float = 0.02,
    ) -> None:
        self.path = path
        self.timeout = timeout
        self.poll_interval = poll_interval
        self._fd: Optional[int] = None

    def acquire(self) -> None:
        if self._fd is not None:
            raise StoreError(f"lock {self.path} is not reentrant")
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        deadline = time.monotonic() + self.timeout
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if time.monotonic() >= deadline:
                        raise StoreError(
                            f"timed out after {self.timeout:.1f}s waiting "
                            f"for store lock {self.path}"
                        ) from None
                    time.sleep(self.poll_interval)
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd

    def release(self) -> None:
        fd, self._fd = self._fd, None
        if fd is None:
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def __enter__(self) -> "DirectoryLock":
        self.acquire()
        return self

    def __exit__(self, *_exc) -> None:
        self.release()


@dataclass(frozen=True)
class Manifest:
    """One generation of one VM's checkpoints."""

    vm_id: str
    generation: int
    chunk_size: int
    payload_len: int
    payload_sha256: str
    chunks: tuple[str, ...]
    meta: dict = field(default_factory=dict)
    created: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "vm_id": self.vm_id,
                "generation": self.generation,
                "chunk_size": self.chunk_size,
                "payload_len": self.payload_len,
                "payload_sha256": self.payload_sha256,
                "chunks": list(self.chunks),
                "meta": self.meta,
                "created": self.created,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "Manifest":
        try:
            d = json.loads(text)
            return cls(
                vm_id=d["vm_id"],
                generation=int(d["generation"]),
                chunk_size=int(d["chunk_size"]),
                payload_len=int(d["payload_len"]),
                payload_sha256=d["payload_sha256"],
                chunks=tuple(d["chunks"]),
                meta=dict(d.get("meta", {})),
                created=float(d.get("created", 0.0)),
            )
        except (ValueError, KeyError, TypeError) as e:
            raise StoreIntegrityError(f"malformed manifest: {e}") from e


@dataclass(frozen=True)
class LeaseClaim:
    """One claim record of an epoch lease — valid (held the lease) or a
    loser."""

    epoch: int  # the store generation this claim was assigned
    holder: str
    expected: int  # the valid epoch the claimant thought was newest
    valid: bool


def fold_claims(lease_id: str, entries: list[dict]) -> list[LeaseClaim]:
    """A lease's claim records (listing entries), oldest first, validity
    resolved.

    A claim is valid iff its ``expected_epoch`` equals the generation of
    the newest valid claim before it.  Any reader computes the same
    answer from the same records.  A record whose meta cannot be read
    raises :class:`~repro.errors.StoreIntegrityError` naming it: it is
    neither valid nor invalid, since either guess could change who holds
    the lease.
    """
    claims = []
    valid_head = 0
    for entry in sorted(entries, key=lambda g: g["generation"]):
        meta = entry.get("meta", {})
        try:
            expected = int(meta.get("expected_epoch", -1))
        except (AttributeError, TypeError, ValueError):
            raise StoreIntegrityError(
                f"lease {lease_id!r} generation {entry['generation']}: "
                f"damaged claim record (meta {meta!r})"
            ) from None
        valid = expected == valid_head
        if valid:
            valid_head = entry["generation"]
        claims.append(
            LeaseClaim(
                epoch=entry["generation"],
                holder=str(meta.get("holder", "")),
                expected=expected,
                valid=valid,
            )
        )
    return claims


def lease_head(claims: list[LeaseClaim]) -> tuple[int, str]:
    """``(epoch, holder)`` of the newest valid claim; ``(0, "")`` if none."""
    for claim in reversed(claims):
        if claim.valid:
            return claim.epoch, claim.holder
    return 0, ""


@dataclass
class PutStats:
    """Dedup accounting for one (or several accumulated) put(s)."""

    chunks_total: int = 0
    chunks_new: int = 0
    bytes_total: int = 0
    bytes_new: int = 0

    @property
    def dedup_ratio(self) -> float:
        """Logical bytes referenced per byte actually stored (>= 1)."""
        if self.bytes_new == 0:
            return float("inf") if self.bytes_total else 1.0
        return self.bytes_total / self.bytes_new

    def merge(self, other: "PutStats") -> None:
        self.chunks_total += other.chunks_total
        self.chunks_new += other.chunks_new
        self.bytes_total += other.bytes_total
        self.bytes_new += other.bytes_new


class ChunkStore:
    """A content-addressed chunk store rooted at one directory."""

    def __init__(
        self,
        root: str,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        lock_timeout: float = 10.0,
    ) -> None:
        if chunk_size <= 0:
            raise StoreError("chunk_size must be positive")
        self.root = root
        self.chunk_size = chunk_size
        self.lock_timeout = lock_timeout
        self._objects = os.path.join(root, "objects")
        self._manifests = os.path.join(root, "manifests")
        self._epoch_path = os.path.join(root, "epoch")
        os.makedirs(self._objects, exist_ok=True)
        os.makedirs(self._manifests, exist_ok=True)

    def _lock(self) -> DirectoryLock:
        """A fresh handle on the store-wide mutation lock.

        Fresh per operation (the exclusion lives in the kernel's lock
        on the file), so one store object can run sequential locked
        operations and concurrent holders — other processes or threads
        — block on the kernel, not on shared Python state.
        """
        return DirectoryLock(
            os.path.join(self.root, ".lock"), timeout=self.lock_timeout
        )

    # -- store epoch -------------------------------------------------------

    @property
    def epoch(self) -> int:
        """A counter bumped by every destructive operation.

        Chunk puts are monotone — content addressing means a key, once
        present, stays valid — *until* something deletes chunks or
        manifests.  ``gc``, ``prune``, ``sweep_keep`` and
        ``delete_manifest`` each bump the epoch; an upload that sees the
        number move between its first presence answer and its commit
        must re-verify the chunks its manifest names.
        """
        try:
            with open(self._epoch_path, "r", encoding="utf-8") as f:
                return int(f.read().strip() or "0")
        except (FileNotFoundError, ValueError):
            return 0

    def bump_epoch(self) -> int:
        """Advance the destruction epoch; returns the new value."""
        new = self.epoch + 1
        tmp = self._epoch_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(f"{new}\n")
        os.replace(tmp, self._epoch_path)
        return new

    # -- objects -----------------------------------------------------------

    def _object_path(self, key: str) -> str:
        return os.path.join(self._objects, key[:2], key + ".z")

    def has_object(self, key: str) -> bool:
        return os.path.exists(self._object_path(key))

    def put_object(
        self, data: bytes, key: Optional[str] = None
    ) -> tuple[str, bool]:
        """Store one chunk; returns ``(key, was_new)``.  ``key`` is its
        content address when the caller has just computed it."""
        if key is None:
            key = chunk_key(data)
        path = self._object_path(key)
        if os.path.exists(path):
            return key, False
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(zlib.compress(data, 6))
        os.replace(tmp, path)
        return key, True

    def get_object(self, key: str) -> bytes:
        """Load one chunk, re-verifying its content address."""
        path = self._object_path(key)
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except FileNotFoundError:
            raise StoreNotFoundError(f"no such chunk {key}") from None
        try:
            # Sized for a whole chunk: the output buffer is not grown.
            data = zlib.decompress(raw, bufsize=self.chunk_size)
        except zlib.error as e:
            raise StoreIntegrityError(f"chunk {key} is corrupt: {e}") from e
        if chunk_key(data) != key:
            raise StoreIntegrityError(
                f"chunk {key} fails verification (stored bytes hash to "
                f"{chunk_key(data)[:16]}...)"
            )
        return data

    def iter_objects(self) -> Iterator[str]:
        for sub in sorted(os.listdir(self._objects)):
            d = os.path.join(self._objects, sub)
            if not os.path.isdir(d):
                continue
            for name in sorted(os.listdir(d)):
                if name.endswith(".z"):
                    yield name[: -len(".z")]

    # -- manifests ---------------------------------------------------------

    def _manifest_dir(self, vm_id: str) -> str:
        return os.path.join(self._manifests, _check_vm_id(vm_id))

    def _manifest_path(self, vm_id: str, generation: int) -> str:
        return os.path.join(self._manifest_dir(vm_id), f"{generation:08d}.json")

    def generations(self, vm_id: str) -> list[int]:
        d = self._manifest_dir(vm_id)
        if not os.path.isdir(d):
            return []
        out = []
        for name in os.listdir(d):
            if name.endswith(".json"):
                try:
                    out.append(int(name[: -len(".json")]))
                except ValueError:
                    continue
        return sorted(out)

    def vm_ids(self) -> list[str]:
        out = []
        for dirpath, _dirnames, filenames in os.walk(self._manifests):
            if any(f.endswith(".json") for f in filenames):
                out.append(
                    os.path.relpath(dirpath, self._manifests).replace(os.sep, "/")
                )
        return sorted(out)

    def read_manifest(self, vm_id: str, generation: Optional[int] = None) -> Manifest:
        return Manifest.from_json(self.read_manifest_bytes(vm_id, generation))

    def read_manifest_bytes(
        self, vm_id: str, generation: Optional[int] = None
    ) -> bytes:
        """One generation's manifest (the latest by default) as stored —
        what ``GET_MANIFEST`` answers; whoever reads it parses it."""
        # A named generation is opened directly; the directory is only
        # scanned to find the latest one, or to word the error.
        gen = generation
        if gen is None:
            gens = self.generations(vm_id)
            gen = gens[-1] if gens else None
        if gen is not None:
            try:
                with open(self._manifest_path(vm_id, gen), "rb") as f:
                    return f.read()
            except FileNotFoundError:
                pass
        gens = self.generations(vm_id)
        if not gens:
            raise StoreNotFoundError(f"no checkpoints stored for vm {vm_id!r}")
        raise StoreNotFoundError(
            f"vm {vm_id!r} has no generation {gen} (has {gens})"
        )

    def write_manifest(self, manifest: Manifest) -> None:
        path = self._manifest_path(manifest.vm_id, manifest.generation)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(manifest.to_json())
        os.replace(tmp, path)

    # -- checkpoint payloads ----------------------------------------------

    def split(self, payload: bytes) -> list[bytes]:
        cs = self.chunk_size
        return [payload[i : i + cs] for i in range(0, len(payload), cs)] or [b""]

    def put_checkpoint(
        self,
        vm_id: str,
        payload: bytes,
        meta: Optional[dict] = None,
        generation: Optional[int] = None,
    ) -> tuple[Manifest, PutStats]:
        """Store one checkpoint payload as the next generation of ``vm_id``.

        Re-putting a payload identical to the latest generation returns
        that manifest instead of minting a new generation, which makes
        retried uploads idempotent.  An explicit ``generation`` (used by
        replication) writes exactly that slot.
        """
        _check_vm_id(vm_id)
        stats = PutStats()
        chunks = self.split(payload)
        keys = []
        # The whole chunks-then-manifest sequence holds the store lock:
        # a concurrent gc must never observe the manifest before every
        # chunk it references is durable (or vice versa, sweep away
        # just-written chunks the manifest is about to claim).
        with self._lock():
            for chunk in chunks:
                key, was_new = self.put_object(chunk)
                keys.append(key)
                stats.chunks_total += 1
                stats.bytes_total += len(chunk)
                if was_new:
                    stats.chunks_new += 1
                    stats.bytes_new += len(chunk)
            manifest = self._commit_manifest(
                vm_id,
                keys,
                payload_len=len(payload),
                payload_sha256=hashlib.sha256(payload).hexdigest(),
                meta=meta,
                generation=generation,
            )
        return manifest, stats

    def commit_manifest(
        self,
        vm_id: str,
        chunks: list[str],
        payload_len: int,
        payload_sha256: str,
        meta: Optional[dict] = None,
        chunk_size: Optional[int] = None,
        generation: Optional[int] = None,
        verify_chunks: bool = True,
    ) -> Manifest:
        """Record a generation whose chunks are already stored.

        Every referenced chunk must exist (the daemon calls this after a
        streamed upload).  Without an explicit ``generation``: committing
        the same payload as the latest generation returns that manifest
        unchanged — a retried upload never mints a duplicate generation.
        ``verify_chunks=False`` skips the existence check: a fleet
        manifest lands on the vm's owner shard while its chunks live on
        *their* owner shards, so local presence is not the invariant —
        the fleet client verifies placement before committing and the
        fleet ``audit`` re-checks it after.
        """
        with self._lock():
            return self._commit_manifest(
                vm_id,
                chunks,
                payload_len,
                payload_sha256,
                meta=meta,
                chunk_size=chunk_size,
                generation=generation,
                verify_chunks=verify_chunks,
            )

    def _commit_manifest(
        self,
        vm_id: str,
        chunks: list[str],
        payload_len: int,
        payload_sha256: str,
        meta: Optional[dict] = None,
        chunk_size: Optional[int] = None,
        generation: Optional[int] = None,
        verify_chunks: bool = True,
    ) -> Manifest:
        """Lock-free body of :meth:`commit_manifest` (caller holds it)."""
        _check_vm_id(vm_id)
        if verify_chunks:
            for key in chunks:
                if not self.has_object(key):
                    raise StoreNotFoundError(
                        f"manifest for vm {vm_id!r} references missing chunk "
                        f"{key[:16]}..."
                    )
        if generation is None:
            gens = self.generations(vm_id)
            if gens:
                latest = self.read_manifest(vm_id, gens[-1])
                if (
                    latest.payload_sha256 == payload_sha256
                    and latest.chunks == tuple(chunks)
                ):
                    return latest
            generation = (gens[-1] + 1) if gens else 1
        manifest = Manifest(
            vm_id=vm_id,
            generation=generation,
            chunk_size=chunk_size or self.chunk_size,
            payload_len=payload_len,
            payload_sha256=payload_sha256,
            chunks=tuple(chunks),
            meta=dict(meta or {}),
            created=time.time(),
        )
        self.write_manifest(manifest)
        return manifest

    def claim(
        self, lease_id: str, holder: str, expected: int
    ) -> tuple[dict, Manifest]:
        """Record ``holder``'s claim on an epoch lease, expecting
        ``expected`` to be the newest valid epoch, in one locked step.

        The claim is a record with no chunks, committed as generation
        latest + 1 — that generation is its epoch — whatever the
        outcome: a losing claim stays in the history.  Returns the
        answer ``{epoch, valid, head: {epoch, holder}}`` (the head after
        the commit) and the committed record.  Only the lease's own
        records are read.  A store that holds no record of epoch
        ``expected`` (> 0) cannot judge the claim — the lease's records
        live elsewhere, as after a shard joins — and refuses it with
        :class:`~repro.errors.StoreNotFoundError`, committing nothing.

        A claim whose record is already the newest — same holder, same
        ``expected`` — is a resend of one whose answer was lost (the
        client retries a broken exchange), so it is answered from the
        history and nothing is committed.
        """
        meta = {"holder": holder, "expected_epoch": expected}
        with self._lock():
            entries = self.ls(lease_id)["vms"].get(lease_id, [])
            held = [e["generation"] for e in entries]
            if expected and expected not in held:
                raise StoreNotFoundError(
                    f"lease {lease_id!r} has no claim of epoch {expected} "
                    f"here (holds {held}); its records are on another store"
                )
            newest = max(entries, key=lambda e: e["generation"], default=None)
            if newest is not None and newest["meta"] == meta:
                claims = fold_claims(lease_id, entries)
                manifest = self.read_manifest(lease_id, newest["generation"])
            else:
                mine = {"generation": max(held, default=0) + 1, "meta": meta}
                # Folded before the commit: a damaged record refuses the
                # claim instead of recording one nobody can judge.
                claims = fold_claims(lease_id, entries + [mine])
                manifest = self._commit_manifest(
                    lease_id,
                    [],
                    payload_len=0,
                    payload_sha256=hashlib.sha256(b"").hexdigest(),
                    meta=meta,
                    generation=mine["generation"],
                )
        epoch, head_holder = lease_head(claims)
        answer = {
            "epoch": manifest.generation,
            "valid": claims[-1].valid,
            "head": {"epoch": epoch, "holder": head_holder},
        }
        return answer, manifest

    def get_checkpoint(
        self, vm_id: str, generation: Optional[int] = None
    ) -> tuple[bytes, Manifest]:
        """Reassemble one generation, verifying every chunk and the whole."""
        manifest = self.read_manifest(vm_id, generation)
        payload = b"".join(self.get_object(k) for k in manifest.chunks)
        if len(payload) != manifest.payload_len:
            raise StoreIntegrityError(
                f"vm {vm_id!r} gen {manifest.generation}: reassembled "
                f"{len(payload)} bytes, manifest says {manifest.payload_len}"
            )
        if hashlib.sha256(payload).hexdigest() != manifest.payload_sha256:
            raise StoreIntegrityError(
                f"vm {vm_id!r} gen {manifest.generation}: payload digest "
                f"mismatch"
            )
        return payload, manifest

    # -- housekeeping ------------------------------------------------------

    def ls(self, vm_id: Optional[str] = None) -> dict:
        """Machine-readable listing: every vm, its generations, sizes.

        With ``vm_id`` the listing is scoped to that one vm — the same
        per-generation entries, absent if nothing is stored for it — and
        costs that vm's manifests only: no other vm is opened and the
        ``objects`` count (a walk of every chunk) is left out.

        No lock is taken, so a generation pruned or deleted between the
        directory scan and its read is skipped, not an error.
        """
        vms = {}
        for vm in self.vm_ids() if vm_id is None else [_check_vm_id(vm_id)]:
            gens = []
            for gen in self.generations(vm):
                try:
                    m = self.read_manifest(vm, gen)
                except StoreNotFoundError:
                    continue
                gens.append(
                    {
                        "generation": m.generation,
                        "payload_len": m.payload_len,
                        "chunks": len(m.chunks),
                        "created": m.created,
                        "meta": m.meta,
                    }
                )
            if gens:
                vms[vm] = gens
        if vm_id is not None:
            return {"vms": vms}
        return {"vms": vms, "objects": sum(1 for _ in self.iter_objects())}

    def prune(self, vm_id: str, keep_last: int) -> list[int]:
        """Drop all but the newest ``keep_last`` generations of a VM."""
        if keep_last < 1:
            raise StoreError("prune must keep at least one generation")
        with self._lock():
            gens = self.generations(vm_id)
            dropped = gens[:-keep_last]
            for gen in dropped:
                os.remove(self._manifest_path(vm_id, gen))
            if dropped:
                self.bump_epoch()
        return dropped

    def delete_manifest(self, vm_id: str, generation: int) -> bool:
        """Remove one generation's manifest (its chunks stay until gc).

        Used by fleet rebalancing after a manifest has been re-homed on
        its owner shard; returns whether anything was deleted.
        """
        with self._lock():
            try:
                os.remove(self._manifest_path(vm_id, generation))
            except FileNotFoundError:
                return False
            self.bump_epoch()
        return True

    def referenced_keys(self) -> set[str]:
        keys: set[str] = set()
        for vm_id in self.vm_ids():
            for gen in self.generations(vm_id):
                keys.update(self.read_manifest(vm_id, gen).chunks)
        return keys

    def gc(self) -> dict:
        """Delete every chunk no manifest references.

        Holds the store lock for the whole mark-and-sweep: the live set
        is computed from the manifests, so an interleaved commit could
        otherwise have its just-written chunks swept before its manifest
        lands.
        """
        with self._lock():
            live = self.referenced_keys()
            removed = 0
            bytes_freed = 0
            for key in list(self.iter_objects()):
                if key in live:
                    continue
                path = self._object_path(key)
                bytes_freed += os.path.getsize(path)
                os.remove(path)
                removed += 1
            self.bump_epoch()
        return {"removed": removed, "kept": len(live), "bytes_freed": bytes_freed}

    def sweep_keep(self, keep: set[str]) -> dict:
        """Delete every chunk *not* in ``keep``.

        The fleet-wide gc computes liveness across every shard's
        manifests (a shard's local manifests say nothing about which of
        its chunks other shards' manifests reference) and then hands
        each node exactly the keys it must retain.
        """
        with self._lock():
            removed = 0
            kept = 0
            bytes_freed = 0
            for key in list(self.iter_objects()):
                if key in keep:
                    kept += 1
                    continue
                path = self._object_path(key)
                bytes_freed += os.path.getsize(path)
                os.remove(path)
                removed += 1
            self.bump_epoch()
        return {"removed": removed, "kept": kept, "bytes_freed": bytes_freed}

    # -- integrity audit ---------------------------------------------------

    def audit(self, deep: bool = False, check_refs: bool = True) -> dict:
        """Verify every object and manifest; report problems.

        With ``deep``, additionally reassemble the latest generation of
        every VM whose payload carries the checkpoint magic and validate
        it through the same machine-readable description that
        ``repro info --json`` emits.  ``check_refs=False`` skips the
        manifest-references-present-chunk check: on a fleet shard the
        referenced chunks legitimately live on other nodes, and the
        fleet client's cross-shard audit owns that invariant instead.
        """
        problems: list[str] = []
        objects = 0
        for key in self.iter_objects():
            objects += 1
            try:
                self.get_object(key)
            except StoreError as e:
                problems.append(str(e))
        manifests = 0
        for vm_id in self.vm_ids():
            for gen in self.generations(vm_id):
                manifests += 1
                try:
                    m = self.read_manifest(vm_id, gen)
                except StoreError as e:
                    problems.append(f"vm {vm_id!r} gen {gen}: {e}")
                    continue
                if not check_refs:
                    continue
                for key in m.chunks:
                    if not self.has_object(key):
                        problems.append(
                            f"vm {vm_id!r} gen {gen}: missing chunk {key[:16]}..."
                        )
        report = {
            "objects": objects,
            "manifests": manifests,
            "problems": problems,
            "ok": not problems,
        }
        if deep:
            report["checkpoints"] = self._deep_audit(problems)
            report["ok"] = not problems
        return report

    def _deep_audit(self, problems: list[str]) -> dict:
        import tempfile

        from repro.checkpoint.inspect import describe_checkpoint
        from repro.checkpoint.schema import FormatProfile

        magic_prefix = FormatProfile.all()[0].magic[:4]
        described = {}
        for vm_id in self.vm_ids():
            try:
                payload, manifest = self.get_checkpoint(vm_id)
            except StoreError as e:
                problems.append(f"vm {vm_id!r}: {e}")
                continue
            if payload[:4] != magic_prefix:
                described[vm_id] = {"skipped": "not a checkpoint payload"}
                continue
            fd, path = tempfile.mkstemp(suffix=".hckp")
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(payload)
                desc = describe_checkpoint(path, deep=True)
                desc["generation"] = manifest.generation
                described[vm_id] = desc
                for p in desc.get("problems", []):
                    problems.append(f"vm {vm_id!r}: {p}")
            except Exception as e:  # a corrupt payload must not stop the audit
                problems.append(f"vm {vm_id!r}: unreadable checkpoint: {e}")
            finally:
                os.unlink(path)
        return described

