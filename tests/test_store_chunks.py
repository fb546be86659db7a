"""Tests for the content-addressed chunk store (no network)."""

from __future__ import annotations

import hashlib
import json
import os
import random

import pytest

from repro.errors import StoreError, StoreIntegrityError, StoreNotFoundError
from repro.store.chunkstore import (
    ChunkStore,
    Manifest,
    PutStats,
    chunk_key,
)


@pytest.fixture
def store(tmp_path):
    return ChunkStore(str(tmp_path / "store"))


class TestObjects:
    def test_put_get_roundtrip(self, store):
        data = b"hello chunk store"
        key, was_new = store.put_object(data)
        assert was_new
        assert key == hashlib.sha256(data).hexdigest()
        assert store.get_object(key) == data

    def test_put_is_idempotent(self, store):
        data = os.urandom(1000)
        key1, new1 = store.put_object(data)
        key2, new2 = store.put_object(data)
        assert key1 == key2
        assert new1 and not new2
        assert sum(1 for _ in store.iter_objects()) == 1

    def test_missing_object_raises(self, store):
        with pytest.raises(StoreNotFoundError):
            store.get_object(chunk_key(b"never stored"))

    def test_corrupted_object_detected_on_read(self, store):
        key, _ = store.put_object(b"x" * 5000)
        path = store._object_path(key)
        raw = bytearray(open(path, "rb").read())
        raw[len(raw) // 2] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises((StoreIntegrityError, StoreError)):
            store.get_object(key)

    def test_empty_object(self, store):
        key, _ = store.put_object(b"")
        assert store.get_object(key) == b""


class TestCheckpoints:
    def test_put_get_checkpoint_roundtrip(self, store):
        payload = os.urandom(300_000)
        manifest, stats = store.put_checkpoint("vm/a", payload)
        assert manifest.generation == 1
        assert stats.bytes_total == len(payload)
        back, m2 = store.get_checkpoint("vm/a")
        assert back == payload
        assert m2.generation == 1

    def test_generations_increment(self, store):
        for i in range(3):
            store.put_checkpoint("vm", bytes([i]) * 10_000)
        assert store.generations("vm") == [1, 2, 3]
        back, m = store.get_checkpoint("vm", generation=2)
        assert back == b"\x01" * 10_000
        assert m.generation == 2

    def test_dedup_ratio_over_slowly_mutating_heap(self, store):
        """Acceptance: > 2x dedup across >= 5 consecutive checkpoints of
        a slowly-mutating payload (one chunk-sized region churns)."""
        rng = random.Random(42)
        payload = bytearray(rng.randbytes(512 * 1024))
        total = PutStats()
        for _ in range(5):
            # mutate ~4% of the payload, like a heap between checkpoints
            off = rng.randrange(0, len(payload) - 20_000)
            payload[off : off + 20_000] = rng.randbytes(20_000)
            _, stats = store.put_checkpoint("heap", bytes(payload))
            total.merge(stats)
        assert len(store.generations("heap")) == 5
        assert total.dedup_ratio > 2.0

    def test_identical_payload_reuses_generation(self, store):
        """A retried upload of the same payload must not mint a new
        generation — this is what makes client retries idempotent."""
        payload = os.urandom(100_000)
        m1, _ = store.put_checkpoint("vm", payload)
        m2, stats = store.put_checkpoint("vm", payload)
        assert m2.generation == m1.generation
        assert store.generations("vm") == [1]
        assert stats.bytes_new == 0

    def test_integrity_verified_on_read(self, store):
        payload = os.urandom(200_000)
        manifest, _ = store.put_checkpoint("vm", payload)
        victim = manifest.chunks[1]
        path = store._object_path(victim)
        raw = bytearray(open(path, "rb").read())
        raw[10] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises((StoreIntegrityError, StoreError)):
            store.get_checkpoint("vm")

    def test_manifest_chunks_must_exist(self, store):
        with pytest.raises(StoreError):
            store.commit_manifest(
                "vm", [chunk_key(b"ghost")], payload_len=5,
                payload_sha256=hashlib.sha256(b"ghost").hexdigest(),
            )

    def test_bad_vm_id_rejected(self, store):
        for bad in ("", "../escape", "a//b", "semi;colon", "sp ace"):
            with pytest.raises(StoreError):
                store.put_checkpoint(bad, b"data")

    def test_empty_payload_roundtrip(self, store):
        manifest, _ = store.put_checkpoint("vm", b"")
        back, _ = store.get_checkpoint("vm")
        assert back == b""
        assert manifest.payload_len == 0

    def test_missing_vm_raises_not_found(self, store):
        with pytest.raises(StoreNotFoundError):
            store.get_checkpoint("nobody")


class TestMaintenance:
    def test_ls_reports_every_generation(self, store):
        store.put_checkpoint("a", b"1" * 1000)
        store.put_checkpoint("a", b"2" * 1000)
        store.put_checkpoint("b", b"3" * 1000, meta={"platform": "csd"})
        listing = store.ls()
        assert set(listing["vms"]) == {"a", "b"}
        assert [g["generation"] for g in listing["vms"]["a"]] == [1, 2]
        assert listing["vms"]["b"][0]["meta"] == {"platform": "csd"}

    def test_ls_scoped_to_one_vm_reads_only_that_vm(self, store, monkeypatch):
        store.put_checkpoint("a", b"1" * 1000)
        store.put_checkpoint("a", b"2" * 1000)
        store.put_checkpoint("b", b"3" * 1000)
        whole = store.ls()
        read, opened = ChunkStore.read_manifest, []

        def watched(self, vm_id, generation=None):
            opened.append((vm_id, generation))
            return read(self, vm_id, generation)

        monkeypatch.setattr(ChunkStore, "read_manifest", watched)
        monkeypatch.setattr(
            ChunkStore, "iter_objects",
            lambda self: pytest.fail("a scoped listing walked the objects"),
        )
        assert store.ls("a") == {"vms": {"a": whole["vms"]["a"]}}
        assert opened == [("a", 1), ("a", 2)]
        assert store.ls("nobody") == {"vms": {}}
        with pytest.raises(StoreError, match="invalid vm id"):
            store.ls("../escape")

    @pytest.mark.parametrize("scope", [None, "a"])
    def test_ls_skips_a_generation_that_vanishes_under_it(
        self, store, monkeypatch, scope
    ):
        """``ls`` takes no lock: a prune or DEL_MANIFEST can land between
        its directory scan and a manifest read.  That generation is left
        out; the listing (and any lease read riding on it) survives."""
        for i in range(3):
            store.put_checkpoint("a", bytes([i]) * 1000)
        store.put_checkpoint("b", b"b" * 1000)
        read = ChunkStore.read_manifest

        def racing(self, vm_id, generation=None):
            if (vm_id, generation) == ("a", 2):
                self.delete_manifest("a", 2)  # the concurrent prune
            return read(self, vm_id, generation)

        monkeypatch.setattr(ChunkStore, "read_manifest", racing)
        listing = store.ls(scope)
        assert [g["generation"] for g in listing["vms"]["a"]] == [1, 3]
        assert ("b" in listing["vms"]) == (scope is None)

    def test_read_manifest_errors_name_what_is_stored(self, store):
        with pytest.raises(StoreNotFoundError, match="no checkpoints stored"):
            store.read_manifest("vm", 1)
        store.put_checkpoint("vm", b"x" * 100)
        with pytest.raises(StoreNotFoundError, match=r"no generation 7 \(has \[1\]\)"):
            store.read_manifest("vm", 7)
        assert store.read_manifest("vm").generation == 1

    def test_prune_and_gc(self, store):
        for i in range(4):
            store.put_checkpoint("vm", os.urandom(100_000))
        n_before = sum(1 for _ in store.iter_objects())
        dropped = store.prune("vm", keep_last=1)
        assert dropped == [1, 2, 3]
        assert store.generations("vm") == [4]
        report = store.gc()
        assert report["removed"] > 0
        assert sum(1 for _ in store.iter_objects()) < n_before
        # the surviving generation still reads back fine
        store.get_checkpoint("vm")

    def test_gc_keeps_shared_chunks(self, store):
        shared = os.urandom(150_000)
        store.put_checkpoint("a", shared)
        store.put_checkpoint("b", shared)
        store.prune("a", keep_last=1)  # no-op, one gen
        # drop every generation of b by pruning down after adding one more
        store.put_checkpoint("b", os.urandom(1000))
        store.prune("b", keep_last=1)
        store.gc()
        back, _ = store.get_checkpoint("a")
        assert back == shared

    def test_audit_clean_and_after_corruption(self, store):
        store.put_checkpoint("vm", os.urandom(100_000))
        report = store.audit()
        assert report["ok"] and report["problems"] == []
        key = next(iter(store.iter_objects()))
        path = store._object_path(key)
        raw = bytearray(open(path, "rb").read())
        raw[-1] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        report = store.audit()
        assert not report["ok"]
        assert report["problems"]


class TestManifestFormat:
    def test_json_roundtrip(self, store):
        payload = os.urandom(50_000)
        manifest, _ = store.put_checkpoint("vm", payload, meta={"x": 1})
        again = Manifest.from_json(manifest.to_json())
        assert again == manifest

    def test_manifest_json_is_stable(self, store):
        manifest, _ = store.put_checkpoint("vm", b"abc")
        doc = json.loads(manifest.to_json())
        for field in ("vm_id", "generation", "chunk_size", "payload_len",
                      "payload_sha256", "chunks", "meta", "created"):
            assert field in doc


class TestPutStats:
    def test_dedup_ratio_full_dedup(self):
        s = PutStats(chunks_total=4, chunks_new=0, bytes_total=100, bytes_new=0)
        assert s.dedup_ratio == float("inf")

    def test_dedup_ratio_no_dedup(self):
        s = PutStats(chunks_total=2, chunks_new=2, bytes_total=50, bytes_new=50)
        assert s.dedup_ratio == 1.0

    def test_merge(self):
        a = PutStats(chunks_total=1, chunks_new=1, bytes_total=10, bytes_new=10)
        a.merge(PutStats(chunks_total=3, chunks_new=1, bytes_total=30, bytes_new=5))
        assert (a.chunks_total, a.chunks_new) == (4, 2)
        assert (a.bytes_total, a.bytes_new) == (40, 15)


class TestDirectoryLock:
    """The gc/prune vs concurrent-commit exclusion (PR 3 satellite)."""

    def test_second_lock_waits_while_held_and_acquires_after_release(
        self, tmp_path
    ):
        from repro.store.chunkstore import DirectoryLock

        lock_path = str(tmp_path / ".lock")
        holder = DirectoryLock(lock_path)
        holder.acquire()
        with pytest.raises(StoreError, match="timed out"):
            DirectoryLock(lock_path, timeout=0.1).acquire()
        holder.release()
        waiter = DirectoryLock(lock_path, timeout=0.1)
        waiter.acquire()
        waiter.release()

    def test_with_block_excludes_and_releases(self, tmp_path):
        from repro.store.chunkstore import DirectoryLock

        lock_path = str(tmp_path / ".lock")
        with DirectoryLock(lock_path):
            with pytest.raises(StoreError, match="timed out"):
                DirectoryLock(lock_path, timeout=0.1).acquire()
        with DirectoryLock(lock_path, timeout=0.1):
            pass

    def test_no_file_is_created_or_removed_per_operation(self, tmp_path):
        store = ChunkStore(str(tmp_path / "store"))
        store.put_checkpoint("vm", b"first")
        lock_path = str(tmp_path / "store" / ".lock")
        inode = os.stat(lock_path).st_ino
        store.put_checkpoint("vm", b"second")
        store.claim("vm.lease", "node", 0)
        store.gc()
        assert os.stat(lock_path).st_ino == inode

    def test_live_holder_is_never_broken(self, tmp_path):
        """However old the lock file looks, a holder that is alive keeps
        the lock: a waiter times out instead of sweeping beside it."""
        from repro.store.chunkstore import DirectoryLock

        lock_path = str(tmp_path / ".lock")
        holder = DirectoryLock(lock_path)
        holder.acquire()
        old = os.path.getmtime(lock_path) - 120
        os.utime(lock_path, (old, old))
        with pytest.raises(StoreError, match="timed out"):
            DirectoryLock(lock_path, timeout=0.2).acquire()
        holder.release()

    def test_dead_holder_frees_the_lock_at_once(self, tmp_path):
        """A process that dies holding the lock — no release, no
        cleanup — leaves it free for the next waiter immediately."""
        from repro.store.chunkstore import DirectoryLock

        lock_path = str(tmp_path / ".lock")
        ready_r, ready_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: take the lock and die holding it
            try:
                DirectoryLock(lock_path).acquire()
                os.write(ready_w, b"held")
            finally:
                os._exit(0)
        os.close(ready_w)
        try:
            assert os.read(ready_r, 4) == b"held"
        finally:
            os.close(ready_r)
            os.waitpid(pid, 0)
        lock = DirectoryLock(lock_path, timeout=0.2)
        lock.acquire()
        lock.release()

    def test_contended_lock_times_out(self, tmp_path):
        from repro.store.chunkstore import DirectoryLock

        lock_path = str(tmp_path / ".lock")
        holder = DirectoryLock(lock_path)
        holder.acquire()
        waiter = DirectoryLock(lock_path, timeout=0.1)
        with pytest.raises(StoreError, match="timed out"):
            waiter.acquire()
        holder.release()

    def test_not_reentrant(self, tmp_path):
        from repro.store.chunkstore import DirectoryLock

        lock = DirectoryLock(str(tmp_path / ".lock"))
        lock.acquire()
        with pytest.raises(StoreError, match="not reentrant"):
            lock.acquire()
        lock.release()

    def test_stale_lock_broken(self, tmp_path):
        from repro.store.chunkstore import DirectoryLock

        lock_path = str(tmp_path / ".lock")
        with open(lock_path, "w") as f:
            f.write("99999 0\n")
        old = os.path.getmtime(lock_path) - 120
        os.utime(lock_path, (old, old))
        lock = DirectoryLock(lock_path, timeout=1.0)
        lock.acquire()  # an abandoned file is no lock: nothing holds it
        lock.release()

    def test_gc_blocked_while_commit_holds_lock(self, tmp_path):
        store = ChunkStore(str(tmp_path / "store"), lock_timeout=0.1)
        store.put_checkpoint("vm", os.urandom(100_000))
        with store._lock():
            with pytest.raises(StoreError, match="timed out"):
                store.gc()
        # Lock released: the sweep runs (and deletes nothing live).
        report = store.gc()
        assert report["removed"] == 0

    def test_commit_waits_for_gc_then_proceeds(self, tmp_path):
        import threading

        store = ChunkStore(str(tmp_path / "store"), lock_timeout=5.0)
        lock = store._lock()
        lock.acquire()
        done = []

        def commit():
            done.append(store.put_checkpoint("vm", os.urandom(50_000)))

        t = threading.Thread(target=commit)
        t.start()
        t.join(timeout=0.2)
        assert t.is_alive(), "commit must block while the lock is held"
        lock.release()
        t.join(timeout=5.0)
        assert not t.is_alive() and len(done) == 1
        manifest, _stats = done[0]
        assert store.read_manifest("vm", manifest.generation) is not None

    def test_prune_takes_the_lock(self, tmp_path):
        store = ChunkStore(str(tmp_path / "store"), lock_timeout=0.1)
        for _ in range(3):
            store.put_checkpoint("vm", os.urandom(10_000))
        with store._lock():
            with pytest.raises(StoreError, match="timed out"):
                store.prune("vm", keep_last=1)
        assert len(store.prune("vm", keep_last=1)) == 2
