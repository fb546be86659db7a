"""Presence-cache semantics: hits, epoch invalidation, stale recovery."""

from __future__ import annotations

import os

import pytest

from repro.metrics import FLEET
from repro.store import ChunkStore
from repro.store.chunkstore import chunk_key
from repro.store.fleet import FleetClient, FleetNode, PresenceCache


@pytest.fixture(autouse=True)
def _reset_fleet_counters():
    FLEET.reset()
    yield
    FLEET.reset()


class TestPresenceCacheUnit:
    def test_positive_and_negative_hits(self):
        cache = PresenceCache()
        assert cache.lookup("aa") is None  # cold: a miss
        cache.note_present(["aa"])
        cache.note_absent(["bb"])
        assert cache.lookup("aa") is True
        assert cache.lookup("bb") is False
        assert cache.hits == 2 and cache.misses == 1
        assert cache.stats()["hit_rate"] == pytest.approx(2 / 3)

    def test_notes_move_keys_between_sets(self):
        cache = PresenceCache()
        cache.note_absent(["k"])
        cache.note_present(["k"])  # the put happened
        assert cache.lookup("k") is True
        cache.note_absent(["k"])  # the sweep happened
        assert cache.lookup("k") is False

    def test_epoch_sync_first_observation_keeps_entries(self):
        cache = PresenceCache()
        cache.note_present(["k"])
        assert cache.sync_epoch(5) is False  # first sync just records
        assert cache.lookup("k") is True

    def test_epoch_movement_invalidates(self):
        cache = PresenceCache()
        cache.sync_epoch(1)
        cache.note_present(["k1"])
        cache.note_absent(["k2"])
        assert cache.sync_epoch(2) is True
        assert cache.lookup("k1") is None
        assert cache.lookup("k2") is None
        assert cache.invalidations == 1
        assert FLEET.cache_invalidations == 1

    def test_stable_epoch_keeps_entries(self):
        cache = PresenceCache()
        cache.sync_epoch(3)
        cache.note_present(["k"])
        assert cache.sync_epoch(3) is False
        assert cache.lookup("k") is True

    def test_bounded_size_resets(self):
        cache = PresenceCache(max_entries=4)
        cache.note_present([f"p{i}" for i in range(3)])
        cache.note_absent([f"a{i}" for i in range(3)])  # 6 > 4: reset
        assert len(cache) == 0


@pytest.fixture
def fleet(tmp_path):
    nodes = [
        FleetNode(ChunkStore(str(tmp_path / f"shard-{i}")), node_id=f"s{i}")
        for i in range(3)
    ]
    for node in nodes:
        node.start()
    client = FleetClient(
        [node.address for node in nodes], backoff=0.01, chunk_size=1024
    )
    yield nodes, client
    client.close()
    for node in nodes:
        node.stop()


def payload_of(n: int, stamp: bytes = b"A") -> bytes:
    """``n`` distinct 1024-byte chunks (matching the fixture chunk_size)."""
    return b"".join(
        stamp + i.to_bytes(3, "big") + bytes(1020) for i in range(n)
    )


class TestFleetCacheIntegration:
    def test_repeat_upload_is_fully_cache_served(self, fleet):
        _nodes, client = fleet
        payload = payload_of(40)
        gen1, stats1 = client.put_checkpoint("vmc", payload)
        assert stats1.chunks_new == stats1.chunks_total == 40
        hits_before = FLEET.cache_hits
        gen2, stats2 = client.put_checkpoint("vmc", payload)
        # identical payload: the commit is idempotent (same generation)
        assert gen2 == gen1
        assert stats2.chunks_new == 0
        # every unique chunk answered from cache: no has_many round trip
        assert FLEET.cache_hits - hits_before == 40

    def test_negative_entries_skip_presence_query(self, fleet):
        _nodes, client = fleet
        keys = [chunk_key(bytes([i]) * 100) for i in range(5)]
        for node, cache in client.caches.items():
            cache.sync_epoch(0)
        # seed negative answers for keys the fleet has never seen
        for key in keys:
            client.caches[client.chunk_node(key)].note_absent([key])
        hits_before = FLEET.cache_hits
        payload = b"".join(bytes([i]) * 100 for i in range(5))
        saved = client.chunk_size
        client.chunk_size = 100
        try:
            _gen, stats = client.put_checkpoint("vmneg", payload)
        finally:
            client.chunk_size = saved
        assert stats.chunks_new == 5  # negative hit -> straight to put
        assert FLEET.cache_hits - hits_before == 5

    def test_gc_epoch_bump_invalidates_caches(self, fleet):
        _nodes, client = fleet
        client.put_checkpoint("vmgc", payload_of(10))
        assert any(len(c) for c in client.caches.values())
        client.gc()  # sweeps (epoch bump on every shard) + drops caches
        assert all(len(c) == 0 for c in client.caches.values())
        inval_before = FLEET.cache_invalidations
        # next upload re-syncs epochs; caches were dropped locally so
        # sync just re-records — but a *fresh* client with stale state
        # would invalidate:
        other = FleetClient(
            [f"{h}:{p}" for h, p in (n.address for n in _nodes)],
            backoff=0.01,
        )
        try:
            other._sync_epochs()  # records current epochs
            for node in other.nodes:
                # simulate having synced before the gc
                other.caches[node].epoch = -1
            other._sync_epochs()
            assert FLEET.cache_invalidations - inval_before == len(other.nodes)
        finally:
            other.close()

    def test_prune_style_sweep_invalidates_on_next_sync(self, fleet):
        nodes, client = fleet
        client.put_checkpoint("vmp", payload_of(8))
        client._sync_epochs()
        # destructive op behind the client's back: external sweep
        nodes[0].store.sweep_keep(set())
        invalidated = client._sync_epochs()
        assert client.caches is not None
        node_addr = "%s:%d" % nodes[0].address
        assert invalidated[node_addr] == 1
        assert len(client.caches[node_addr]) == 0

    def test_stale_cache_two_pass_recovery(self, fleet):
        """A gc racing an upload: positive cache entries go stale after
        the opening epoch read.  The post-commit epoch check must catch
        it, re-verify every key, and re-upload the swept chunks."""
        nodes, client = fleet
        payload = payload_of(30)
        client.put_checkpoint("vmr", payload)  # fills positive caches

        real_commit = client._commit
        raced = {"done": False}

        def racing_commit(*args, **kwargs):
            if not raced["done"]:
                raced["done"] = True
                # the race: every shard sweeps everything mid-upload,
                # after the cache said "owner already has these chunks"
                for node in nodes:
                    node.store.sweep_keep(set())
            return real_commit(*args, **kwargs)

        client._commit = racing_commit
        try:
            gen, stats = client.put_checkpoint("vmr", payload)
        finally:
            client._commit = real_commit
        assert raced["done"]
        assert FLEET.stale_cache_retries == 1
        # the cached-positive fast path uploaded nothing up front...
        assert stats.chunks_new == 0
        # ...but the recovery pass re-sent every chunk, so the fleet
        # reassembles the checkpoint bit-identically
        got, manifest = client.get_checkpoint("vmr", gen)
        assert got == payload
        assert client.audit(deep=True)["ok"]

    def test_stale_recovery_raises_when_source_cannot_reupload(self, fleet):
        from repro.errors import StoreNotFoundError

        nodes, client = fleet
        payload = payload_of(6)
        client.put_checkpoint("vms", payload)

        real_commit = client._commit
        raced = {"done": False}

        def racing_commit(*args, **kwargs):
            out = real_commit(*args, **kwargs)
            if not raced["done"]:
                raced["done"] = True
                for node in nodes:
                    node.store.sweep_keep(set())
            return out

        client._commit = racing_commit
        # sabotage the recovery source too: the re-read iterator yields
        # nothing, as if the checkpoint file were deleted mid-upload
        orig_verify = client._verify_after_commit

        def broken_verify(epochs_before, keys, make_iter):
            return orig_verify(epochs_before, keys, lambda: iter(()))

        client._verify_after_commit = broken_verify
        try:
            with pytest.raises(StoreNotFoundError, match="vanished"):
                client.put_checkpoint("vms", payload)
        finally:
            client._commit = real_commit
            client._verify_after_commit = orig_verify

    def test_cache_disabled_still_correct(self, tmp_path):
        nodes = [
            FleetNode(ChunkStore(str(tmp_path / f"nc-{i}")), node_id=f"n{i}")
            for i in range(2)
        ]
        for node in nodes:
            node.start()
        client = FleetClient(
            [node.address for node in nodes], cache=False, backoff=0.01,
            chunk_size=512,
        )
        try:
            payload = payload_of(12)
            gen, stats = client.put_checkpoint("vmnc", payload)
            assert client.caches is None
            got, _m = client.get_checkpoint("vmnc", gen)
            assert got == payload
        finally:
            client.close()
            for node in nodes:
                node.stop()
