"""The upload's destruction-epoch bracket: destructive ops move shard
epochs, and an upload a gc raced is re-verified and re-sent."""

from __future__ import annotations

import pytest

from repro.metrics import FLEET
from repro.store import ChunkStore
from repro.store.fleet import FleetClient, FleetNode


@pytest.fixture(autouse=True)
def _reset_fleet_counters():
    FLEET.reset()
    yield
    FLEET.reset()


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
    """Every upload reads the shard epochs before it and after its
    commit."""

    def test_gc_epoch_bump_invalidates_caches(self, fleet):
        """A fleet gc sweeps every shard, so every shard's epoch moves
        and any upload it raced closes its bracket with a re-verify."""
        _nodes, client = fleet
        client.put_checkpoint("vmgc", payload_of(10))
        before = client._epochs()
        client.gc()
        assert client._epochs() == {n: e + 1 for n, e in before.items()}
        assert FLEET.stale_cache_retries == 0

    def test_prune_style_sweep_invalidates_on_next_sync(self, fleet):
        """A destructive op behind the client's back moves only the
        shard it ran on."""
        nodes, client = fleet
        client.put_checkpoint("vmp", payload_of(8))
        before = client._epochs()
        nodes[0].store.sweep_keep(set())
        after = client._epochs()
        node_addr = "%s:%d" % nodes[0].address
        assert {n for n in after if after[n] != before[n]} == {node_addr}
        assert after[node_addr] == before[node_addr] + 1

    def test_stale_cache_two_pass_recovery(self, fleet):
        """A gc racing an upload: the owners' "present" answers go stale
        after the opening epoch read.  The post-commit epoch check must
        catch it, re-verify every key, and re-upload the swept chunks."""
        nodes, client = fleet
        payload = payload_of(30)
        client.put_checkpoint("vmr", payload)  # every chunk now present

        real_commit = client._commit
        raced = {"done": False}

        def racing_commit(*args, **kwargs):
            if not raced["done"]:
                raced["done"] = True
                # the race: every shard sweeps everything mid-upload,
                # after HAS_MANY said "owner already has these chunks"
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
        # the "present" answers meant nothing was uploaded up front...
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
