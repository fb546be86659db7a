"""The sharded fleet end to end: routing, HA at scale, rebalancing, CLI."""

from __future__ import annotations

import json
import threading

import pytest

from repro import VMConfig, VirtualMachine, compile_source, get_platform
from repro.errors import StoreNotFoundError, StoreProtocolError
from repro.metrics import FLEET
from repro.store import ChunkStore, HASupervisor
from repro.store.chunkstore import chunk_key
from repro.store import protocol as P
from repro.store.fleet import FleetClient, FleetNode

WORKLOAD = """
let limit = 40000;;
let total = ref 0;;
let i = ref 0;;
while !i < limit do
  i := !i + 1;
  total := !total + !i
done;;
print_string "sum = ";;
print_int !total
"""


@pytest.fixture(scope="module")
def code():
    return compile_source(WORKLOAD)


@pytest.fixture(scope="module")
def expected(code):
    vm = VirtualMachine(
        get_platform("rodrigo"), code, VMConfig(chkpt_state="disable")
    )
    return vm.run().stdout


@pytest.fixture
def fleet3(tmp_path):
    nodes = [
        FleetNode(ChunkStore(str(tmp_path / f"shard-{i}")), node_id=f"s{i}")
        for i in range(3)
    ]
    for node in nodes:
        node.start()
    addrs = [node.address for node in nodes]
    client = FleetClient(addrs, backoff=0.01, chunk_size=4096)
    yield nodes, addrs, client
    client.close()
    for node in nodes:
        node.stop()


def addr_str(addrs):
    return ",".join(f"{h}:{p}" for h, p in addrs)


def distinct_payload(n_chunks: int, chunk_size: int = 4096) -> bytes:
    """``n_chunks`` distinct chunks (a counter stamp defeats dedup)."""
    return b"".join(
        i.to_bytes(4, "big") + bytes(chunk_size - 4) for i in range(n_chunks)
    )


class TestFleetService:
    def test_roundtrip_and_sharding(self, fleet3):
        nodes, _addrs, client = fleet3
        payload = distinct_payload(38)
        gen, stats = client.put_checkpoint("vmx", payload)
        assert stats.chunks_total >= 30
        # the chunks actually spread across shards
        per_shard = [sum(1 for _ in n.store.iter_objects())
                     for n in nodes]
        assert sum(per_shard) == stats.chunks_new
        assert sum(1 for c in per_shard if c > 0) >= 2, per_shard
        got, manifest = client.get_checkpoint("vmx", gen)
        assert got == payload
        assert manifest.payload_len == len(payload)

    def test_put_hashes_each_new_chunk_once_per_side(
        self, fleet3, monkeypatch
    ):
        """The uploader addresses each chunk once and the shard checks
        the declared address once; neither hashes it again on the way to
        the wire or to disk.  (The shards run in this process, so both
        sides are counted here.)"""
        import repro.store.chunkstore as chunkstore
        import repro.store.client as store_client
        import repro.store.fleet.client as fleet_client
        import repro.store.server as server

        real = chunkstore.chunk_key
        hashed = {}

        def counting_for(name):
            def chunk_key(data):
                hashed[name] = hashed.get(name, 0) + 1
                return real(data)
            return chunk_key

        for module in (fleet_client, store_client, server, chunkstore):
            monkeypatch.setattr(
                module, "chunk_key", counting_for(module.__name__)
            )
        _nodes, _addrs, client = fleet3
        n = 38
        _gen, stats = client.put_checkpoint("vmh", distinct_payload(n))
        assert stats.chunks_new == stats.chunks_total == n
        assert hashed == {fleet_client.__name__: n, server.__name__: n}
        # A corrupt put is still refused where it always was.
        bad = store_client.P.encode_chunk(bytes(32), b"not what it says")
        with pytest.raises(StoreProtocolError, match="declared digest"):
            client.nodes[sorted(client.nodes)[0]]._call(
                store_client.P.OP_PUT_CHUNK, bad
            )

    def test_shard_follower_is_not_failed_by_chunks_elsewhere(
        self, tmp_path
    ):
        """A shard with a follower cannot ship a manifest whose chunks
        live on the other shard: it skips it, says why, and the healthy
        follower stays alive and still gets what the shard can ship."""
        follower = FleetNode(ChunkStore(str(tmp_path / "follower")))
        follower.start()
        shards = [
            FleetNode(ChunkStore(str(tmp_path / "s0")), node_id="s0",
                      replicas=[follower.address], heartbeat_interval=60.0),
            FleetNode(ChunkStore(str(tmp_path / "s1")), node_id="s1"),
        ]
        for node in shards:
            node.start()
        client = FleetClient([n.address for n in shards], backoff=0.01,
                             chunk_size=4096)
        try:
            s0 = "%s:%d" % shards[0].address
            owned = [v for v in (f"vm{i}" for i in range(64))
                     if client.manifest_node(v) == s0]
            for n, vm_id in enumerate(owned[:3]):
                payload = distinct_payload(32)
                client.put_checkpoint(vm_id, bytes([n]) + payload[1:])
            primary = shards[0]
            assert primary.replication_failures == 0
            assert primary.followers[0].alive
            assert primary.replication_skips == 3
            assert "live on other shards" in (
                primary.stats()["last_replication_skip"]
            )
            # A manifest whose one chunk this shard owns still ships.
            small = next(
                p for p in (b"one chunk %d" % i for i in range(256))
                if client.chunk_node(chunk_key(p)) == s0
            )
            client.put_checkpoint(owned[3], small)
            assert follower.store.generations(owned[3]) == [1]
            assert primary.replication_skips == 3
        finally:
            client.close()
            for node in [*shards, follower]:
                node.stop()

    def test_ls_merges_shards(self, fleet3):
        _nodes, _addrs, client = fleet3
        client.put_checkpoint("vm-a", b"a" * 9000)
        client.put_checkpoint("vm-b", b"b" * 9000)
        listing = client.ls()
        assert set(listing["vms"]) == {"vm-a", "vm-b"}

    def test_manifest_latest_is_fleet_wide(self, fleet3):
        _nodes, _addrs, client = fleet3
        client.put_checkpoint("vmgen", b"g1" * 3000)
        gen2, _ = client.put_checkpoint("vmgen", b"g2" * 3000)
        assert client.get_manifest("vmgen").generation == gen2
        with pytest.raises(StoreNotFoundError):
            client.get_manifest("never-stored")

    def test_fleet_gc_keeps_cross_shard_references(self, fleet3):
        nodes, _addrs, client = fleet3
        payload = distinct_payload(25)
        gen, stats = client.put_checkpoint("vmgc", payload)
        report = client.gc()
        assert report["removed"] == 0
        assert report["kept"] == stats.chunks_new
        got, _m = client.get_checkpoint("vmgc", gen)
        assert got == payload
        # a shard-local gc would have been wrong: manifests on other
        # shards reference this shard's chunks
        assert client.audit(deep=True)["ok"]

    def test_daemon_gc_request_leaves_the_fleet_whole(self, fleet3):
        """A shard-local mark cannot see the other shards' manifests, so
        no daemon serves ``GC`` (nor ``HAS_CHUNK``, which no client
        sends): each answers the typed unknown-opcode error, and the
        fleet still deep-audits clean after every shard was asked."""
        _nodes, _addrs, client = fleet3
        payload = distinct_payload(64)
        gen, _stats = client.put_checkpoint("vmgcop", payload)
        assert client.audit(deep=True)["ok"]
        refused = []
        for node in client.nodes.values():
            for op, body in ((P.OP_GC, b""), (P.OP_HAS_CHUNK, bytes(32))):
                try:
                    node._call(op, body)
                except StoreProtocolError as e:
                    refused.append(str(e))
        assert client.audit(deep=True)["ok"]
        assert refused == [
            "unknown opcode 0x08", "unknown opcode 0x02"
        ] * len(client.nodes)
        got, _m = client.get_checkpoint("vmgcop", gen)
        assert got == payload


class TestConcurrentHA:
    def test_eight_supervisors_with_crash_failover(
        self, code, expected, fleet3, tmp_path
    ):
        """Acceptance: a 3-shard fleet serves >= 8 concurrent
        supervisors, each crash-injected and restarted across
        endianness/word-size, all restoring bit-identically."""
        _nodes, addrs, _client = fleet3
        n_workers = 8
        reports: dict[int, object] = {}
        errors: list[Exception] = []

        def worker(idx: int) -> None:
            try:
                with FleetClient(addrs, backoff=0.01,
                                 chunk_size=8192) as client:
                    reports[idx] = HASupervisor(
                        code,
                        client,
                        f"ha-fleet-{idx}",
                        start_platform="rodrigo",
                        checkpoint_every=15_000,
                        fault_budgets=(20_000, 60_000),
                        max_faults=2,
                        seed=100 + idx,
                    ).run()
            except Exception as e:  # pragma: no cover - surfaced below
                errors.append(e)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors, errors
        assert len(reports) == n_workers
        hetero_hops = 0
        for idx, report in reports.items():
            assert report.completed, f"worker {idx} did not complete"
            assert report.stdout == expected, f"worker {idx} output differs"
            assert report.faults_injected == 2
            hops = zip(report.platforms_visited,
                       report.platforms_visited[1:])
            for a, b in hops:
                pa, pb = get_platform(a), get_platform(b)
                if (pa.arch.endianness is not pb.arch.endianness
                        and pa.arch.word_bytes != pb.arch.word_bytes):
                    hetero_hops += 1
        assert hetero_hops > 0
        # afterwards the fleet is still coherent
        with FleetClient(addrs, backoff=0.01) as client:
            assert client.audit(deep=True)["ok"]


class TestRebalance:
    def test_node_join_moves_bounded_and_audits_clean(self, fleet3, tmp_path):
        nodes, addrs, client = fleet3
        payload = distinct_payload(50)
        gen, stats = client.put_checkpoint("vmjoin", payload)
        total = stats.chunks_new

        joiner = FleetNode(
            ChunkStore(str(tmp_path / "shard-new")), node_id="s3"
        )
        joiner.start()
        try:
            grown = FleetClient(
                addrs + [joiner.address], backoff=0.01,
                chunk_size=client.chunk_size,
            )
            try:
                # before rebalancing, placement is (correctly) dirty
                assert not grown.audit()["ok"]
                report = grown.rebalance()
                # consistent hashing: ~1/4 of the keys move, not all
                assert 0 < report["chunks_moved"] < total
                assert grown.audit(deep=True)["ok"]
                got, _m = grown.get_checkpoint("vmjoin", gen)
                assert got == payload
            finally:
                grown.close()
        finally:
            joiner.stop()

    def test_upload_after_join_is_refused_until_rebalanced(
        self, fleet3, tmp_path
    ):
        """A shard joins and a vm's owner moves: the new owner would
        number the next upload generation 1, behind the acked generation
        2 on the old owner.  The upload is refused, typed, naming the
        rebalance, and no shard keeps it; after the rebalance the same
        upload lands as generation 3."""
        _nodes, addrs, client = fleet3
        joiner = FleetNode(
            ChunkStore(str(tmp_path / "shard-new")), node_id="s3"
        )
        joiner.start()
        try:
            with FleetClient(
                addrs + [joiner.address], backoff=0.01,
                chunk_size=client.chunk_size,
            ) as grown:
                vm_id = next(
                    f"vm{i}" for i in range(1000)
                    if client.manifest_node(f"vm{i}")
                    != grown.manifest_node(f"vm{i}")
                )
                owner = grown.nodes[grown.manifest_node(vm_id)]
                client.put_checkpoint(vm_id, b"old one")
                assert client.put_checkpoint(vm_id, b"old two")[0] == 2
                with pytest.raises(
                    StoreNotFoundError, match="repro store fleet rebalance"
                ):
                    grown.put_checkpoint(vm_id, b"NEWEST after join")
                assert owner.ls(vm_id) == {"vms": {}}
                got, manifest = grown.get_checkpoint(vm_id)
                assert (got, manifest.generation) == (b"old two", 2)
                grown.rebalance()
                gen, _ = grown.put_checkpoint(vm_id, b"NEWEST after join")
                assert gen == 3
                got, _m = grown.get_checkpoint(vm_id)
                assert got == b"NEWEST after join"
                assert grown.audit(deep=True)["ok"]
        finally:
            joiner.stop()

    def test_node_drain_empties_it(self, fleet3):
        nodes, addrs, client = fleet3
        payload = distinct_payload(30)
        gen, _stats = client.put_checkpoint("vmdrain", payload)
        drained_addr = "%s:%d" % nodes[0].address
        shrunk = FleetClient(addrs, drain=[drained_addr], backoff=0.01,
                             chunk_size=client.chunk_size)
        try:
            shrunk.rebalance()
            assert sum(1 for _ in nodes[0].store.iter_objects()) == 0
            assert shrunk.audit(deep=True)["ok"]
            got, _m = shrunk.get_checkpoint("vmdrain", gen)
            assert got == payload
        finally:
            shrunk.close()


class TestFleetCLI:
    def test_stat_rebalance_audit(self, fleet3, tmp_path, capsys):
        from repro.cli import main

        _nodes, addrs, client = fleet3
        client.put_checkpoint("vmcli", b"cli" * 5000)
        addr = addr_str(addrs)

        assert main(["store", "stat", "--json", "--addr", addr]) == 0
        stat = json.loads(capsys.readouterr().out)
        assert set(stat["shards"]) == set(addr.split(","))
        assert sum(stat["ring"]["ownership"].values()) == pytest.approx(1.0)
        assert stat["ring"]["vnodes"] == 64

        assert main(["store", "fleet", "rebalance", "--addr", addr]) == 0
        assert "rebalance:" in capsys.readouterr().out

        assert main(["store", "audit", "--deep", "--addr", addr]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["manifests"] >= 1

    def test_store_commands_route_through_fleet(self, fleet3, tmp_path,
                                                capsys):
        from repro.cli import main

        _nodes, addrs, _client = fleet3
        addr = addr_str(addrs)
        blob = tmp_path / "payload.bin"
        blob.write_bytes(bytes(range(256)) * 300)

        assert main(["store", "put", "--addr", addr, "vmfile",
                     str(blob)]) == 0
        capsys.readouterr()
        assert main(["store", "ls", "--addr", addr]) == 0
        assert "vmfile" in capsys.readouterr().out
        out_path = tmp_path / "restored.bin"
        assert main(["store", "get", "--addr", addr, "vmfile",
                     str(out_path)]) == 0
        assert out_path.read_bytes() == blob.read_bytes()

    def test_stat_json_flag(self, fleet3, capsys):
        from repro.cli import main

        _nodes, addrs, client = fleet3
        client.put_checkpoint("vmstat", b"s" * 20000)
        addr = addr_str(addrs)
        # human summary without --json
        assert main(["store", "stat", "--addr", addr]) == 0
        human = capsys.readouterr().out
        assert "ring:" in human and "object(s)" in human
        # machine detail with --json
        assert main(["store", "stat", "--addr", addr, "--json"]) == 0
        stat = json.loads(capsys.readouterr().out)
        for section in ("shards", "ring", "fleet_counters"):
            assert section in stat
        assert "ranges" in stat["ring"]

    def test_info_json_reports_counters(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "prog.ml"
        src.write_text("let x = 6 * 7;;\ncheckpoint ();;\nprint_int x")
        ckpt = tmp_path / "prog.hckp"
        assert main(["run", str(src), "--checkpoint", str(ckpt),
                     "--mode", "blocking"]) == 0
        capsys.readouterr()
        assert main(["info", str(ckpt), "--json"]) == 0
        desc = json.loads(capsys.readouterr().out)
        assert "transport_retries" in desc["store_counters"]
        assert "stale_cache_retries" in desc["fleet_counters"]
        assert "batches_sent" in desc["fleet_counters"]
