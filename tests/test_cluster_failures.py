"""Cluster failure paths: deadlock detection, mailbox survival, store C/R."""

from __future__ import annotations

import pytest

from repro import compile_source
from repro.cluster import (
    Cluster,
    ClusterDeadlock,
    checkpoint_cluster_to_store,
    restart_cluster,
    restart_cluster_from_store,
)
from repro.errors import CheckpointFormatError, StoreNotFoundError
from repro.store import ChunkStore, FleetClient, FleetNode

# Every node waits forever: nothing is ever sent.
ALL_WAIT = """
let _ = cluster_recv ();;
print_int 0
"""

# Rank 0 sends one message to each peer and prints; peers echo the
# value back, incremented, and print what they got.
EXCHANGE = """
let me = cluster_rank ();;
let n = cluster_size ();;
let () =
  if me = 0 then
    begin
      let rec fan i = if i = n then () else begin cluster_send i (10 * i); fan (i + 1) end in
      fan 1;
      let rec gather k acc =
        if k = 0 then acc else gather (k - 1) (acc + cluster_recv ())
      in
      begin print_string "acc="; print_int (gather (n - 1) 0) end
    end
  else
    begin
      let v = cluster_recv () in
      begin cluster_send 0 (v + 1); print_string "ok" end
    end
"""


@pytest.fixture
def service(tmp_path):
    server = FleetNode(ChunkStore(str(tmp_path / "store")))
    host, port = server.start()
    client = FleetClient([(host, port)], backoff=0.01)
    yield server, client
    client.close()
    server.stop()


class TestDeadlockDetection:
    def test_all_nodes_waiting_empty_mailboxes(self):
        """Satellite acceptance: every node blocked on an empty mailbox
        with nothing in flight is reported as a deadlock, naming the
        stuck ranks."""
        code = compile_source(ALL_WAIT)
        cluster = Cluster(code, ["rodrigo", "csd", "sp2148"])
        with pytest.raises(ClusterDeadlock) as exc:
            cluster.run()
        msg = str(exc.value)
        assert "[0, 1, 2]" in msg
        assert "waiting" in msg
        for node in cluster.nodes:
            assert node.state == "waiting"
            assert not node.mailbox

    def test_deadlock_not_raised_while_messages_in_flight(self):
        code = compile_source(EXCHANGE)
        cluster = Cluster(code, ["rodrigo"] * 3, slice_instructions=200)
        cluster.run()  # must complete, never report a false deadlock
        assert cluster.finished

    def test_deadlock_survives_checkpoint_restart(self, tmp_path):
        """A doomed cluster is still (correctly) doomed after C/R —
        the waiting states and empty mailboxes round-trip faithfully."""
        code = compile_source(ALL_WAIT)
        cluster = Cluster(code, ["rodrigo", "rodrigo"])
        # step until both nodes are parked waiting
        for _ in range(50):
            if all(n.state == "waiting" for n in cluster.nodes):
                break
            cluster.step()
        ckpt = str(tmp_path / "doomed")
        cluster.checkpoint(ckpt)
        cluster2 = restart_cluster(code, ckpt, ["csd", "ultra64"])
        with pytest.raises(ClusterDeadlock):
            cluster2.run()


class TestMailboxSurvival:
    def test_mailbox_contents_survive_hetero_roundtrip(self, tmp_path):
        """Satellite acceptance: bytes sitting in mailboxes at
        checkpoint time are delivered after a restart on *different*
        platforms — byte-for-byte."""
        code = compile_source(EXCHANGE)
        cluster = Cluster(code, ["rodrigo"] * 3, slice_instructions=150)
        # run until at least one marshaled message is parked in a mailbox
        queued = None
        for _ in range(200):
            cluster.step()
            if any(n.mailbox for n in cluster.nodes):
                queued = {
                    n.rank: list(n.mailbox) for n in cluster.nodes if n.mailbox
                }
                break
            if cluster.finished:
                break
        assert queued, "never observed an in-flight message"
        ckpt = str(tmp_path / "mail")
        cluster.checkpoint(ckpt)

        cluster2 = restart_cluster(
            code, ckpt, ["ultra64", "csd", "sp2148"], slice_instructions=150
        )
        for rank, msgs in queued.items():
            assert list(cluster2.nodes[rank].mailbox) == msgs
        cluster2.run()
        assert cluster2.stdout(0) == b"acc=" + str(10 + 1 + 20 + 1).encode()
        assert cluster2.stdout(1) == b"ok"


class TestStoreBackedClusterCR:
    def test_roundtrip_through_store(self, tmp_path, service):
        server, client = service
        code = compile_source(EXCHANGE)
        cluster = Cluster(code, ["rodrigo"] * 3, slice_instructions=150)
        cluster.step()
        gen, stats = checkpoint_cluster_to_store(
            cluster, client, "cluster/exchange",
            directory=str(tmp_path / "ck"),
        )
        assert gen == 1
        assert stats.bytes_total > 0
        manifest = server.store.read_manifest("cluster/exchange", gen)
        assert manifest.meta == {"kind": "cluster", "nodes": 3}

        cluster2 = restart_cluster_from_store(
            code, client, "cluster/exchange",
            ["csd", "ultra64", "sp2148"],
            directory=str(tmp_path / "rs"),
            slice_instructions=150,
        )
        cluster2.run()
        assert cluster2.stdout(0) == b"acc=32"

    def test_missing_cluster_id_raises(self, service):
        _, client = service
        code = compile_source(EXCHANGE)
        with pytest.raises(StoreNotFoundError):
            restart_cluster_from_store(code, client, "ghost", ["rodrigo"] * 3)

    def test_non_cluster_payload_rejected(self, service):
        _, client = service
        client.put_checkpoint("plain", b"just one vm checkpoint")
        code = compile_source(EXCHANGE)
        with pytest.raises(CheckpointFormatError):
            restart_cluster_from_store(code, client, "plain", ["rodrigo"] * 3)
