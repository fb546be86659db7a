"""Cluster failure paths: deadlock detection, mailbox survival, store C/R."""

from __future__ import annotations

import pytest

from repro import compile_source
from repro.cluster import Cluster, ClusterDeadlock, restore_cluster
from repro.errors import CheckpointFormatError, StoreNotFoundError
from tests.test_cluster import service  # noqa: F401 (a fixture)

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

    def test_deadlock_survives_checkpoint_restart(self, service):
        """A doomed cluster is still (correctly) doomed after C/R —
        the waiting states and empty mailboxes round-trip faithfully."""
        _, client = service
        code = compile_source(ALL_WAIT)
        cluster = Cluster(code, ["rodrigo", "rodrigo"])
        # step until both nodes are parked waiting
        for _ in range(50):
            if all(n.state == "waiting" for n in cluster.nodes):
                break
            cluster.step()
        cluster.protect(client, "doomed")
        cluster2 = restore_cluster(code, client, "doomed", ["csd", "ultra64"])
        with pytest.raises(ClusterDeadlock):
            cluster2.run()


class TestMailboxSurvival:
    def test_mailbox_contents_survive_hetero_roundtrip(self, service):
        """Satellite acceptance: bytes sitting in mailboxes at
        checkpoint time are delivered after a restart on *different*
        platforms — byte-for-byte."""
        _, client = service
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
        cluster.protect(client, "mail")

        cluster2 = restore_cluster(
            code, client, "mail", ["ultra64", "csd", "sp2148"],
            slice_instructions=150,
        )
        for rank, msgs in queued.items():
            assert list(cluster2.nodes[rank].mailbox) == msgs
        cluster2.run()
        assert cluster2.stdout(0) == b"acc=" + str(10 + 1 + 20 + 1).encode()
        assert cluster2.stdout(1) == b"ok"


class TestStoreBackedClusterCR:
    def test_roundtrip_through_store(self, service):
        server, client = service
        code = compile_source(EXCHANGE)
        cluster = Cluster(code, ["rodrigo"] * 3, slice_instructions=150)
        cluster.step()
        gen = cluster.protect(client, "cluster/exchange")
        assert gen == 1
        manifest = server.store.read_manifest("cluster/exchange", gen)
        assert manifest.meta == {"kind": "cut", "nodes": 3}
        # A finished node has nothing left to protect.
        for node in cluster.nodes:
            stored = server.store.generations(f"cluster/exchange/{node.rank}")
            assert stored == ([] if node.state == "finished" else [1])
        assert cluster.nodes[0].state != "finished"
        rank0 = server.store.read_manifest("cluster/exchange/0", 1)
        assert rank0.meta["kind"] == "full"
        assert rank0.meta["platform"] == "rodrigo"

        cluster2 = restore_cluster(
            code, client, "cluster/exchange",
            ["csd", "ultra64", "sp2148"],
            slice_instructions=150,
        )
        cluster2.run()
        assert cluster2.stdout(0) == b"acc=32"

    def test_missing_cluster_id_raises(self, service):
        _, client = service
        code = compile_source(EXCHANGE)
        with pytest.raises(StoreNotFoundError):
            restore_cluster(code, client, "ghost", ["rodrigo"] * 3)

    def test_non_cluster_payload_rejected(self, service):
        _, client = service
        client.put_checkpoint("plain", b"just one vm checkpoint")
        code = compile_source(EXCHANGE)
        with pytest.raises(CheckpointFormatError):
            restore_cluster(code, client, "plain", ["rodrigo"] * 3)
