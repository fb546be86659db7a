"""Tests for the message-passing cluster and coordinated C/R."""

from __future__ import annotations

import json

import pytest

from repro import compile_source
from repro.cluster import Cluster, ClusterDeadlock, restore_cluster
from repro.errors import CheckpointFormatError, RestartError
from repro.store import ChunkStore, FleetClient, FleetNode

# A ring: rank 0 injects a token; each node adds its rank and forwards;
# after LAPS laps rank 0 prints the total.
RING = """
let me = cluster_rank ();;
let n = cluster_size ();;
let laps = 3;;
let next = (me + 1) mod n;;
let () =
  if me = 0 then
    begin
      cluster_send next 0;
      let rec wait k acc =
        if k = 0 then acc
        else
          let tok = cluster_recv () in
          (if k = 1 then acc + tok
           else begin cluster_send next 0; wait (k - 1) (acc + tok) end)
      in
      let total = wait laps 0 in
      begin print_string "total="; print_int total end
    end
  else
    begin
      let rec relay k =
        if k = 0 then () else
        let tok = cluster_recv () in
        begin cluster_send next (tok + me); relay (k - 1) end
      in relay laps
    end
"""

# Parallel sum: every worker sends a tuple (rank, partial) to rank 0.
SCATTER = """
let me = cluster_rank ();;
let n = cluster_size ();;
let () =
  if me = 0 then
    begin
      let rec gather k acc =
        if k = 0 then acc
        else
          let msg = cluster_recv () in
          (match msg with
           | [] -> gather k acc
           | h :: _ -> gather (k - 1) (acc + h))
      in
      begin print_string "sum="; print_int (gather (n - 1) 0) end
    end
  else
    begin
      let rec range i acc = if i = 0 then acc else range (i - 1) (i * me :: acc) in
      let rec suml l = match l with [] -> 0 | h :: t -> h + suml t in
      cluster_send 0 [suml (range 10 [])]
    end
"""


def ring_expected(n_nodes: int, laps: int = 3) -> bytes:
    per_lap = sum(range(1, n_nodes))
    return f"total={laps * per_lap}".encode()


@pytest.fixture
def service(tmp_path):
    server = FleetNode(ChunkStore(str(tmp_path / "store")))
    host, port = server.start()
    client = FleetClient([(host, port)], backoff=0.01)
    yield server, client
    client.close()
    server.stop()


class TestClusterExecution:
    def test_ring_homogeneous(self):
        code = compile_source(RING)
        cluster = Cluster(code, ["rodrigo"] * 4)
        cluster.run()
        assert cluster.stdout(0) == ring_expected(4)

    def test_ring_heterogeneous(self):
        """Every node on a different architecture: messages are
        marshaled portably, so mixed clusters just work."""
        code = compile_source(RING)
        cluster = Cluster(code, ["rodrigo", "csd", "sp2148", "ultra64"])
        cluster.run()
        assert cluster.stdout(0) == ring_expected(4)
        assert cluster.messages_sent == 12

    def test_scatter_gather(self):
        code = compile_source(SCATTER)
        cluster = Cluster(code, ["rodrigo", "sp2148", "csd"])
        cluster.run()
        # worker m sends sum(i*m for i in 1..10) = 55*m
        assert cluster.stdout(0) == f"sum={55 * (1 + 2)}".encode()

    def test_deadlock_detected(self):
        code = compile_source("let _ = cluster_recv ();; print_int 0")
        cluster = Cluster(code, ["rodrigo", "rodrigo"])
        with pytest.raises(ClusterDeadlock):
            cluster.run()

    def test_send_to_unknown_rank(self):
        from repro.errors import ReproError

        code = compile_source("cluster_send 9 1")
        cluster = Cluster(code, ["rodrigo"])
        with pytest.raises(ReproError):
            cluster.run()

    def test_prims_outside_cluster_fail(self):
        from repro import VirtualMachine, VMConfig
        from repro.errors import PrimitiveError

        code = compile_source("print_int (cluster_rank ())")
        vm = VirtualMachine(
            __import__("repro").get_platform("rodrigo"), code,
            VMConfig(chkpt_state="disable"),
        )
        with pytest.raises(PrimitiveError):
            vm.run(max_instructions=10_000)


class TestCoordinatedCheckpoint:
    """A coordinated checkpoint is one protected generation per
    unfinished node (``<cluster_id>/<rank>``) plus the cut record
    (``<cluster_id>``) naming them, uploaded last."""

    def _run_with_mid_checkpoint(self, code, platforms, client, steps):
        cluster = Cluster(code, platforms, slice_instructions=400)
        for _ in range(steps):
            if cluster.finished:
                break
            cluster.step()
        cluster.protect(client, "ring")
        return cluster

    def test_checkpoint_restart_finishes_ring(self, service):
        _, client = service
        code = compile_source(RING)
        self._run_with_mid_checkpoint(code, ["rodrigo"] * 4, client, steps=4)
        # Restart every node on a *different* platform and finish.
        cluster2 = restore_cluster(
            code, client, "ring", ["sp2148", "ultra64", "csd", "pc8"],
            slice_instructions=400,
        )
        cluster2.run()
        assert cluster2.stdout(0) == ring_expected(4)

    def test_checkpoint_preserves_in_flight_messages(self, service):
        """Messages sitting in mailboxes at checkpoint time are part of
        the coordinated snapshot and are delivered after restart."""
        _, client = service
        src = """
        let me = cluster_rank ();;
        let () =
          if me = 0 then
            begin
              cluster_send 1 41;
              print_string "sent"
            end
          else
            begin
              let v = cluster_recv () in
              begin print_string "got "; print_int (v + 1) end
            end
        """
        code = compile_source(src)
        cluster = Cluster(code, ["rodrigo", "rodrigo"], slice_instructions=60)
        # Step until node 0 has sent (finished) but before node 1 consumed.
        cluster.step()
        # Force the interesting case: if the message is still queued,
        # checkpoint now; otherwise the test still passes trivially.
        cluster.protect(client, "inflight")
        cluster2 = restore_cluster(code, client, "inflight", ["csd", "sp2148"])
        cluster2.run()
        assert cluster2.stdout(1) == b"got 42"

    def test_stdout_survives_restart(self, service):
        _, client = service
        src = """
        let me = cluster_rank ();;
        print_string "early ";;
        let v = (if me = 0 then begin cluster_send 1 5; cluster_recv () end
                 else let x = cluster_recv () in begin cluster_send 0 (x * 2); 0 end);;
        print_string "late=";;
        print_int v
        """
        code = compile_source(src)
        cluster = Cluster(code, ["rodrigo", "rodrigo"], slice_instructions=300)
        cluster.step()
        cluster.protect(client, "out")
        cluster2 = restore_cluster(code, client, "out", ["sp2148", "csd"])
        cluster2.run()
        assert cluster2.stdout(0) == b"early late=10"
        assert cluster2.stdout(1) == b"early late=0"

    def test_manifest_corruption_rejected(self, service):
        """A damaged cut is refused typed — one with a flipped byte, and
        one that decodes but is not a whole cut.  (Damage to the stored
        bytes themselves is the store's: its payload SHA-256.)"""
        _, client = service
        code = compile_source(RING)
        self._run_with_mid_checkpoint(code, ["rodrigo"] * 4, client, 2)
        cut, _ = client.get_checkpoint("ring")
        cut[10] ^= 0xFF
        client.put_checkpoint("ring", bytes(cut))
        with pytest.raises(CheckpointFormatError, match="not a cluster cut"):
            restore_cluster(code, client, "ring", ["rodrigo"] * 4)

        for entry in (
            {"state": "runnable"},
            {"generation": None, "state": "asleep", "mailbox": [], "stdout": ""},
            {"generation": "1", "state": "waiting", "mailbox": [], "stdout": ""},
        ):
            client.put_checkpoint("ring", json.dumps({"nodes": [entry]}).encode())
            with pytest.raises(CheckpointFormatError, match="not a cluster cut"):
                restore_cluster(code, client, "ring", ["rodrigo"])

    def test_platform_count_mismatch(self, service):
        _, client = service
        code = compile_source(RING)
        self._run_with_mid_checkpoint(code, ["rodrigo"] * 4, client, 2)
        with pytest.raises(RestartError):
            restore_cluster(code, client, "ring", ["rodrigo"] * 3)

    def test_second_cut_uploads_deltas(self, service):
        """Cluster nodes ride the protection policy: after each node's
        first full, a cut uploads a delta for every node that ran, and
        it costs the store less than the full did."""
        server, client = service
        put = client.put_checkpoint
        uploads = []

        def recording(vm_id, payload, meta=None):
            generation, stats = put(vm_id, payload, meta=meta)
            if meta["kind"] != "cut":
                uploads.append((vm_id, meta["kind"], stats.bytes_new))
            return generation, stats

        client.put_checkpoint = recording
        code = compile_source(RING)
        cluster = Cluster(code, ["rodrigo"] * 4, slice_instructions=60)
        cuts = []
        for generation in (1, 2):
            cluster.step()  # every node runs
            del uploads[:]
            assert cluster.protect(client, "ring") == generation
            cuts.append(uploads[:])
        first, second = cuts
        assert [kind for _, kind, _ in first] == ["full"] * 4
        assert [vm_id for vm_id, _, _ in second] == [
            f"ring/{rank}" for rank in range(4)
        ]
        for (_, _, full_new), (_, kind, delta_new) in zip(first, second):
            assert kind == "delta"
            assert delta_new < full_new
        cut = server.store.read_manifest("ring", 2)
        assert cut.meta == {"kind": "cut", "nodes": 4}

        cluster2 = restore_cluster(
            code, client, "ring", ["sp2148", "ultra64", "csd", "pc8"],
            slice_instructions=60,
        )
        cluster2.run()
        assert cluster2.stdout(0) == ring_expected(4)

    def test_crash_before_the_cut_restores_the_previous_cut(self, service):
        """The cut is the commit point: node generations uploaded by a
        checkpoint that died before its cut are orphans no cut names."""
        server, client = service
        code = compile_source(RING)
        cluster = Cluster(code, ["rodrigo"] * 4, slice_instructions=60)
        cluster.step()
        assert cluster.protect(client, "ring") == 1
        cluster.step()

        put = client.put_checkpoint

        def crash(vm_id, payload, meta=None):
            if meta["kind"] == "cut":
                raise ConnectionError("the coordinator died before the cut")
            return put(vm_id, payload, meta=meta)

        client.put_checkpoint = crash
        with pytest.raises(ConnectionError):
            cluster.protect(client, "ring")
        del client.put_checkpoint
        assert server.store.generations("ring") == [1]
        assert server.store.generations("ring/1") == [1, 2]

        cluster2 = restore_cluster(
            code, client, "ring", ["csd", "sp2148", "ultra64", "pc8"],
            slice_instructions=60,
        )
        cluster2.run()
        assert cluster2.stdout(0) == ring_expected(4)

    def test_damaged_node_generation_fails_named(self, service):
        """A cut cannot mix generations: a node generation that does not
        restore fails the whole restore, naming that generation."""
        server, client = service
        code = compile_source(RING)
        cluster = Cluster(code, ["rodrigo"] * 3, slice_instructions=60)
        cluster.step()
        cluster.protect(client, "ring")
        payload, manifest = client.get_checkpoint("ring/1", 1)
        payload[len(payload) // 2] ^= 0xFF
        assert client.put_checkpoint(
            "ring/1", bytes(payload), meta=manifest.meta
        )[0] == 2
        cut, _ = client.get_checkpoint("ring", 1)
        cut = json.loads(cut)
        cut["nodes"][1]["generation"] = 2
        client.put_checkpoint("ring", json.dumps(cut).encode())
        with pytest.raises(RestartError, match="vm 'ring/1' generation 2"):
            restore_cluster(code, client, "ring", ["csd"] * 3)
