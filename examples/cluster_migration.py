#!/usr/bin/env python3
"""Coordinated C/R of a parallel message-passing application — the
paper's stated future work ("we intend to provide heterogeneous C/R for
parallel message-passing applications, by integrating this work with
our Starfish system"), built on the same checkpoint mechanism.

Four VM nodes cooperate on a block-sum: workers receive ranges from
rank 0, compute partial sums, send them back.  Mid-computation the
coordinator takes a *coordinated checkpoint* into a checkpoint store —
one protected generation per node, then a cut record holding every
in-flight marshaled message — and the whole application is then
restored from the store with all four nodes migrated to different
architectures.

Run:  python examples/cluster_migration.py
"""

from __future__ import annotations

import tempfile

from repro import compile_source
from repro.cluster import Cluster, restore_cluster
from repro.store import ChunkStore, FleetClient, FleetNode

SOURCE = """
let me = cluster_rank ();;
let n = cluster_size ();;
let chunks = 12;;

let rec sum_range lo hi acc = if lo > hi then acc else sum_range (lo + 1) hi (acc + lo);;

let () =
  if me = 0 then
    begin
      (* deal out `chunks` ranges of 100 numbers, round-robin *)
      for c = 0 to chunks - 1 do
        let dest = 1 + (c mod (n - 1)) in
        cluster_send dest [c * 100 + 1; c * 100 + 100]
      done;
      (* then send everyone a stop marker *)
      for w = 1 to n - 1 do cluster_send w [] done;
      (* gather partials *)
      let rec gather k acc =
        if k = 0 then acc
        else match cluster_recv () with
             | [] -> gather k acc
             | p :: _ -> gather (k - 1) (acc + p)
      in
      let total = gather (n - 1) 0 in
      begin print_string "grand total = "; print_int total end
    end
  else
    begin
      let rec work acc =
        match cluster_recv () with
        | [] -> cluster_send 0 [acc]
        | lo :: rest ->
          (match rest with
           | [] -> work acc
           | hi :: _ -> work (acc + sum_range lo hi 0))
      in work 0
    end
"""


def main() -> None:
    code = compile_source(SOURCE)
    before = ["rodrigo", "rodrigo", "pc8", "csd"]
    after = ["sp2148", "ultra64", "rodrigo", "rs6000"]

    cluster = Cluster(code, before, slice_instructions=300)
    for _ in range(5):  # run a while, mid-computation
        if cluster.finished:
            break
        cluster.step()
    in_flight = sum(len(node.mailbox) for node in cluster.nodes)
    states = {n.rank: n.state for n in cluster.nodes}
    print(f"ran {cluster.steps} coordinator steps on {before}")
    print(f"taking a coordinated checkpoint: node states {states}, "
          f"{in_flight} in-flight message(s)")

    # A live store daemon on an ephemeral port, plus a client for it.
    server = FleetNode(ChunkStore(tempfile.mkdtemp(prefix="repro-store-")))
    host, port = server.start()
    try:
        with FleetClient([(host, port)]) as client:
            cut = cluster.protect(client, "block-sum")
            print(f"stored cut {cut} of 'block-sum'")
            print(f"restarting every node on new machines: {after}")
            cluster2 = restore_cluster(
                code, client, "block-sum", after, slice_instructions=300
            )
    finally:
        server.stop()
    cluster2.run()
    out = cluster2.stdout(0).decode()
    print(f"rank 0 says: {out!r}")

    expected = sum(range(1, 1201))
    assert out == f"grand total = {expected}"
    print(f"verified: sum of 1..1200 = {expected}, computed across a "
          f"checkpoint that moved all four nodes.")


if __name__ == "__main__":
    main()
