"""Cold restore from the store, by delta-chain depth.

Both HA planes protect with deltas after each first full, so a cold
restore usually reads a chain: the head, its parents' manifests in one
batch, every link's chunks together, all into memory, and splices them.
This measures what that costs against a full, on two heaps — the small
matmul heap (n = 24) and the churn heap (160 rows x 4096 words) — in
both heterogeneous directions (rodrigo 32LE -> ultra64 64BE and back).

One run of the program is protected as a full and four deltas; the
store holds it under five vm ids whose newest generation is the chain
head at depth 0..4 (the links dedup to one copy of each chunk).  Each
round restores every depth once through ``restore_from_store``, so a
slow second lands on all depths alike; the p50 per depth is recorded in
``results/BENCH_cold_restore.json``.  Gate: a depth-2 chain costs at
most ``MAX_DEPTH2_OVER_FULL`` times the same run's depth-0 full (the
median over rounds of each round's own ratio).
"""

from __future__ import annotations

import statistics
import time

import pytest

from benchmarks.e2e.workloads import churn_source
from repro import VMConfig, VirtualMachine, compile_source, get_platform
from repro.checkpoint.generation import CommitTailer
from repro.store import ChunkStore, FleetClient, FleetNode
from repro.store.ha import manifest_meta, protected_config, restore_from_store
from repro.workloads import matmul_source

DEPTHS = range(5)
MAX_DEPTH2_OVER_FULL = 1.3

#: name -> (program, instructions before the full, between deltas,
#: restore rounds).
WORKLOADS = {
    "matmul24": (matmul_source(24, checkpoint=False), 20_000, 10_000, 80),
    "churn160": (churn_source(160, 16, offset=7), 15_000, 5_000, 9),
}
DIRECTIONS = (("rodrigo", "ultra64"), ("ultra64", "rodrigo"))


def _protect_chain(client, code, platform, path, first, every):
    """A full and four deltas of one run, each uploaded under every vm
    id whose head sits at or past its depth."""
    vm = VirtualMachine(
        platform, code, protected_config(VMConfig(chkpt_full_every=0))
    )
    tailer = CommitTailer(vm, path)
    for depth in DEPTHS:
        result = vm.run(max_instructions=every if depth else first)
        assert result.status == "budget", "program ended inside the chain"
        rec = tailer.capture()
        assert rec.chain_depth == depth
        meta = manifest_meta(rec, platform)
        for head in DEPTHS[depth:]:
            client.put_checkpoint(f"d{head}", rec.data, meta=meta)


@pytest.mark.parametrize("source,target", DIRECTIONS,
                         ids=[f"{s}-{t}" for s, t in DIRECTIONS])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_chain_restore_cost_by_depth(workload, source, target, tmp_path,
                                     get_report, bench_json):
    program, first, every, rounds = WORKLOADS[workload]
    code = compile_source(program)
    node = FleetNode(ChunkStore(str(tmp_path / "store")))
    client = FleetClient([node.start()], backoff=0.01)
    try:
        origin = str(tmp_path / "origin.hckp")
        _protect_chain(client, code, get_platform(source), origin, first,
                       every)
        path = str(tmp_path / "restore.hckp")
        samples: dict[int, list[float]] = {d: [] for d in DEPTHS}
        for _ in range(rounds + 1):  # the first round warms up
            for depth in DEPTHS:
                t0 = time.perf_counter()
                vm, skipped, got = restore_from_store(
                    client, f"d{depth}", code, target, path
                )
                samples[depth].append(time.perf_counter() - t0)
                assert (skipped, got) == (0, depth)
                del vm
    finally:
        client.close()
        node.stop()
    p50 = {d: 1e3 * statistics.median(s[1:]) for d, s in samples.items()}
    # Each round restores every depth back to back, so a round's own
    # depth-2 / depth-0 ratio cancels the machine's slow spells.
    ratio = statistics.median(
        two / zero for two, zero in zip(samples[2][1:], samples[0][1:])
    )
    direction = f"{source}->{target}"
    bench_json("BENCH_cold_restore").setdefault(workload, {})[direction] = {
        "restore_ms_p50_by_depth": {str(d): round(p50[d], 3) for d in DEPTHS},
        "depth2_over_full": round(ratio, 3),
        "rounds": rounds,
        "max_depth2_over_full": MAX_DEPTH2_OVER_FULL,
    }
    rep = get_report(
        "cold restore",
        "restore_from_store p50 (ms) by delta-chain depth",
        ["workload", "direction"] + [f"depth {d}" for d in DEPTHS]
        + ["d2 / full"],
    )
    rep.row(workload, direction, *(f"{p50[d]:.2f}" for d in DEPTHS),
            f"{ratio:.2f}")
    assert ratio <= MAX_DEPTH2_OVER_FULL, (
        f"{workload} {direction}: a depth-2 chain restore costs "
        f"{ratio:.2f}x a full one (gate {MAX_DEPTH2_OVER_FULL})"
    )
