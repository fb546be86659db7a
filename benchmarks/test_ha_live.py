"""Warm takeover vs cold restore-from-store.

The warm standby's pitch is that failover cost is O(lease claim): the
resident VM is already spliced and converted, so promotion does no
restore work at all.  This benchmark prices that claim against the
alternative the store-backed HA supervisor offers — a cold restore that
downloads the newest generation (plus its delta parents) from the
store, splices the chain, and converts to the successor's architecture.

Setup: a 640k-word heap on ``rodrigo`` (32-bit LE), mutated ~5% per
generation, replicated over the acked channel to a resident standby on
``ultra64`` (64-bit BE) while every generation is also mirrored to the
store.  Both takeover paths therefore start from the *same* committed
frontier and land on the *same* heterogeneous platform.

Acceptance gate (recorded in ``results/BENCH_ha_live.json``): warm
takeover p50 at least ``MIN_TAKEOVER_SPEEDUP``x faster than cold
restore p50.

Staying warm has its own price, paid once per generation between
receipt and ack: commit the file locally, then apply it to the resident
VM.  The second test prices that step per delta on the same heap — the
standby folding the delta in place against a standby made to restore
its whole chain for every generation — and gates in-place at no more
than ``MAX_APPLY_RATIO`` of the re-restore.

"O(lease claim)" also has to mean *not* O(store): a promotion is one
listing scoped to the lease id and one ``CLAIM`` that reads only the
lease's records, so it must cost the same in a store that other VMs
have filled.  The third test promotes against an
otherwise empty store and against one holding ``UNRELATED_GENERATIONS``
generations of other VMs, and gates the ratio of the two p50s at
``MAX_TAKEOVER_GROWTH`` (a whole-store listing per lease read gave 25-30).
"""

from __future__ import annotations

import statistics
import time

from repro import VMConfig, VirtualMachine, compile_source, get_platform
from repro.replication import (
    CommitTailer,
    EpochLease,
    ReplicationSender,
    StandbyServer,
    cold_restore_from_store,
)
from repro.store import ChunkStore, FleetClient, FleetNode
from repro.store.ha import manifest_meta

HEAP_WORDS = 640 * 1024
MUTATION_PCT = 5
PHASES = 6
ROW_WORDS = 4096

WARM_ROUNDS = 10
COLD_ROUNDS = 5
#: A takeover is one CLAIM: the standby read the lease when its primary
#: said HELLO.  Four runs on a 2-vCPU VM read 27.0-46.8x (takeover
#: 0.76-1.15 ms against a 31-35 ms cold restore); three of the tree whose
#: takeover was a scoped listing and a CLAIM, interleaved with three of
#: those, read 28.6-39.7x (0.98-1.30 ms against 31-39 ms).  On this idle
#: in-process store the two differ by less than the runs spread; the
#: e2e churn_live workload, whose store shares the disk with the
#: workload's writes, is where the lock file's removal shows.  The tree
#: whose claim was an upload and two read-backs read 11.1-15.9x
#: (2.04-2.37 ms against 26-32 ms), and it read 12.75x at 4.0 ms when
#: every lease read listed the store.
MIN_TAKEOVER_SPEEDUP = 10.0

UNRELATED_GENERATIONS = 400
UNRELATED_TENANTS = 40
MAX_TAKEOVER_GROWTH = 2.0

APPLY_PHASES = 14
MAX_APPLY_RATIO = 1 / 3

VM_ID = "bench-ha-live"

#: The build loop is ~15k instructions, each churn phase ~5k; one
#: capture lands after the build (the full) and one per phase after.
BUILD_BUDGET = 15_000
PHASE_BUDGET = 5_000


def churn_source(total_words: int, pct: int, phases: int) -> str:
    """Build a ~``total_words`` heap of live rows, then mutate ``pct``%
    of the rows per phase (one word per touched row dirties the whole
    row for the incremental writer)."""
    rows = max(total_words // ROW_WORDS, 1)
    stride = max(100 // pct, 1)
    return f"""
let rows = {rows};;
let keep = ref [];;
let () =
  for i = 1 to rows do
    let a = Array.make {ROW_WORDS} i in
    keep := a :: !keep
  done;;
let rec touch l i p =
  match l with
  | [] -> 0
  | h :: t ->
    ((if (i + p) mod {stride} = 0 then h.(0) <- h.(0) + p);
     touch t (i + 1) p);;
let phase = ref 0;;
let junk = ref 0;;
while !phase < {phases} do
  phase := !phase + 1;
  junk := touch !keep 0 !phase
done;;
print_int !phase; print_string " "; print_int rows
"""


def _p50(samples: list[float]) -> float:
    return statistics.median(samples)


def _p95(samples: list[float]) -> float:
    s = sorted(samples)
    return s[min(len(s) - 1, round(0.95 * (len(s) - 1)))]


def _config(path: str) -> VMConfig:
    return VMConfig(
        chkpt_state="enable",
        chkpt_filename=path,
        chkpt_mode="blocking",
        chkpt_interval=None,
        chkpt_incremental=True,
        chkpt_retain=24,
    )


def test_warm_takeover_beats_cold_restore(tmp_path, get_report, bench_json):
    code = compile_source(churn_source(HEAP_WORDS, MUTATION_PCT, PHASES))
    store = FleetNode(ChunkStore(str(tmp_path / "store")))
    store.start()
    client = FleetClient([store.address], backoff=0.01)
    lease_client = FleetClient([store.address], backoff=0.01)
    standby = StandbyServer(
        code,
        "ultra64",
        node_id="standby",
        chain_path=str(tmp_path / "standby.hckp"),
        lease=EpochLease(lease_client, VM_ID, "standby"),
        config=_config(str(tmp_path / "standby.hckp")),
    )
    sender = None
    try:
        host, port = standby.start()
        sender = ReplicationSender.connect(
            host, port, node_id="primary",
            ack_timeout=60.0, max_retransmits=1,
        )
        sender.hello(code.digest().hex(), 0, "rodrigo")

        primary_path = str(tmp_path / "primary.hckp")
        vm = VirtualMachine(
            get_platform("rodrigo"), code, _config(primary_path)
        )
        tailer = CommitTailer(vm, primary_path)
        gens = deltas = 0
        for budget in [BUILD_BUDGET] + [PHASE_BUDGET] * (PHASES + 2):
            result = vm.run(max_instructions=budget)
            if result.status in ("stopped", "exited"):
                break
            rec = tailer.capture()
            client.put_checkpoint(
                VM_ID, rec.data,
                meta=manifest_meta(rec, get_platform("rodrigo")),
            )
            sender.ship(rec)
            gens += 1
            deltas += rec.kind == "delta"
        assert gens >= 4 and deltas >= 3, (
            f"replication frontier too shallow: {gens} gens, "
            f"{deltas} deltas"
        )
        assert standby.applied_seq == gens

        warm = []
        for _ in range(WARM_ROUNDS):
            promoted = standby.promote()
            assert promoted is standby.resident_vm
            warm.append(standby.takeover_seconds)

        cold = []
        cold_vm = None
        for i in range(COLD_ROUNDS):
            cold_vm, elapsed = cold_restore_from_store(
                client, VM_ID, code, "ultra64",
                str(tmp_path / f"cold-{i}.hckp"),
            )
            cold.append(elapsed)
        # Both paths restore the same frontier: finishing the cold VM
        # must produce the program's exact final output.
        assert cold_vm.run().status in ("stopped", "exited")
        rows = HEAP_WORDS // ROW_WORDS
        assert cold_vm.channels.stdout_bytes() == f"{PHASES} {rows}".encode()
    finally:
        if sender is not None:
            sender.close()
        standby.stop()
        client.close()
        lease_client.close()
        store.stop()

    speedup = _p50(cold) / _p50(warm)
    rep = get_report(
        "HA live",
        "warm takeover vs cold restore-from-store "
        f"({HEAP_WORDS // 1024}k words, {MUTATION_PCT}% mutation, "
        "rodrigo -> ultra64)",
        ["path", "p50 ms", "p95 ms"],
    )
    rep.row("warm takeover", f"{_p50(warm) * 1e3:.2f}",
            f"{_p95(warm) * 1e3:.2f}")
    rep.row("cold restore", f"{_p50(cold) * 1e3:.2f}",
            f"{_p95(cold) * 1e3:.2f}")
    rep.note(
        f"speedup {speedup:.1f}x over {gens} generations "
        f"({deltas} deltas); floor {MIN_TAKEOVER_SPEEDUP:.0f}x"
    )
    bench_json("BENCH_ha_live").update({
        "heap_words": HEAP_WORDS,
        "mutation_pct": MUTATION_PCT,
        "generations": gens,
        "deltas": deltas,
        "primary_platform": "rodrigo",
        "standby_platform": "ultra64",
        "warm_takeover_ms": {
            "p50": round(_p50(warm) * 1e3, 3),
            "p95": round(_p95(warm) * 1e3, 3),
        },
        "cold_restore_ms": {
            "p50": round(_p50(cold) * 1e3, 3),
            "p95": round(_p95(cold) * 1e3, 3),
        },
        "speedup": round(speedup, 2),
        "min_speedup": MIN_TAKEOVER_SPEEDUP,
    })
    assert speedup >= MIN_TAKEOVER_SPEEDUP, (
        f"warm takeover only {speedup:.1f}x faster than cold restore "
        f"(floor {MIN_TAKEOVER_SPEEDUP}x)"
    )



def test_takeover_is_flat_in_store_size(tmp_path, get_report, bench_json):
    code = compile_source(churn_source(4 * ROW_WORDS, MUTATION_PCT, 1))
    store = FleetNode(ChunkStore(str(tmp_path / "store")))
    store.start()
    client = FleetClient([store.address], backoff=0.01)
    primary_path = str(tmp_path / "primary.hckp")
    vm = VirtualMachine(get_platform("rodrigo"), code, _config(primary_path))
    tailer = CommitTailer(vm, primary_path)
    vm.run(max_instructions=BUILD_BUDGET)
    rec = tailer.capture()

    def takeovers(vm_id: str) -> list[float]:
        # A fresh standby and lease per arm: round k of either arm folds
        # a lease history of k - 1 claims, so only the store differs.
        path = str(tmp_path / f"{vm_id}.hckp")
        standby = StandbyServer(
            code, "ultra64", node_id=vm_id, chain_path=path,
            lease=EpochLease(client, vm_id, vm_id), config=_config(path),
        )
        standby._splice(rec)
        out = []
        for _ in range(WARM_ROUNDS):
            standby.promote()
            out.append(standby.takeover_seconds)
        return out

    try:
        alone = takeovers("alone")
        for i in range(UNRELATED_GENERATIONS):
            store.store.put_checkpoint(
                f"tenant-{i % UNRELATED_TENANTS}",
                i.to_bytes(4, "little") * 512,
                meta={"kind": "full", "platform": "rodrigo", "seq": i},
            )
        listing = client.ls()
        assert sum(
            len(gens) for vm_id, gens in listing["vms"].items()
            if vm_id.startswith("tenant-")
        ) == UNRELATED_GENERATIONS
        crowded = takeovers("crowded")
    finally:
        client.close()
        store.stop()

    growth = _p50(crowded) / _p50(alone)
    rep = get_report(
        "HA live takeover vs store size",
        "warm takeover (lease read, atomic claim) against what "
        "other VMs have stored",
        ["unrelated generations", "p50 ms", "p95 ms"],
    )
    rep.row("0", f"{_p50(alone) * 1e3:.2f}", f"{_p95(alone) * 1e3:.2f}")
    rep.row(str(UNRELATED_GENERATIONS), f"{_p50(crowded) * 1e3:.2f}",
            f"{_p95(crowded) * 1e3:.2f}")
    rep.note(
        f"{UNRELATED_GENERATIONS} unrelated generations cost {growth:.2f}x "
        f"an empty store; ceiling {MAX_TAKEOVER_GROWTH:.1f}x"
    )
    bench_json("BENCH_ha_live").update({
        "takeover_ms_by_store_generations": {
            "0": {
                "p50": round(_p50(alone) * 1e3, 3),
                "p95": round(_p95(alone) * 1e3, 3),
            },
            str(UNRELATED_GENERATIONS): {
                "p50": round(_p50(crowded) * 1e3, 3),
                "p95": round(_p95(crowded) * 1e3, 3),
            },
            "ratio": round(growth, 2),
            "max_ratio": MAX_TAKEOVER_GROWTH,
        },
    })
    assert growth <= MAX_TAKEOVER_GROWTH, (
        f"takeover with {UNRELATED_GENERATIONS} unrelated generations "
        f"stored is {growth:.1f}x an empty store "
        f"(ceiling {MAX_TAKEOVER_GROWTH}x)"
    )


def test_in_place_apply_beats_re_restoring_the_chain(
        tmp_path, get_report, bench_json):
    code = compile_source(churn_source(HEAP_WORDS, MUTATION_PCT, APPLY_PHASES))

    def standby(name: str) -> StandbyServer:
        path = str(tmp_path / f"{name}.hckp")
        return StandbyServer(
            code, "ultra64", node_id=name, chain_path=path,
            config=_config(path),
        )

    folding, restoring = standby("folding"), standby("restoring")
    primary_path = str(tmp_path / "primary.hckp")
    vm = VirtualMachine(get_platform("rodrigo"), code, _config(primary_path))
    tailer = CommitTailer(vm, primary_path)
    in_place, re_restore = [], []
    for budget in [BUILD_BUDGET] + [PHASE_BUDGET] * (APPLY_PHASES + 2):
        if vm.run(max_instructions=budget).status in ("stopped", "exited"):
            break
        rec = tailer.capture()
        folded = folding.applied_in_place
        t0 = time.perf_counter()
        folding._splice(rec)
        t1 = time.perf_counter()
        restoring.image = None  # nothing to fold into: restore the chain
        restoring._splice(rec)
        t2 = time.perf_counter()
        if folding.applied_in_place > folded:
            in_place.append(t1 - t0)
            re_restore.append(t2 - t1)
    assert restoring.applied_in_place == 0
    assert len(in_place) >= 8, f"only {len(in_place)} deltas folded in place"
    # Same frontier either way: both resident VMs finish the program.
    rows = HEAP_WORDS // ROW_WORDS
    for sb in (folding, restoring):
        assert sb.resident_vm.run().status in ("stopped", "exited")
        assert sb.resident_vm.channels.stdout_bytes() == (
            f"{APPLY_PHASES} {rows}".encode()
        )

    ratio = _p50(in_place) / _p50(re_restore)
    rep = get_report(
        "HA live apply",
        "standby apply per delta: fold in place vs re-restore the chain "
        f"({HEAP_WORDS // 1024}k words, {MUTATION_PCT}% mutation, "
        "rodrigo -> ultra64; local commit included)",
        ["path", "p50 ms", "p95 ms"],
    )
    rep.row("in place", f"{_p50(in_place) * 1e3:.2f}",
            f"{_p95(in_place) * 1e3:.2f}")
    rep.row("re-restore", f"{_p50(re_restore) * 1e3:.2f}",
            f"{_p95(re_restore) * 1e3:.2f}")
    rep.note(
        f"in place = {ratio:.2f} of re-restore over {len(in_place)} deltas; "
        f"ceiling {MAX_APPLY_RATIO:.2f}"
    )
    bench_json("BENCH_ha_live").update({
        "apply_ms": {
            "deltas": len(in_place),
            "in_place": {
                "p50": round(_p50(in_place) * 1e3, 3),
                "p95": round(_p95(in_place) * 1e3, 3),
            },
            "re_restore": {
                "p50": round(_p50(re_restore) * 1e3, 3),
                "p95": round(_p95(re_restore) * 1e3, 3),
            },
            "ratio": round(ratio, 3),
            "max_ratio": round(MAX_APPLY_RATIO, 3),
        },
    })
    assert ratio <= MAX_APPLY_RATIO, (
        f"in-place apply is {ratio:.2f} of a re-restore "
        f"(ceiling {MAX_APPLY_RATIO:.2f})"
    )
