"""The five workloads: what one rep of each sets up, runs and checks.

Every rep is self-contained — a fresh one-shard store, a fresh compile —
so store dedup never leaks from one rep into the next and each rep
yields one set-up sample.  Expected outputs are closed-form strings
computed here, never by the VM under test.
"""

from __future__ import annotations

import base64
import contextlib
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import VirtualMachine, VMConfig, compile_source, get_platform
from repro.checkpoint import CommitHooks
from repro.replication import (
    CommitTailer,
    EpochLease,
    ReplicationSender,
    StandbyServer,
    cold_restore_from_store,
)
from repro.store import ChunkStore, FleetClient, FleetNode, HASupervisor
from repro.workloads import (
    insertion_sort_expected,
    insertion_sort_source,
    matmul_expected,
    matmul_source,
)

from benchmarks.e2e.spans import SCENARIO, LayerLog, TimingClient, Tracer

ROW_WORDS = 4096
PRIMARY = "rodrigo"
STANDBY = "ultra64"
#: Same-arch, endian-swap, endian-swap, widen, swap+widen.
FANOUT_TARGETS = ("pc8", "csd", "rs6000", "sp2148", "ultra64")


# ---------------------------------------------------------------------------
# Generated programs
# ---------------------------------------------------------------------------

_TOUCH = """
let rec touch l i p =
  match l with
  | [] -> 0
  | h :: t ->
    ((if (i + p) mod {stride} = 0 then h.({offset}) <- h.({offset}) + p);
     touch t (i + 1) p);;
let phase = ref 0;;
let junk = ref 0;;
while !phase < {phases} do
  phase := !phase + 1;
  junk := touch !keep 0 !phase
done;;
"""


def churn_source(rows: int, phases: int, offset: int, pct: int = 5) -> str:
    """``rows`` live 4096-word arrays; each phase writes one word (at
    the seeded ``offset``) in ``pct``% of them, dirtying those rows."""
    touch = _TOUCH.format(stride=max(100 // pct, 1), offset=offset,
                          phases=phases)
    return f"""
let rows = {rows};;
let keep = ref [];;
let () =
  for i = 1 to rows do
    let a = Array.make {ROW_WORDS} i in
    keep := a :: !keep
  done;;
{touch}
print_int !phase; print_string " "; print_int rows
"""


def churn_expected(rows: int, phases: int) -> bytes:
    return f"{phases} {rows}".encode()


def mixed_source(arrays: int, strings: int, phases: int, offset: int) -> str:
    """Word arrays plus 255-byte strings and boxed floats — the payloads
    an endianness or word-size change must repack one by one."""
    touch = _TOUCH.format(stride=20, offset=offset, phases=phases)
    return f"""
let keep = ref [];;
let skeep = ref [];;
let fkeep = ref [];;
let () =
  for i = 1 to {arrays} do
    let a = Array.make {ROW_WORDS} i in
    keep := a :: !keep
  done;;
let () =
  for i = 1 to {strings} do
    let s = String.make 255 'a' in
    begin
      s.[0] <- 'x';
      skeep := s :: !skeep;
      fkeep := (float_of_int i *. 1.5) :: !fkeep
    end
  done;;
{touch}
let rec count l = match l with [] -> 0 | _ :: t -> 1 + count t;;
print_int !phase; print_string " ";
print_int (count !skeep); print_string " "; print_int (count !fkeep)
"""


def mixed_expected(strings: int, phases: int) -> bytes:
    return f"{phases} {strings} {strings}".encode()


# ---------------------------------------------------------------------------
# Bookkeeping shared by the workloads
# ---------------------------------------------------------------------------


class Ops:
    """Operations attempted and failed (``fail_share`` = failed/attempted)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, passed: bool, what: str) -> bool:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failures.append(what)
        return passed


@dataclass
class Ctx:
    """What a rep needs from the run it belongs to."""

    seed: int
    scratch: str
    traced: bool = False
    tracer: Tracer = field(default_factory=lambda: Tracer(enabled=False))
    log: LayerLog = field(default_factory=LayerLog)
    ops: Ops = field(default_factory=Ops)
    #: Self-test hook: rewrites an expected stdout before it is compared.
    corrupt_expected: Optional[Callable[[bytes], bytes]] = None
    _dirs: int = 0

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.scratch, f"rep-{self._dirs}")
        os.makedirs(path)
        return path

    def store_client(self, client):
        """The client a layer under test is handed: timed when tracing."""
        if self.traced:
            return TimingClient(client, self.tracer, self.log)
        return client

    def check_stdout(self, got: bytes, expected: bytes, what: str) -> bool:
        if self.corrupt_expected is not None:
            expected = self.corrupt_expected(expected)
        return self.ops.check(
            got == expected, f"{what}: stdout {got!r} != {expected!r}"
        )


@dataclass
class Rep:
    """What one measured rep observed."""

    setup_s: float = 0.0
    compile_s: float = 0.0
    baseline_s: float = 0.0
    #: One wall-clock sample per scenario, and the uninterrupted
    #: run(s) each scenario is compared against.
    walls: list[float] = field(default_factory=list)
    baselines_per_scenario: int = 1
    #: Protection stalls: one sample per cycle where the harness owns
    #: the loop; the supervisor reports only totals, so there the rep's
    #: mean is its one sample.
    protect_ms: list[float] = field(default_factory=list)
    #: Crash-to-runnable samples: ``recover_each_ms`` has every single
    #: restore (the tail metric); ``recover_ms`` one mean per scenario,
    #: because targets of different word size make single latencies
    #: multi-modal.
    recover_ms: list[float] = field(default_factory=list)
    recover_each_ms: list[float] = field(default_factory=list)
    bytes_new: int = 0
    generations: int = 0
    #: Exact counts, compared across reps by the determinism guard.
    counts: dict[str, float] = field(default_factory=dict)
    #: Filled in by the runner: what the layers logged during this rep,
    #: and whether its spans were recorded.
    log: LayerLog = field(default_factory=LayerLog)
    traced: bool = False


@contextlib.contextmanager
def one_shard_store(root: str):
    """The store path ROADMAP keeps: one FleetNode, one FleetClient."""
    node = FleetNode(ChunkStore(os.path.join(root, "store")))
    addr = node.start()
    client = FleetClient([addr], backoff=0.01)
    try:
        yield client, addr
    finally:
        client.close()
        node.stop()


def timed_compile(rep: Rep, source: str):
    t0 = time.perf_counter()
    code = compile_source(source)
    rep.compile_s = time.perf_counter() - t0
    return code


def run_baseline(ctx: Ctx, rep: Rep, code, expected: bytes) -> None:
    """The plain, uninterrupted ``vm.run()`` every scenario is priced
    against (paper Fig. 10/11) — probes paused, so it stays plain."""
    with ctx.tracer.paused():
        vm = VirtualMachine(get_platform(PRIMARY), code)
        t0 = time.perf_counter()
        result = vm.run()
        rep.baseline_s = time.perf_counter() - t0
    rep.counts["interpreter.unsliced_instructions"] = result.instructions
    ctx.check_stdout(result.stdout, expected, "baseline")


def audit_store(ctx: Ctx, client) -> None:
    report = client.audit(deep=True)
    ctx.log.add("store.audit_problems", len(report["problems"]))
    ctx.ops.check(report["ok"], f"store audit: {report['problems'][:3]}")
    ctx.log.add("store.retries", client.retries_used)
    caches = client.fleet_stat()["caches"] or {}
    ctx.log.add("store.cache_hits", sum(c["hits"] for c in caches.values()))
    ctx.log.add("store.cache_misses",
                sum(c["misses"] for c in caches.values()))


def incremental_config(path: str) -> VMConfig:
    return VMConfig(
        chkpt_state="enable",
        chkpt_filename=path,
        chkpt_mode="blocking",
        chkpt_interval=None,
        chkpt_incremental=True,
        chkpt_retain=8,
    )


def mirror(client, vm_id: str, rec):
    """Upload one captured generation the way the supervisor would;
    returns the put's ``PutStats``."""
    meta = {
        "platform": PRIMARY,
        "instructions": rec.instructions,
        "stdout_b64": base64.b64encode(rec.stdout).decode(),
        "kind": rec.kind,
        "body_sha256": rec.body_sha256,
        "format_version": rec.format_version,
    }
    if rec.kind == "delta":
        meta["parent_sha256"] = rec.parent_sha256
        meta["chain_depth"] = rec.chain_depth
    _generation, stats = client.put_checkpoint(vm_id, rec.data, meta=meta)
    return stats


# ---------------------------------------------------------------------------
# *_ha: the supervisor's crash/restart loop
# ---------------------------------------------------------------------------


def ha_rep(ctx: Ctx, vm_id: str, source: str, expected: bytes,
           checkpoint_every: int, faults: int) -> Rep:
    rep = Rep()
    root = ctx.fresh_dir()
    t0 = time.perf_counter()
    with one_shard_store(root) as (client, _addr):
        code = timed_compile(rep, source)
        rep.setup_s = time.perf_counter() - t0
        run_baseline(ctx, rep, code, expected)

        supervisor = HASupervisor(
            code, ctx.store_client(client), vm_id, PRIMARY,
            checkpoint_every=checkpoint_every,
            # Past the first checkpoint, so every fault restores.
            fault_budgets=(checkpoint_every * 3 // 2, checkpoint_every * 4),
            max_faults=faults,
            seed=ctx.seed,
        )
        t0 = time.perf_counter()
        with ctx.tracer.span(SCENARIO):
            report = supervisor.run()
        rep.walls.append(time.perf_counter() - t0)

        ops = ctx.ops
        ops.ok(2 * report.checkpoints)  # each checkpointed and uploaded
        ops.ok(report.restarts + report.cold_restarts)
        ops.check(report.fallback_restores == 0, "fallback restore")
        ops.check(report.completed, "supervised run did not complete")
        ctx.check_stdout(report.stdout, expected, vm_id)

        phases = report.phases.seconds
        rep.protect_ms = [
            1e3 * (phases.get("checkpoint", 0.0) + phases.get("upload", 0.0))
            / report.checkpoints
        ]
        if not report.restart_latencies:
            raise RuntimeError("the program ended before any fault struck")
        rep.recover_each_ms = [1e3 * s for s in report.restart_latencies]
        # Restarts alternate between 32- and 64-bit targets, so single
        # latencies are bimodal; the scenario's mean is not.
        rep.recover_ms = [sum(rep.recover_each_ms) / len(rep.recover_each_ms)]
        rep.bytes_new = report.upload_stats.bytes_new
        rep.generations = report.checkpoints
        rep.counts.update({
            "store.ha.checkpoints": report.checkpoints,
            "store.ha.faults": report.faults_injected,
            "store.ha.restarts": report.restarts,
            "store.ha.work_lost_instr": report.work_lost_instructions,
        })
        for phase, seconds in phases.items():
            ctx.log.add(f"store.ha.{phase}_s", seconds)
        audit_store(ctx, client)
    return rep


def matmul_ha(ctx: Ctx, n: int, every: int, faults: int) -> Rep:
    return ha_rep(ctx, "matmul", matmul_source(n, checkpoint=False),
                  matmul_expected(n), every, faults)


def sort_ha(ctx: Ctx, n: int, every: int, faults: int) -> Rep:
    return ha_rep(ctx, "sort", insertion_sort_source(n, checkpoint=False),
                  insertion_sort_expected(n), every, faults)


def churn_offset(seed: int) -> int:
    return random.Random(seed).randrange(1, ROW_WORDS)


def churn_ha(ctx: Ctx, rows: int, phases: int, every: int,
             faults: int) -> Rep:
    return ha_rep(ctx, "churn",
                  churn_source(rows, phases, churn_offset(ctx.seed)),
                  churn_expected(rows, phases), every, faults)


# ---------------------------------------------------------------------------
# churn_live: capture -> mirror -> ship to a warm standby, then promote
# ---------------------------------------------------------------------------


class TimingHooks(CommitHooks):
    """The commit protocol's real syscalls, counted and timed."""

    def __init__(self, log: LayerLog) -> None:
        self.log = log

    def fsync(self, fd: int) -> None:
        t0 = time.perf_counter()
        super().fsync(fd)
        self.log.add("checkpoint.commit.fsync_s", time.perf_counter() - t0)
        self.log.add("checkpoint.commit.fsync_count")

    def replace(self, src: str, dst: str) -> None:
        t0 = time.perf_counter()
        super().replace(src, dst)
        self.log.add("checkpoint.commit.replace_s", time.perf_counter() - t0)
        self.log.add("checkpoint.commit.replace_count")


def churn_live(ctx: Ctx, rows: int, cycles: int, build_budget: int,
               budget: int) -> Rep:
    rep = Rep()
    root = ctx.fresh_dir()
    log = ctx.log
    # Enough phases that the program is still running when the last
    # cycle ships; the promoted standby finishes the rest.
    phases = cycles + 4
    expected = churn_expected(rows, phases)
    vm_id = "live"
    t0 = time.perf_counter()
    with one_shard_store(root) as (client, addr), \
            FleetClient([addr], backoff=0.01) as lease_client:
        code = timed_compile(
            rep, churn_source(rows, phases, churn_offset(ctx.seed))
        )
        rep.setup_s = time.perf_counter() - t0
        run_baseline(ctx, rep, code, expected)
        before = dict(log.counts)

        standby_path = os.path.join(root, "standby.hckp")
        standby = StandbyServer(
            code, STANDBY, node_id="standby", chain_path=standby_path,
            lease=EpochLease(lease_client, vm_id, "standby"),
            config=incremental_config(standby_path),
        )
        t0 = time.perf_counter()
        try:
            with ctx.tracer.span(SCENARIO):
                promoted = _live_round(
                    ctx, rep, code, standby, ctx.store_client(client), vm_id,
                    os.path.join(root, "primary.hckp"),
                    [build_budget] + [budget] * (cycles - 1),
                )
            rep.walls.append(time.perf_counter() - t0)
        finally:
            standby.stop()
        state = standby.describe()
        log.add("replication.standby.applied_seq", state["applied_seq"])
        ctx.ops.check(state["promoted"], "standby not promoted")
        ctx.check_stdout(promoted.channels.stdout_bytes(), expected, vm_id)
        for key in ("checkpoint.commit.fsync_count",
                    "checkpoint.commit.replace_count",
                    "replication.channel.ship_count"):
            rep.counts[key] = log.counts[key] - before.get(key, 0)
        audit_store(ctx, client)
    return rep


def _live_round(ctx: Ctx, rep: Rep, code, standby, mirror_client,
                vm_id: str, primary_path: str, budgets: list[int]):
    """Fresh primary + standby; one protection cycle per budget; then
    the primary's host dies and the promoted standby finishes."""
    tracer, log, ops = ctx.tracer, ctx.log, ctx.ops
    hooks = TimingHooks(log)
    host, port = standby.start()
    sender = ReplicationSender.connect(
        host, port, node_id="primary", ack_timeout=60.0, max_retransmits=1,
    )
    try:
        sender.hello(code.digest().hex(), 0, PRIMARY)
        vm = VirtualMachine(get_platform(PRIMARY), code,
                            incremental_config(primary_path))
        tailer = CommitTailer(vm, primary_path)
        for cycle, budget in enumerate(budgets):
            result = vm.run(max_instructions=budget)
            if not ops.check(result.status == "budget",
                             f"program ended at cycle {cycle}"):
                break
            t0 = time.perf_counter()
            with tracer.span("replication.tailer"):
                rec = tailer.capture(inner_hooks=hooks)
            stats = mirror(mirror_client, vm_id, rec)
            t1 = time.perf_counter()
            with tracer.span("replication.channel"):
                applied = sender.ship(rec)
            t2 = time.perf_counter()
            ops.ok(2)  # captured, mirrored
            ops.check(applied == rec.seq, f"ship {rec.seq} not applied")
            rep.protect_ms.append(1e3 * (t2 - t0))
            rep.bytes_new += stats.bytes_new
            rep.generations += 1
            log.sample("replication.ship_ms", 1e3 * (t2 - t1))
            log.add("replication.channel.ship_count")
            log.add("replication.channel.ship_bytes", len(rec.data))
        t0 = time.perf_counter()
    finally:
        sender.close()  # the crash: the channel drops
    with tracer.span("replication.standby"):
        promoted = standby.promote()
    t1 = time.perf_counter()
    promoted.run()
    rep.recover_ms.append(1e3 * (t1 - t0))
    rep.recover_each_ms.append(1e3 * (t1 - t0))
    log.sample("replication.promote_ms", 1e3 * (t1 - t0))
    log.add("replication.standby.finish_s", time.perf_counter() - t1)
    return promoted


# ---------------------------------------------------------------------------
# restore_fanout: one uploaded chain restored on every kind of target
# ---------------------------------------------------------------------------


def fanout_orders(seed: int, rounds: int) -> list[list[str]]:
    """The seeded order in which each round visits the targets."""
    rng = random.Random(seed)
    return [rng.sample(FANOUT_TARGETS, len(FANOUT_TARGETS))
            for _ in range(rounds)]


def restore_fanout(ctx: Ctx, arrays: int, strings: int, rounds: int,
                   build_budget: int, history: int, deltas: int = 4,
                   budget: int = 4000) -> Rep:
    rep = Rep(baselines_per_scenario=len(FANOUT_TARGETS))
    root = ctx.fresh_dir()
    ops = ctx.ops
    phases = history + 8  # still mid-churn at the chain head
    expected = mixed_expected(strings, phases)
    vm_id = "fanout"
    t0 = time.perf_counter()
    with one_shard_store(root) as (client, _addr):
        code = timed_compile(
            rep, mixed_source(arrays, strings, phases, churn_offset(ctx.seed))
        )
        # Set-up: ``history`` protection cycles, sized so the periodic
        # full leaves the head a delta ``deltas`` deep — what a restore
        # fetches is one full + ``deltas`` deltas.  These are the
        # workload's only protection cycles, so they are where its
        # protect_* and store_bytes_per_gen samples come from.
        path = os.path.join(root, "origin.hckp")
        vm = VirtualMachine(get_platform(PRIMARY), code,
                            incremental_config(path))
        tailer = CommitTailer(vm, path)
        with ctx.tracer.paused():
            for i in range(history):
                result = vm.run(max_instructions=budget if i else build_budget)
                ops.check(result.status == "budget", "chain build ran out")
                t1 = time.perf_counter()
                rec = tailer.capture()
                stats = mirror(client, vm_id, rec)
                rep.protect_ms.append(1e3 * (time.perf_counter() - t1))
                rep.bytes_new += stats.bytes_new
                rep.generations += 1
                ops.ok(2)
        ops.check(rec.kind == "delta" and rec.chain_depth == deltas,
                  f"chain head is {rec.kind} at depth {rec.chain_depth}")
        rep.setup_s = time.perf_counter() - t0
        run_baseline(ctx, rep, code, expected)

        reader_client = ctx.store_client(client)
        restore_path = os.path.join(root, "restore.hckp")
        for order in fanout_orders(ctx.seed, rounds):
            each = []
            t0 = time.perf_counter()
            with ctx.tracer.span(SCENARIO):
                for target in order:
                    restored, seconds = cold_restore_from_store(
                        reader_client, vm_id, code, target, restore_path
                    )
                    each.append(1e3 * seconds)
                    result = restored.run()
                    ops.ok()  # restored
                    ctx.check_stdout(result.stdout, expected,
                                     f"{vm_id}->{target}")
            rep.walls.append(time.perf_counter() - t0)
            rep.recover_ms.append(sum(each) / len(each))
            rep.recover_each_ms.extend(each)
        audit_store(ctx, client)
    return rep


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Plan:
    """One workload's function and its sizes.  ``scaled`` names the
    parameter that grows with ``--seconds`` (everything else — heaps
    above all — is frozen)."""

    fn: Callable[..., Rep]
    reps: int
    full: dict
    warm: dict
    smoke: dict
    scaled: str = "reps"


PLANS: dict[str, Plan] = {
    "matmul_ha": Plan(
        matmul_ha, reps=14,
        full=dict(n=24, every=50_000, faults=2),
        warm=dict(n=14, every=20_000, faults=1),
        smoke=dict(n=10, every=8_000, faults=1),
    ),
    "sort_ha": Plan(
        sort_ha, reps=10,
        full=dict(n=300, every=50_000, faults=2),
        warm=dict(n=120, every=20_000, faults=1),
        smoke=dict(n=80, every=8_000, faults=1),
    ),
    "churn_ha": Plan(
        churn_ha, reps=8,
        full=dict(rows=160, phases=16, every=5_000, faults=2),
        warm=dict(rows=16, phases=12, every=1_000, faults=1),
        smoke=dict(rows=8, phases=8, every=500, faults=1),
    ),
    "churn_live": Plan(
        churn_live, reps=8,
        full=dict(rows=160, cycles=20, build_budget=15_000, budget=5_000),
        warm=dict(rows=16, cycles=6, build_budget=2_000, budget=600),
        smoke=dict(rows=8, cycles=4, build_budget=1_200, budget=300),
    ),
    "restore_fanout": Plan(
        restore_fanout, reps=2,
        full=dict(arrays=96, strings=1800, rounds=10, build_budget=142_000,
                  history=13),
        warm=dict(arrays=8, strings=100, rounds=1, build_budget=8_400,
                  history=5, budget=400),
        smoke=dict(arrays=4, strings=40, rounds=1, build_budget=3_500,
                   history=5, budget=200),
        scaled="rounds",
    ),
}
