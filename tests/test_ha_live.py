"""Live warm-standby failover, end to end: across seeded crash and
partition schedules the client-observed stdout must be bit-identical to
a crash-free run, with exactly one valid lease holder per epoch."""

from __future__ import annotations

import pytest

from repro import VMConfig, VirtualMachine, compile_source, get_platform
from repro.arch.platforms import PLATFORMS
from repro.metrics import REPLICATION
from repro.replication import LiveHA
from repro.store import ChunkStore, FleetClient, FleetNode

# Enough work for ~7 replicated generations at the test cadence, with
# output spread through the run so every fault window has bytes at
# stake; totals stay inside 31-bit ints for the 32-bit platforms.
WORKLOAD = """
let limit = 12000;;
let total = ref 0;;
let i = ref 0;;
while !i < limit do
  i := !i + 1;
  total := !total + !i;
  (if !i mod 1500 = 0 then
    (print_string "t"; print_int (!i / 1500); print_string "=";
     print_int !total; print_string ";"))
done;;
print_string " sum="; print_int !total
"""

CHECKPOINT_EVERY = 60_000


@pytest.fixture(scope="module")
def code():
    return compile_source(WORKLOAD)


@pytest.fixture(scope="module")
def expected(code):
    vm = VirtualMachine(
        get_platform("rodrigo"), code, VMConfig(chkpt_state="disable")
    )
    return vm.run().stdout


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    server = FleetNode(
        ChunkStore(str(tmp_path_factory.mktemp("live") / "store"))
    )
    server.start()
    yield server
    server.stop()


def _live(code, store, vm_id, schedule, seed, **kwargs):
    # The quiet window (timeout x misses) must ride out scheduler
    # stalls on a loaded host: the primary keepalives every
    # checkpoint_every/4 instructions, but a descheduled process can't
    # ping.  A false suspicion here degrades into the fenced-primary
    # path, which the crash schedules assert never happens.
    kwargs.setdefault("checkpoint_every", CHECKPOINT_EVERY)
    kwargs.setdefault("heartbeat_timeout", 0.2)
    kwargs.setdefault("heartbeat_misses", 3)
    kwargs.setdefault("ack_timeout", 0.4)
    kwargs.setdefault("max_retransmits", 1)
    return LiveHA(
        code, [store.address], vm_id, schedule=schedule, seed=seed, **kwargs
    )


def _audit_lease(report):
    """The split-brain invariants every run must satisfy."""
    valid = [(e, h) for e, h, ok in report.lease_history if ok]
    # Exactly one valid holder per epoch, epochs strictly increasing.
    epochs = [e for e, _ in valid]
    assert epochs == sorted(set(epochs))
    # Every epoch this run used was validly held.
    assert set(report.epochs) <= set(epochs)
    # Each promotion moved the epoch strictly forward.
    assert report.epochs == sorted(set(report.epochs))


def hetero(a: str, b: str) -> bool:
    pa, pb = PLATFORMS[a], PLATFORMS[b]
    return (pa.arch.endianness is not pb.arch.endianness
            and pa.arch.word_bytes != pb.arch.word_bytes)


class TestLiveOracle:
    def test_crash_free_run_matches_unreplicated_oracle(
        self, code, store, expected
    ):
        report = _live(code, store, "live-oracle", "none", seed=0).run()
        assert report.completed
        assert report.client_stdout == expected
        assert report.promotions == 0
        assert report.fenced_demotions == 0
        assert report.generations_shipped >= 5
        _audit_lease(report)

    def test_default_standby_is_fully_heterogeneous(self, code, store):
        ha = _live(code, store, "live-hetero", "none", seed=0)
        assert hetero(
            ha.primary_platform.name, ha.standby_platform.name
        )


class TestSeededSchedules:
    """The acceptance sweep: 20 seeded crash/partition schedules, each
    bit-identical to the crash-free run with a clean lease audit."""

    @pytest.mark.parametrize("seed", range(10))
    def test_crash_schedule(self, code, store, expected, seed):
        report = _live(
            code, store, f"live-crash-{seed}", "crash", seed=seed
        ).run()
        assert report.completed
        assert report.client_stdout == expected
        assert report.promotions == 1
        assert report.fenced_demotions == 0  # a dead primary never revives
        assert len(report.epochs) == 2
        assert report.takeover_seconds is not None
        _audit_lease(report)

    @pytest.mark.parametrize("seed", range(10))
    def test_partition_schedule(self, code, store, expected, seed):
        """The split-brain case: the isolated primary keeps running and
        believes it leads, the standby promotes through the lease, and
        the healed primary is fenced — with nothing duplicated or lost
        in the client's stream."""
        report = _live(
            code, store, f"live-part-{seed}", "partition", seed=seed
        ).run()
        assert report.completed
        assert report.client_stdout == expected
        assert report.promotions == 1
        assert report.fenced_demotions == 1
        assert len(report.epochs) == 2
        _audit_lease(report)


class TestPartitionDetails:
    def test_isolated_output_is_discarded_not_delivered(
        self, code, store, expected
    ):
        before = REPLICATION.as_dict()
        report = _live(
            code, store, "live-part-detail", "partition", seed=4
        ).run()
        assert report.client_stdout == expected
        # The old primary produced bytes during isolation that the gate
        # held; they were discarded at the fence and re-produced by the
        # successor — never delivered twice.
        assert report.held_discarded_bytes > 0
        assert report.generations_discarded >= 1
        delta = REPLICATION.delta_since(before)
        assert delta.get("fenced_demotions", 0) == 1
        assert delta.get("promotions", 0) == 1

    def test_crash_mid_commit_never_ships_the_torn_generation(
        self, code, store, expected
    ):
        # Seeds are deterministic: find one whose crash style is
        # mid-commit so the power cut lands inside the commit protocol.
        import random

        def style(s):
            r = random.Random(s)
            r.randint(2, 5)  # the fault slice draw precedes the style
            return r.choice(["mid-run", "mid-commit"])

        seed = next(s for s in range(50) if style(s) == "mid-commit")
        report = _live(
            code, store, "live-midcommit", "crash", seed=seed
        ).run()
        assert report.fault_style == "mid-commit"
        assert report.completed
        assert report.client_stdout == expected


class TestFleet:
    def test_live_run_on_a_fleet_audits_clean(
        self, code, expected, tmp_path
    ):
        """Given every shard's address, a live run places the lease and
        the mirrored generations on their owners: the fleet audit
        (deep) is clean after a partition's two claims and a fence."""
        shards = [
            FleetNode(ChunkStore(str(tmp_path / f"shard{i}"))) for i in range(2)
        ]
        for shard in shards:
            shard.start()
        addrs = [shard.address for shard in shards]
        try:
            with FleetClient(addrs, backoff=0.01) as fleet:
                # A lease owned by the second shard: a run that spoke to
                # the first alone would leave it misplaced.
                vm_id = next(
                    f"live-fleet-{i}" for i in range(100)
                    if fleet.manifest_node(f"live-fleet-{i}.lease")
                    != "%s:%d" % addrs[0]
                )
                report = LiveHA(
                    code, addrs, vm_id, schedule="partition", seed=3,
                    checkpoint_every=CHECKPOINT_EVERY, mirror_to_store=True,
                    heartbeat_timeout=0.2, heartbeat_misses=3,
                    ack_timeout=0.4, max_retransmits=1,
                ).run()
                assert report.completed
                assert report.client_stdout == expected
                assert (report.promotions, report.fenced_demotions) == (1, 1)
                _audit_lease(report)
                audit = fleet.audit(deep=True)
                assert audit["ok"], audit["problems"]
                assert {vm_id, vm_id + ".lease"} <= set(fleet.ls()["vms"])
        finally:
            for shard in shards:
                shard.stop()


class TestHeteroPairings:
    """Both endianness/word-size pairings, both directions."""

    @pytest.mark.parametrize("primary,standby", [
        ("rodrigo", "ultra64"),  # 32LE -> 64BE
        ("ultra64", "rodrigo"),  # 64BE -> 32LE
        ("csd", "sp2148"),       # 32BE -> 64LE
        ("sp2148", "csd"),       # 64LE -> 32BE
    ])
    def test_failover_across_architectures(
        self, code, store, expected, primary, standby
    ):
        assert hetero(primary, standby)
        report = _live(
            code, store, f"live-{primary}-{standby}", "crash", seed=1,
            primary_platform=primary, standby_platform=standby,
        ).run()
        assert report.completed
        assert report.client_stdout == expected
        assert report.promotions == 1


class TestReplicationCounters:
    def test_run_moves_the_counters(self, code, store):
        before = REPLICATION.as_dict()
        report = _live(
            code, store, "live-counters", "crash", seed=2
        ).run()
        assert report.completed
        delta = REPLICATION.delta_since(before)
        assert delta.get("generations_sent", 0) >= 1
        assert delta.get("generations_applied", 0) >= 1
        assert delta.get("acks", 0) >= 1
        assert delta.get("promotions", 0) == 1

    def test_flaky_channel_still_converges(self, code, store, expected):
        """Seeded drop/duplicate faults on the channel for the whole
        run: retransmits and dedup keep the stream exact."""
        before = REPLICATION.as_dict()
        report = _live(
            code, store, "live-flaky", "none", seed=3,
            channel_faults={"duplicate": 0.25, "delay": 0.2,
                            "delay_max": 0.002},
        ).run()
        assert report.completed
        assert report.client_stdout == expected
        delta = REPLICATION.delta_since(before)
        assert delta.get("duplicates_dropped", 0) >= 1
