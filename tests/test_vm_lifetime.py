"""A dropped VM frees its memory at once (DESIGN.md §5).

The VM's object graph is a tree rooted at :class:`VirtualMachine`:
nothing a VM owns refers back to it, or to its own owner, strongly.  So
with CPython's cycle collector **disabled**, dropping the last outside
name for a VM must kill it on the spot (``weakref.ref(vm)()`` is
``None`` on the next line), and a ``gc.collect()`` afterwards must find
no unreachable ``repro.*`` instance at all — not the VM's, and not the
restore machinery's either (snapshot sources, chunk slices, conversion
contexts hold whole heap images too).

That is checked for every way this code base makes a VM and lets it go:
fresh, run, checkpointed (full and delta, blocking and background),
restarted eagerly on all four endianness x word-size pairings,
restarted lazily with thunks still pending, the standby's resident VM
(folded in place, replaced by a rebuild, handed over by ``promote()``),
the crashed VM of an ``HASupervisor`` restart and the VMs of a cluster.
"""

from __future__ import annotations

import contextlib
import gc
import weakref

import pytest

import repro.store.ha as ha
from repro import (
    VMConfig,
    VirtualMachine,
    compile_source,
    get_platform,
    restart_vm,
)
from repro.replication import EpochLease
from repro.store import ChunkStore, FleetClient, FleetNode, HASupervisor
from repro.cluster import Cluster
from repro.workloads import insertion_sort_source, matmul_source
from tests.test_cluster import RING, ring_expected
from tests.test_ha_failover import WORKLOAD
from tests.test_net import _modules_matching
from tests.test_standby_inplace import (
    BUDGET,
    DELTAS_ONLY,
    WARM,
    Replica,
    incremental,
    mixed_source,
)

ORIGIN = "rodrigo"
#: Small heap chunks, so the restored heap is several of them and a lazy
#: restart that has run a little still has thunks pending.
CHUNK_WORDS = 4096
#: Same architecture, endianness, word size, both.
TARGETS = ("pc8", "csd", "sp2148", "ultra64")


@contextlib.contextmanager
def cycle_collector_off():
    """Collect what earlier tests left, then run with the collector off."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def unreachable_repro_types() -> list[str]:
    """One full collection; the types of the ``repro.*`` instances it
    found unreachable (i.e. kept alive only by reference cycles)."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = {
            f"{type(o).__module__}.{type(o).__qualname__}"
            for o in gc.garbage
            if type(o).__module__.split(".")[0] == "repro"
        }
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return sorted(found)


def assert_dies_when_dropped(make) -> None:
    """``make()`` returns a VM nobody else holds; dropping it frees it."""
    with cycle_collector_off():
        vm = make()
        ref = weakref.ref(vm)
        assert ref() is not None
        del vm
        assert ref() is None, "the VM outlived its last name"
        assert unreachable_repro_types() == []


@pytest.fixture(scope="module")
def mixed():
    return compile_source(mixed_source())


@pytest.fixture(scope="module")
def chain(mixed, tmp_path_factory):
    """A committed chain (full + deltas) of the mixed program."""
    path = str(tmp_path_factory.mktemp("chain") / "origin.hckp")
    vm = VirtualMachine(
        get_platform(ORIGIN), mixed,
        incremental(path, chunk_words=CHUNK_WORDS, **DELTAS_ONLY),
    )
    kinds = []
    for _ in range(WARM + 2):
        assert vm.run(max_instructions=BUDGET).status == "budget"
        vm.perform_checkpoint()
        kinds.append(vm.last_checkpoint_stats.kind)
    assert kinds[0] == "full" and kinds[-1] == "delta"
    return path


@pytest.fixture
def store(tmp_path):
    server = FleetNode(ChunkStore(str(tmp_path / "store")))
    host, port = server.start()
    client = FleetClient([(host, port)], backoff=0.01)
    yield client
    client.close()
    server.stop()


# ---------------------------------------------------------------------------
# A VM on its own
# ---------------------------------------------------------------------------


def test_fresh_vm(mixed):
    assert_dies_when_dropped(
        lambda: VirtualMachine(get_platform(ORIGIN), mixed)
    )


@pytest.mark.parametrize("dispatch", ["fast", "reference"])
def test_vm_run_to_a_budget(mixed, dispatch):
    def make():
        vm = VirtualMachine(
            get_platform(ORIGIN), mixed, VMConfig(dispatch=dispatch)
        )
        assert vm.run(max_instructions=4 * BUDGET).status == "budget"
        if dispatch == "fast":
            assert vm.fast_code is not None
        return vm

    assert_dies_when_dropped(make)


def test_vm_run_to_completion_mid_major_cycle(mixed):
    def make():
        vm = VirtualMachine(
            get_platform(ORIGIN), mixed, VMConfig(minor_words=256)
        )
        assert vm.run().status == "stopped"
        assert vm.gc.stat()["minor_collections"] > 0
        return vm

    assert_dies_when_dropped(make)


@pytest.mark.parametrize(
    "source", [matmul_source(12), insertion_sort_source(60)],
    ids=["matmul", "sort"],
)
def test_vm_that_ran_batched_loop_kernels(source):
    """The fast tier's counted-loop and stride kernels run here; a
    batch must leave nothing behind that holds the heap."""
    code = compile_source(source)

    def make():
        vm = VirtualMachine(
            get_platform(ORIGIN), code, VMConfig(chkpt_state="disable")
        )
        assert vm.run().status == "stopped"
        return vm

    assert_dies_when_dropped(make)


@pytest.mark.parametrize("mode", ["blocking", "background"])
def test_checkpointed_vm_full_and_delta(mixed, tmp_path, mode):
    def make():
        cfg = incremental(str(tmp_path / "c.hckp"), **DELTAS_ONLY)
        cfg.chkpt_mode = mode
        vm = VirtualMachine(get_platform(ORIGIN), mixed, cfg)
        kinds = set()
        for _ in range(WARM):
            vm.run(max_instructions=BUDGET)
            vm.perform_checkpoint()
            vm.join_background_checkpoint()
            kinds.add(vm.last_checkpoint_stats.kind)
        assert kinds == {"full", "delta"}
        return vm

    assert_dies_when_dropped(make)


# ---------------------------------------------------------------------------
# Restarted VMs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("then_run", [False, True])
def test_eagerly_restarted_vm(mixed, chain, target, then_run):
    def make():
        vm, stats = restart_vm(get_platform(target), mixed, chain)
        assert vm.lazy_restore is None
        if then_run:
            assert vm.run().status == "stopped"
        # ``stats.image`` refers to the VM; it goes with this frame.
        return vm

    assert_dies_when_dropped(make)


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("touched", [False, True])
def test_lazily_restarted_vm_with_thunks_pending(
        mixed, chain, target, touched):
    def make():
        vm, stats = restart_vm(
            get_platform(target), mixed, chain,
            VMConfig(lazy_restore=True, chunk_words=CHUNK_WORDS),
        )
        if touched:
            vm.run(max_instructions=BUDGET // 4)
            assert stats.lazy_chunks_converted > 0
        assert vm.lazy_restore is not None and vm.lazy_restore.pending
        return vm

    assert_dies_when_dropped(make)


# ---------------------------------------------------------------------------
# The standby's resident VM
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", ["pc8", "ultra64"])
def test_resident_vm_after_an_in_place_fold(mixed, tmp_path, target):
    def make():
        rep = Replica(mixed, ORIGIN, target, tmp_path, primary=DELTAS_ONLY)
        for _ in range(WARM + 2):
            rep.ship(BUDGET)
        assert rep.standby.applied_in_place > 0
        return rep.standby.resident_vm  # the replica goes with this frame

    assert_dies_when_dropped(make)


@pytest.mark.parametrize("target", ["pc8", "ultra64"])
def test_resident_vm_replaced_by_a_rebuild(mixed, tmp_path, target):
    """Each rebuild drops the resident VM it replaces there and then."""
    with cycle_collector_off():
        rep = Replica(mixed, ORIGIN, target, tmp_path,
                      primary={"chkpt_full_every": 3})
        residents = []
        for _ in range(WARM):
            rep.ship(BUDGET)
            residents.append(weakref.ref(rep.standby.resident_vm))
            alive = {id(r()) for r in residents if r() is not None}
            assert alive == {id(rep.standby.resident_vm)}
        assert rep.standby.rebuilt >= 3
        last = residents[-1]
        del rep
        assert last() is None
        assert unreachable_repro_types() == []


def test_resident_vm_after_promote(mixed, tmp_path, store):
    def make():
        rep = Replica(mixed, ORIGIN, "ultra64", tmp_path,
                      primary=DELTAS_ONLY)
        rep.standby.lease = EpochLease(store, "wl", "standby")
        for _ in range(WARM + 2):
            rep.ship(BUDGET)
        vm = rep.standby.promote()
        assert vm is rep.standby.resident_vm and rep.standby.image is None
        assert vm.run().status == "stopped"
        return vm

    assert_dies_when_dropped(make)


# ---------------------------------------------------------------------------
# The supervisor's crashed VM
# ---------------------------------------------------------------------------


def test_crashed_vm_is_gone_before_the_supervisor_restores(
        store, monkeypatch):
    """Every fault drops the running VM by rebinding names; by the time
    the restore starts building its successor it must be dead."""
    code = compile_source(WORKLOAD)
    made: list[weakref.ref] = []
    alive_at_restore: list[int] = []
    real_restore = ha.restore_from_store

    class Recorded(VirtualMachine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    def restore(*args, **kwargs):
        alive_at_restore.append(sum(r() is not None for r in made))
        vm, skipped, depth = real_restore(*args, **kwargs)
        made.append(weakref.ref(vm))
        return vm, skipped, depth

    monkeypatch.setattr(ha, "VirtualMachine", Recorded)
    monkeypatch.setattr(ha, "restore_from_store", restore)
    with cycle_collector_off():
        report = HASupervisor(
            code, store, "ha-lifetime",
            checkpoint_every=20_000,
            fault_budgets=(30_000, 80_000),
            max_faults=3,
            seed=7,
        ).run()
        assert report.completed and report.restarts == 3
        assert alive_at_restore == [0, 0, 0]
        assert [r() for r in made] == [None] * 4
        assert unreachable_repro_types() == []


# ---------------------------------------------------------------------------
# A cluster's VMs
# ---------------------------------------------------------------------------


def test_cluster_and_its_vms_go_together():
    """Each node's VM talks to the cluster that owns it — weakly."""
    with cycle_collector_off():
        cluster = Cluster(compile_source(RING), ["rodrigo", "ultra64", "csd"])
        cluster.run()
        assert cluster.stdout(0) == ring_expected(3)
        vms = [weakref.ref(node.vm) for node in cluster.nodes]
        del cluster
        assert [r() for r in vms] == [None] * 3
        assert unreachable_repro_types() == []


# ---------------------------------------------------------------------------
# Nothing leans on a finalizer
# ---------------------------------------------------------------------------


def test_nothing_under_src_defines_del():
    """The lifetime above comes from the shape of the graph.  A
    ``__del__`` would paper over a cycle (and, on one, delay or reorder
    the very frees this file checks)."""
    assert _modules_matching(r"^\s*def __del__\b") == []
