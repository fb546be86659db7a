"""Differential tests of the standby's in-place delta apply.

After **every** shipped generation the standby's resident VM — whether
the generation was folded in place or restored from the chain — must
equal, word for word, a cold ``restart_vm`` of the standby's own local
chain, and the word-at-a-time oracle's restore of it (``tests/oracle``);
run to completion, all three must print the same bytes after the same
number of instructions, and prefill + output must equal the
uninterrupted run.

One deterministic mixed-heap program (word arrays, strings mutated in
place, boxed floats) covers every endianness x word-size pairing in
both directions; then one case per reason the standby must *not* fold in
place, each asserting that the fallback was taken and the result still
matches; then the failure paths: a corrupt arriving delta, a delta bound
to the wrong parent, a standby whose disk refuses the commit, and a
delta chain deeper than the standby's retention.

The property-based version (random program x random checkpoint points)
lives in ``tests/test_property_cr.py`` and drives :class:`Replica` too.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro import (
    VMConfig,
    VirtualMachine,
    compile_source,
    get_platform,
    restart_vm,
)
from repro.checkpoint import reader
from repro.checkpoint.resident import ResidentImage
from repro.errors import ReplicationError
from repro.metrics import REPLICATION
from repro.replication import CommitTailer, ReplicationSender, StandbyServer
from tests import oracle

ROW = 1500
#: Instructions per generation: the build spans three (one full, two
#: that allocate), each mutation phase about two.
BUDGET = 900
#: Generations after which the mixed program only mutates in place.
WARM = 8
#: Primary settings under which every generation after the first is a
#: delta (no periodic full, no retention-forced one).
DELTAS_ONLY = {"chkpt_full_every": 0, "chkpt_retain": 64}


def mixed_source(arrays: int = 6, strings: int = 40, phases: int = 8) -> str:
    """Arrays, strings of every small length and boxed floats, built
    once and then mutated without allocating: array slots and string
    bytes change under blocks that stay where they are."""
    return f"""
let keep = ref [];;
let skeep = ref [];;
let fkeep = ref [];;
let () =
  for i = 1 to {arrays} do
    keep := Array.make {ROW} i :: !keep
  done;;
let () =
  for i = 1 to {strings} do
    let s = String.make (i mod 23 + 1) 'a' in
    begin
      skeep := s :: !skeep;
      fkeep := (float_of_int i *. 1.5) :: !fkeep
    end
  done;;
let rec touch l i p =
  match l with
  | [] -> 0
  | h :: t ->
    ((if (i + p) mod 3 = 0 then
        h.((p * 37) mod {ROW}) <- h.((p * 37) mod {ROW}) + p);
     touch t (i + 1) p);;
let rec stouch l i p =
  match l with
  | [] -> 0
  | s :: t ->
    ((if (i + p) mod 4 = 0 then
        s.[0] <- (if p mod 2 = 0 then 'y' else 'z'));
     stouch t (i + 1) p);;
let phase = ref 0;;
let junk = ref 0;;
while !phase < {phases} do
  phase := !phase + 1;
  junk := touch !keep 0 !phase;
  junk := stouch !skeep 0 !phase
done;;
let rec suma l = match l with [] -> 0 | h :: t -> h.(0) + h.(37) + suma t;;
let rec cat l = match l with [] -> "" | s :: t -> String.sub s 0 1 ^ cat t;;
let rec sumf l = match l with [] -> 0.0 | f :: t -> f +. sumf t;;
print_int (suma !keep); print_string " ";
print_string (cat !skeep); print_string " ";
print_float (sumf !fkeep)
"""


def incremental(path: str, **overrides) -> VMConfig:
    cfg = VMConfig(
        chkpt_state="enable",
        chkpt_filename=path,
        chkpt_mode="blocking",
        chkpt_interval=None,
        chkpt_incremental=True,
        chkpt_retain=8,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class Replica:
    """A primary and a socket-less standby.

    Each :meth:`ship` runs the primary for a budget, captures a
    generation and splices it straight into the standby;
    :meth:`check` compares the resident VM with a cold restore and the
    oracle's restore of the standby's own chain.
    """

    def __init__(self, code, origin: str, target: str, tmp, *,
                 primary: dict | None = None, standby: dict | None = None):
        self.code = code
        self.target = get_platform(target)
        self.primary_path = str(tmp / "primary.hckp")
        self.standby_path = str(tmp / "standby.hckp")
        self.vm = VirtualMachine(
            get_platform(origin), code,
            incremental(self.primary_path, **(primary or {})),
        )
        self.tailer = CommitTailer(self.vm, self.primary_path)
        self.standby_config = incremental(
            self.standby_path, **(standby or {})
        )
        self.standby = StandbyServer(
            code, target, node_id="standby", chain_path=self.standby_path,
            config=self.standby_config,
        )
        self.last = None

    def capture(self, budget: int):
        """Run the primary ``budget`` instructions and checkpoint; None
        once the program has ended."""
        if self.vm.run(max_instructions=budget).status != "budget":
            return None
        return self.tailer.capture()

    def ship(self, budget: int):
        rec = self.capture(budget)
        if rec is not None:
            self.standby._splice(rec)
            self.last = rec
        return rec

    def cold(self) -> VirtualMachine:
        vm, _ = restart_vm(
            self.target, self.code, self.standby_path, self.standby_config
        )
        return vm

    def check(self) -> None:
        resident = self.standby.resident_vm
        cold = self.cold()
        fp = oracle.fingerprint(resident, header_maps=True)
        assert fp == oracle.fingerprint(cold, header_maps=True)
        scalar = oracle.restart_vm(
            self.target, self.code, self.standby_path, self.standby_config
        )
        assert oracle.fingerprint(resident) == oracle.fingerprint(scalar)

    def finish(self, reference) -> None:
        """Resident, cold and oracle VMs all end like ``reference``, the
        uninterrupted run."""
        scalar = oracle.restart_vm(
            self.target, self.code, self.standby_path, self.standby_config
        )
        ends = []
        for vm in (self.standby.resident_vm, self.cold(), scalar):
            out = vm.run(max_instructions=50_000_000)
            assert out.status == "stopped"
            vm.mem.heap.check_integrity()
            ends.append((out.stdout, out.instructions))
        assert ends[0] == ends[1] == ends[2]
        stdout, instructions = ends[0]
        assert self.last.stdout + stdout == reference.stdout
        assert self.last.instructions + instructions == reference.instructions


def reference_run(code, origin: str):
    vm = VirtualMachine(
        get_platform(origin), code, VMConfig(chkpt_state="disable")
    )
    out = vm.run(max_instructions=50_000_000)
    assert out.status == "stopped"
    return out


def ship_all(rep: Replica, budget: int, limit: int = 40,
             kinds: list | None = None) -> list[str]:
    """Ship generations until the program ends (or ``limit``), checking
    each; returns how each was applied ("in-place" or the reason), and
    appends each generation's kind to ``kinds`` when given."""
    how = []
    for _ in range(limit):
        before = rep.standby.applied_in_place
        rec = rep.ship(budget)
        if rec is None:
            break
        if kinds is not None:
            kinds.append(rec.kind)
        rep.check()
        how.append(
            "in-place" if rep.standby.applied_in_place > before
            else rep.standby.last_rebuild_reason
        )
    return how


@pytest.fixture(scope="module")
def mixed():
    return compile_source(mixed_source())


# ---------------------------------------------------------------------------
# Every pairing, both directions
# ---------------------------------------------------------------------------

PAIRS = [
    ("rodrigo", "ultra64"),  # swap + widen
    ("ultra64", "rodrigo"),  # swap + narrow
    ("csd", "sp2148"),       # swap + widen, big-endian origin
    ("sp2148", "csd"),       # swap + narrow, little-endian origin
    ("rodrigo", "csd"),      # swap only
    ("csd", "rodrigo"),
    ("rodrigo", "sp2148"),   # widen only
    ("sp2148", "rodrigo"),   # narrow only
    ("rodrigo", "pc8"),      # same architecture
    ("ultra64", "ultra64"),
]


#: A periodic full every few generations, so the matrix folds fulls
#: in place as well as deltas.
FULL_EVERY = {"chkpt_full_every": 4}


@pytest.mark.parametrize("origin,target", PAIRS)
def test_every_generation_equals_a_cold_restore(mixed, origin, target, tmp_path):
    rep = Replica(mixed, origin, target, tmp_path, primary=FULL_EVERY)
    kinds = []
    how = ship_all(rep, BUDGET, kinds=kinds)
    # The build phase allocates (layout changes); the mutation phases
    # must all fold in place, their periodic fulls included.
    assert how[0] == "full"
    assert how.count("in-place") >= 12, how
    assert set(how) <= {"in-place", "full", "layout"}, how
    folded_fulls = [h for k, h in zip(kinds, how) if k == "full"][1:]
    assert folded_fulls.count("in-place") >= 2, (kinds, how)
    rep.finish(reference_run(mixed, origin))


def test_a_cold_restore_pays_nothing_for_the_image(mixed, tmp_path,
                                                  monkeypatch):
    """A fold needs no saved image: every word converts on its own, or
    (a string or a double across word sizes) is recovered from the
    resident VM's own words.  The image keeps none of the saved chunks
    the restore converted from, and a fold never reads the chain back."""
    for target in ("pc8", "ultra64"):
        os.makedirs(tmp_path / target)
        rep = Replica(mixed, "rodrigo", target, tmp_path / target,
                      primary=DELTAS_ONLY)
        rep.ship(BUDGET)
        assert getattr(rep.standby.image.conversion, "sources", None) is None
        reads = []
        chain_read = reader.load_snapshot_chain
        monkeypatch.setattr(
            reader, "load_snapshot_chain",
            lambda *a, **k: reads.append(a) or chain_read(*a, **k),
        )
        while rep.standby.applied_in_place == 0:
            before = len(reads)
            assert rep.ship(BUDGET) is not None
        assert len(reads) == before  # the fold read nothing back
        monkeypatch.undo()
        rep.check()


def test_counters_and_describe_report_the_hit_rate(mixed, tmp_path):
    before = REPLICATION.as_dict()
    rep = Replica(mixed, "rodrigo", "ultra64", tmp_path)
    how = ship_all(rep, BUDGET)
    moved = REPLICATION.delta_since(before)
    state = rep.standby.describe()
    assert state["applied_in_place"] == how.count("in-place")
    assert state["rebuilt"] == len(how) - how.count("in-place")
    assert state["applied_in_place"] + state["rebuilt"] == state["applied_seq"]
    assert moved["generations_applied_in_place"] == state["applied_in_place"]
    assert moved["generations_rebuilt"] == state["rebuilt"]
    assert moved["generations_applied"] == len(how)
    last = [h for h in how if h != "in-place"][-1]
    assert state["last_rebuild_reason"] == last
    assert REPLICATION.as_dict()["last_rebuild_reason"] == last


# ---------------------------------------------------------------------------
# One case per reason not to fold in place
# ---------------------------------------------------------------------------

GROWING = """
let keep = ref [];;
let big = ref [];;
let n = ref 0;;
while !n < 40 do
  n := !n + 1;
  keep := !n :: !keep;
  (if !n mod 10 = 0 then big := Array.make 40000 !n :: !big)
done;;
let rec len l = match l with [] -> 0 | _ :: t -> 1 + len t;;
print_int (len !keep); print_string " "; print_int (len !big)
"""


def test_allocation_between_generations_rebuilds(tmp_path):
    """Blocks allocated (promoted out of the young generation by the
    writer's minor collection) since the last generation, and whole
    chunks added for the big arrays: the layout moved."""
    code = compile_source(GROWING)
    rep = Replica(code, "rodrigo", "ultra64", tmp_path,
                  primary={"chkpt_full_every": 0,
                           "chkpt_dirty_threshold": 1.0})
    chunks = []
    how = []
    for _ in range(30):
        if rep.ship(120) is None:
            break
        rep.check()
        chunks.append(len(rep.standby.resident_vm.mem.heap.chunks))
        how.append(rep.standby.last_rebuild_reason)
    assert how[0] == "full"
    assert "layout" in how[1:]
    assert chunks[-1] > chunks[0]  # chunk added
    assert rep.standby.applied_in_place < len(how) - 1
    rep.finish(reference_run(code, "rodrigo"))


def test_compaction_rebuilds(mixed, tmp_path):
    rep = Replica(mixed, "rodrigo", "ultra64", tmp_path)
    for _ in range(WARM):
        rep.ship(BUDGET)
        rep.check()
    in_place = rep.standby.applied_in_place
    assert in_place > 0
    rep.vm.gc.full_major()
    rep.vm.gc.compact()
    rep.ship(100)
    rep.check()
    assert rep.standby.applied_in_place == in_place
    assert rep.standby.last_rebuild_reason in ("full", "layout")
    rep.finish(reference_run(mixed, "rodrigo"))


def test_full_generation_rebuilds(mixed, tmp_path):
    """Only a full the held image cannot take is restored afresh: the
    first (nothing to fold into yet, reason "full") and one whose blocks
    moved ("layout").  A periodic full that keeps the layout folds in
    place like a delta that dirtied every word."""
    rep = Replica(mixed, "rodrigo", "ultra64", tmp_path,
                  primary={"chkpt_full_every": 3})
    kinds = []
    how = ship_all(rep, BUDGET, limit=WARM + 4, kinds=kinds)
    assert (kinds[0], how[0]) == ("full", "full")
    assert "full" not in how[1:], how
    later = [h for k, h in zip(kinds, how) if k == "full"][1:]
    assert later and later[-1] == "in-place", (kinds, how)
    # Compaction moves blocks; a full taken then cannot fold.
    rep.vm.gc.full_major()
    rep.vm.gc.compact()
    rep.vm.mem.dirty.mark_all()
    rec = rep.ship(100)
    assert rec.kind == "full"
    rep.check()
    assert rep.standby.last_rebuild_reason == "layout"
    rep.finish(reference_run(mixed, "rodrigo"))


def test_lazy_restore_config_always_rebuilds(mixed, tmp_path):
    rep = Replica(mixed, "rodrigo", "ultra64", tmp_path,
                  standby={"lazy_restore": True})
    for _ in range(WARM):
        assert rep.ship(BUDGET) is not None
    assert rep.standby.image is None
    assert rep.standby.applied_in_place == 0
    assert rep.standby.last_rebuild_reason in ("lazy", "full")
    os.makedirs(tmp_path / "eager")
    eager = Replica(mixed, "rodrigo", "ultra64", tmp_path / "eager")
    for _ in range(WARM):
        eager.ship(BUDGET)
    assert eager.standby.applied_in_place > 0
    lazy_vm, eager_vm = rep.standby.resident_vm, eager.standby.resident_vm
    lazy_vm.finish_lazy_restore()
    assert oracle.fingerprint(lazy_vm) == oracle.fingerprint(eager_vm)
    a, b = lazy_vm.run(), eager_vm.run()
    assert (a.stdout, a.instructions) == (b.stdout, b.instructions)


def test_unstaged_resident_heap_rebuilds(mixed, tmp_path):
    """Anything that reads the resident heap as a word list unstages
    it; the next delta then restores the chain."""
    rep = Replica(mixed, "rodrigo", "ultra64", tmp_path,
                  primary=DELTAS_ONLY)
    for _ in range(WARM):
        rep.ship(BUDGET)
    in_place = rep.standby.applied_in_place
    assert in_place > 0
    rep.standby.resident_vm.mem.heap.chunks[0].area.words
    rep.ship(BUDGET)
    rep.check()
    assert rep.standby.last_rebuild_reason == "unstaged"
    assert rep.standby.applied_in_place == in_place
    rep.ship(BUDGET)  # the rebuild re-seeded the image
    rep.check()
    assert rep.standby.applied_in_place == in_place + 1
    rep.finish(reference_run(mixed, "rodrigo"))


def test_a_fold_that_fails_part_way_restores_the_chain(
        mixed, tmp_path, monkeypatch):
    rep = Replica(mixed, "rodrigo", "ultra64", tmp_path, primary=DELTAS_ONLY)
    for _ in range(WARM):
        rep.ship(BUDGET)
    torn_vm = rep.standby.resident_vm

    def torn(image, plan):
        image.vm.mem.heap.chunks[0].area.peek_staged()[:64] = 0xDEAD
        raise IndexError("fold died half-way")

    monkeypatch.setattr(ResidentImage, "apply", torn)
    rep.ship(BUDGET)
    monkeypatch.undo()
    assert rep.standby.last_rebuild_reason == "apply-failed"
    assert rep.standby.resident_vm is not torn_vm
    rep.check()
    in_place = rep.standby.applied_in_place
    rep.ship(BUDGET)
    rep.check()
    assert rep.standby.applied_in_place == in_place + 1
    rep.finish(reference_run(mixed, "rodrigo"))


# ---------------------------------------------------------------------------
# Failure paths: the standby stays where it was
# ---------------------------------------------------------------------------


def standby_state(sb: StandbyServer):
    return (
        sb.applied_seq,
        sb.last_body_sha,
        sb.resident_vm,
        sb.image,
        sb.image.head_sha,
        oracle.fingerprint(sb.resident_vm, header_maps=True),
    )


def test_delta_bound_to_the_wrong_parent_is_refused(mixed, tmp_path):
    rep = Replica(mixed, "rodrigo", "ultra64", tmp_path, primary=DELTAS_ONLY)
    for _ in range(WARM):
        rep.ship(BUDGET)
    skipped = rep.capture(BUDGET)
    later = rep.capture(BUDGET)
    assert later.kind == "delta" and later.parent_sha256 == skipped.body_sha256
    before = standby_state(rep.standby)
    with pytest.raises(ReplicationError, match="parent hash mismatch"):
        rep.standby._splice(later)
    assert standby_state(rep.standby) == before
    assert not os.path.exists(rep.standby_path + ".tmp")
    rep.check()  # nothing of it reached the local chain either


class Link:
    """A listening standby and a connected sender."""

    def __init__(self, code, tmp, **kwargs):
        self.chain_dir = tmp / "chain"
        os.makedirs(self.chain_dir)
        self.path = str(self.chain_dir / "standby.hckp")
        self.standby = StandbyServer(
            code, "ultra64", node_id="standby", chain_path=self.path,
            config=incremental(self.path), heartbeat_timeout=0.2, **kwargs,
        )
        host, port = self.standby.start()
        self.sender = ReplicationSender.connect(
            host, port, node_id="primary", ack_timeout=30.0,
            max_retransmits=0,
        )
        self.sender.hello(code.digest().hex(), 1, "rodrigo")

    def close(self):
        self.sender.close()
        self.standby.stop()


@pytest.fixture
def link(mixed, tmp_path):
    ln = Link(mixed, tmp_path)
    yield ln
    ln.close()


def primary_at_steady_state(code, tmp, link):
    """A primary whose generations so far are all on the standby, the
    last ones folded in place."""
    path = str(tmp / "primary.hckp")
    vm = VirtualMachine(
        get_platform("rodrigo"), code, incremental(path, **DELTAS_ONLY)
    )
    tailer = CommitTailer(vm, path)
    for _ in range(WARM):
        assert vm.run(max_instructions=BUDGET).status == "budget"
        link.sender.ship(tailer.capture())
    assert link.standby.applied_in_place > 0
    return vm, tailer


def test_corrupt_arriving_delta_answers_err_and_touches_nothing(
        mixed, tmp_path, link):
    vm, tailer = primary_at_steady_state(mixed, tmp_path, link)
    vm.run(max_instructions=BUDGET)
    rec = tailer.capture()
    assert rec.kind == "delta"
    data = bytearray(rec.data)
    data[len(data) // 2] ^= 0x40
    before = standby_state(link.standby)
    head = open(link.path, "rb").read()
    # The wire digest is computed over the damaged bytes, so the frame
    # itself is sound: the *file* is what fails verification.
    with pytest.raises(ReplicationError, match="CRC mismatch"):
        link.sender.ship(dataclasses.replace(rec, data=bytes(data)))
    assert standby_state(link.standby) == before
    assert open(link.path, "rb").read() == head
    # Still serving: the undamaged generation goes through, in place.
    in_place = link.standby.applied_in_place
    assert link.sender.ship(rec) == rec.seq
    assert link.standby.applied_in_place == in_place + 1


def test_failed_local_commit_answers_err_and_keeps_serving(
        mixed, tmp_path, link):
    vm, tailer = primary_at_steady_state(mixed, tmp_path, link)
    vm.run(max_instructions=BUDGET)
    rec = tailer.capture()
    before = standby_state(link.standby)
    gone = str(link.chain_dir) + ".gone"
    os.rename(link.chain_dir, gone)  # the standby's disk goes away
    try:
        with pytest.raises(
            ReplicationError,
            match=f"standby could not commit generation {rec.seq}",
        ):
            link.sender.ship(rec)
    finally:
        os.rename(gone, link.chain_dir)
    assert standby_state(link.standby) == before
    assert link.standby._thread.is_alive()
    assert not link.standby.suspect_event.is_set()
    assert link.sender.ping()
    # The disk is back: the same generation commits and applies.
    assert link.sender.ship(rec) == rec.seq
    assert link.standby.applied_seq == rec.seq


def test_failed_commit_of_a_full_generation_also_answers_err(
        mixed, tmp_path, link):
    path = str(tmp_path / "primary.hckp")
    vm = VirtualMachine(get_platform("rodrigo"), mixed, incremental(path))
    tailer = CommitTailer(vm, path)
    vm.run(max_instructions=BUDGET)
    rec = tailer.capture()
    gone = str(link.chain_dir) + ".gone"
    os.rename(link.chain_dir, gone)
    try:
        with pytest.raises(ReplicationError, match="could not commit"):
            link.sender.ship(rec)
    finally:
        os.rename(gone, link.chain_dir)
    assert link.standby.applied_seq == 0
    assert link.standby.resident_vm is None
    assert link.standby._thread.is_alive()
    assert link.sender.ship(rec) == 1


def test_promotion_fences_the_resident_vm_from_later_generations(
        mixed, tmp_path):
    """A generation racing a promotion must not be folded into the VM
    that was just handed over."""
    rep = Replica(mixed, "rodrigo", "ultra64", tmp_path, primary=DELTAS_ONLY)
    for _ in range(WARM):
        rep.ship(BUDGET)
    rec = rep.capture(BUDGET)
    assert rec.kind == "delta"
    handed_over = rep.standby.resident_vm
    fp = oracle.fingerprint(handed_over, header_maps=True)
    rep.standby.promoted_event.set()
    with pytest.raises(ReplicationError, match="after promotion"):
        rep.standby._splice(rec)
    assert oracle.fingerprint(handed_over, header_maps=True) == fp


# ---------------------------------------------------------------------------
# Chain-aware retention
# ---------------------------------------------------------------------------


def test_standby_never_rotates_away_the_base_of_its_live_chain(tmp_path):
    """Thirty-odd deltas on one full base — past DEFAULT_RETAIN — stay
    restorable from the standby's own files, and a fallback that needs
    the whole chain succeeds; once a full arrives the surplus goes."""
    code = compile_source(mixed_source(phases=40))
    rep = Replica(code, "rodrigo", "ultra64", tmp_path,
                  primary=DELTAS_ONLY)
    how = ship_all(rep, BUDGET, limit=60)  # check() restores the chain
    depth = rep.last.chain_depth
    assert depth >= 30 > rep.standby.retain
    assert how[-30:] == ["in-place"] * 30
    assert os.path.exists(f"{rep.standby_path}.{depth}")
    # Force the fallback on the deepest chain: unstage the heap.
    rep.standby.resident_vm.mem.heap.chunks[0].area.words
    assert rep.ship(BUDGET) is not None
    assert rep.standby.last_rebuild_reason == "unstaged"
    rep.check()
    # A full generation no longer needs what lies past the retention.
    rep.vm.mem.dirty.mark_all()
    rec = rep.ship(BUDGET)
    assert rec.kind == "full"
    rep.check()
    assert os.path.exists(f"{rep.standby_path}.{rep.standby.retain}")
    assert not os.path.exists(f"{rep.standby_path}.{rep.standby.retain + 1}")
    rep.finish(reference_run(code, "rodrigo"))
