"""Resident memory of a long-lived restorer: RSS per cold restore.

A supervisor, a standby or a restore service rebuilds VMs over and over
inside one process and lets each go by rebinding a name.  A VM's object
graph is a tree (DESIGN.md §5), so the replaced VM's heap — ``list[int]``
chunks, stacks, staged arrays — is freed by reference count on the spot
and the next restore reuses that memory: resident size must stay flat
however many restores the process has done.

25 cold restores of one ~500k-word chain (a full and three deltas),
cycling through the four endianness x word-size targets, each restored
VM run to completion (which unstages every heap chunk into a word
list) and dropped.  The cycle collector is **off** for the whole loop:
what is measured is reference counting alone.  Growth is taken after
``WARMUP`` restores, once the allocator's arenas have reached their
working size.  Recorded in ``results/BENCH_vm_lifetime.json``; gated at
``MAX_GROWTH_MIB`` per restore (before the ownership tree, with every
VM cyclic garbage from birth, the same loop grew ~9 MiB per restore).
"""

from __future__ import annotations

import gc
import os

import pytest

from repro import (
    VMConfig,
    VirtualMachine,
    compile_source,
    get_platform,
    restart_vm,
)

HEAP_WORDS = 500 * 1024
ROW_WORDS = 4096
RESTORES = 25
WARMUP = 5
TARGETS = ("pc8", "csd", "sp2148", "ultra64")

#: CI gate: resident growth per restore once warm, in MiB.
MAX_GROWTH_MIB = 0.5


def _source(rows: int, phases: int) -> str:
    """``rows`` live arrays; each phase writes one word in a few of
    them (so the chain's deltas are small) and the tail reads one word
    of every row (so a restored run touches the whole heap)."""
    return f"""
let rows = {rows};;
let keep = ref [];;
let () =
  for i = 1 to rows do
    keep := Array.make {ROW_WORDS} i :: !keep
  done;;
let rec touch l i p =
  match l with
  | [] -> 0
  | h :: t ->
    ((if (i + p) mod 16 = 0 then h.(p) <- h.(p) + p); touch t (i + 1) p);;
let phase = ref 0;;
let junk = ref 0;;
while !phase < {phases} do
  phase := !phase + 1;
  junk := touch !keep 0 !phase;
  checkpoint ()
done;;
let rec sum l = match l with [] -> 0 | h :: t -> h.(0) + sum t;;
print_int (sum !keep)
"""


def _rss_mib() -> float:
    with open("/proc/self/statm") as f:
        resident_pages = int(f.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs /proc (Linux)"
)
def test_rss_stays_flat_across_cold_restores(tmp_path, get_report,
                                             bench_json):
    rows = HEAP_WORDS // ROW_WORDS
    code = compile_source(_source(rows, phases=4))
    path = str(tmp_path / "origin.hckp")
    origin = VirtualMachine(
        get_platform("rodrigo"), code,
        VMConfig(chkpt_filename=path, chkpt_mode="blocking",
                 chkpt_incremental=True, chkpt_retain=8),
    )
    expected = origin.run().stdout
    assert origin.last_checkpoint_stats.kind == "delta"
    assert origin.last_checkpoint_stats.chain_depth == 3
    heap_words = origin.gc.stat()["heap_words"]
    del origin

    gc.collect()
    gc.disable()
    try:
        rss = [_rss_mib()]
        for i in range(RESTORES):
            vm, _stats = restart_vm(
                get_platform(TARGETS[i % len(TARGETS)]), code, path
            )
            result = vm.run()
            assert result.status == "stopped" and result.stdout == expected
            del vm, result, _stats
            rss.append(_rss_mib())
    finally:
        gc.enable()

    growth = (rss[RESTORES] - rss[WARMUP]) / (RESTORES - WARMUP)
    bench_json("BENCH_vm_lifetime").update({
        "heap_words": heap_words,
        "restores": RESTORES,
        "warmup_restores": WARMUP,
        "rss_before_mib": round(rss[0], 1),
        "rss_after_warmup_mib": round(rss[WARMUP], 1),
        "rss_after_25_mib": round(rss[RESTORES], 1),
        "rss_growth_per_restore_mib": round(growth, 3),
        "max_growth_per_restore_mib": MAX_GROWTH_MIB,
    })
    rep = get_report(
        "VM lifetime",
        f"resident size across {RESTORES} cold restores of a "
        f"{heap_words}-word chain (cycle collector off)",
        ["restores done", "RSS MiB"],
    )
    for n in (0, 1, WARMUP, 10, 15, 20, RESTORES):
        rep.row(n, f"{rss[n]:.1f}")
    rep.note(
        f"{growth:+.3f} MiB per restore after the first {WARMUP} "
        f"(gate {MAX_GROWTH_MIB}); each dropped VM frees its heap at once"
    )
    assert growth <= MAX_GROWTH_MIB
