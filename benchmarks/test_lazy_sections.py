"""Deferred-section restore: time-to-first-output vs eager, with the
byte ledger.

PR 10 moved the lazy-restore blocking floor down a layer: a lazy
restart no longer reads + CRCs + parses the whole file up front — it
opens a deferred :class:`~repro.checkpoint.schema.SnapshotSource`,
resolves only the framing and the non-heap sections (a few KB), and
leaves the heap payload (~99.8% of a big checkpoint) on disk behind
chunk slices until first touch.  This bench gates that claim:

* TTFO at the largest size at most ``MAX_TTFO_OVER_SAME_ARCH`` of an
  eager *same-architecture* restart of the same file (rodrigo ->
  rodrigo: whole-file read + CRC + parse + chunk adoption, no
  conversion) — the lazy path crosses endianness and word size and is
  still off the application's critical path well before a homogeneous
  restart would be,
* completed lazy restore within ``MAX_COMPLETION_RATIO``x of eager,
* the deferral is real: most of the file's bytes are deferred at
  restart and the demand path reads only a small fraction.

The TTFO gate used to be a ratio over the eager rodrigo -> ultra64
restart (>= 4x, typical 6-7x).  That denominator is the cross-word-size
rebuild, which PR 14 made ~2.4x faster (25 -> 10.5 ms at 640k words,
now level with the same-arch restart): the ratio fell to 2.6-3.1x with
lazy's own floor where it was (3.4-3.6 ms, parent and change measured
alternately).  The same-arch restart is the floor no eager restart gets
under, so it is the denominator that only moves when the deferred work
itself does.  At 0.6 the gate admits a lazy floor of ~6 ms here; the
4x-over-eager gate admitted 6.2 ms (8.6 ms on the machine state its
record was taken in).  ``ttfo_speedup`` (over eager ultra64) is still
recorded.

Interleaved min-of-N, rodrigo -> ultra64 (endianness *and* word size),
recorded in ``results/BENCH_lazy_sections.json``.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import make_checkpoint
from repro import VMConfig, get_platform, restart_vm

SIZES_WORDS = [256 * 1024, 640 * 1024]

CHUNK_WORDS = 32 * 1024

ROUNDS = 5

#: CI gate on time-to-first-output at the largest size: lazy
#: rodrigo -> ultra64 TTFO over an eager rodrigo -> rodrigo restart
#: (typical 0.33-0.45, before and after PR 14).
MAX_TTFO_OVER_SAME_ARCH = 0.6

#: Completed (drained + late-verified) lazy restore may cost at most
#: this much more than eager.
MAX_COMPLETION_RATIO = 1.3

#: At restart, at least this share of the file's bytes must still be
#: unread/unverified — the deferral the speedup comes from.
MIN_DEFERRED_FRACTION = 0.90


def _head_touch_source(total_words: int) -> str:
    rows = max(total_words // 4096, 1)
    return f"""
let rows = {rows};;
let keep = ref [];;
let () =
  for i = 1 to rows do
    let a = Array.make 4096 i in
    keep := a :: !keep
  done;;
checkpoint ();;
let rec first l = match l with [] -> 0 | h :: _ -> h.(0);;
print_int (first !keep)
"""


def _restart(code, path: str, lazy: bool, target: str = "ultra64"):
    return restart_vm(
        get_platform(target), code, path,
        VMConfig(chunk_words=CHUNK_WORDS, lazy_restore=lazy),
    )


@pytest.mark.parametrize("size", SIZES_WORDS)
def test_lazy_sections_ttfo(size, tmp_path, benchmark, get_report,
                            bench_json):
    rep = get_report(
        "Deferred sections",
        "restart byte ledger + TTFO: eager vs deferred-section lazy "
        "(rodrigo->ultra64)",
        ["path", "TTFO ms", "completed ms", "bytes read", "bytes deferred"],
    )
    path = str(tmp_path / "lazy.hckp")
    code, _ = make_checkpoint(
        _head_touch_source(size), path, chunk_words=CHUNK_WORDS
    )
    file_bytes = os.path.getsize(path)

    benchmark.pedantic(
        lambda: _restart(code, path, lazy=True), rounds=1, iterations=1
    )

    for lazy in (True, False):  # warm every path once
        _restart(code, path, lazy)
    _restart(code, path, False, "rodrigo")

    best = {}
    best_completion = {}
    same_arch = float("inf")
    ledger = None
    expected = None
    for _ in range(ROUNDS):
        for lazy in (True, False):
            vm, stats = _restart(code, path, lazy)
            if lazy:
                # The deferral must be structural, not incidental: the
                # heap section's bytes are unverified at restart.
                assert stats.sections_deferred >= 1
                assert stats.bytes_deferred >= (
                    file_bytes * MIN_DEFERRED_FRACTION
                )
                sources = getattr(vm, "lazy_restore").sources
                ledger = {
                    "file_bytes": file_bytes,
                    "bytes_read_at_restart": sum(
                        s.stats()["bytes_read"] for s in sources
                    ),
                    "bytes_verified_at_restart": stats.bytes_verified,
                    "bytes_deferred": stats.bytes_deferred,
                    "sections_deferred": stats.sections_deferred,
                }
            out = vm.run()
            assert out.status == "stopped"
            if expected is None:
                expected = out.stdout
            assert out.stdout == expected
            if lazy:
                vm.finish_lazy_restore()
            prev = best.get(lazy)
            if prev is None or stats.total_seconds < prev.total_seconds:
                best[lazy] = stats
            best_completion[lazy] = min(
                best_completion.get(lazy, float("inf")),
                stats.completion_seconds,
            )
        _, stats = _restart(code, path, False, "rodrigo")
        same_arch = min(same_arch, stats.total_seconds)

    eager, lazy_stats = best[False], best[True]
    ttfo_speedup = eager.total_seconds / lazy_stats.total_seconds
    over_same_arch = lazy_stats.total_seconds / same_arch
    completion_ratio = best_completion[True] / best_completion[False]

    entry = bench_json("BENCH_lazy_sections").setdefault("sizes", {})
    entry[str(size)] = dict(
        ledger,
        eager_ttfo_ms=round(eager.total_seconds * 1e3, 3),
        lazy_ttfo_ms=round(lazy_stats.total_seconds * 1e3, 3),
        eager_completed_ms=round(best_completion[False] * 1e3, 3),
        lazy_completed_ms=round(best_completion[True] * 1e3, 3),
        same_arch_eager_ms=round(same_arch * 1e3, 3),
        ttfo_speedup=round(ttfo_speedup, 3),
        ttfo_over_same_arch=round(over_same_arch, 3),
        completion_ratio=round(completion_ratio, 3),
    )

    for label, lazy in (("eager", False), ("lazy", True)):
        stats = best[lazy]
        rep.row(
            label,
            f"{stats.total_seconds * 1e3:.1f}",
            f"{best_completion[lazy] * 1e3:.1f}",
            f"{ledger['bytes_read_at_restart']}" if lazy else file_bytes,
            f"{ledger['bytes_deferred']}" if lazy else 0,
        )

    if size == SIZES_WORDS[-1]:
        rep.note(
            f"TTFO {ttfo_speedup:.2f}x faster lazy, "
            f"{over_same_arch:.2f} of an eager same-arch restart "
            f"({same_arch * 1e3:.1f} ms; min of {ROUNDS} "
            f"interleaved rounds); completed {completion_ratio:.2f}x "
            f"eager; {ledger['bytes_deferred']}/{file_bytes} bytes "
            f"deferred at restart"
        )
        assert over_same_arch <= MAX_TTFO_OVER_SAME_ARCH
        assert completion_ratio <= MAX_COMPLETION_RATIO
