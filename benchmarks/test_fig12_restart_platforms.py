"""Figure 12: restart time on different platforms vs checkpoint size.

The workload is string/float-heavy: byte-oriented payloads are what the
endianness conversion must repack, so the csd gap the paper shows is
visible (an integer-only heap converts almost for free here, since the
file decode already yields correct word values).

Checkpoints are taken on rodrigo (32-bit little-endian Linux) and
restarted on:

* rodrigo — the original machine (baseline),
* pc8     — same architecture, different OS (expected ~equal time),
* csd     — big-endian (adds endianness conversion),
* sp2148  — 64-bit (adds word-size conversion),
* ultra64 — 64-bit big-endian (word size and endianness at once).

The paper's shape: restart time grows with checkpoint size on every
platform; pc8 tracks rodrigo; csd sits above them; the 64-bit targets
are highest — the same order of magnitude, not a multiple of it, which
the largest size gates: a word-size restart within
``MAX_WORD_SIZE_RATIO`` of the rodrigo one, both taken from the same
interleaved rounds.  Each row is the minimum of ``ROUNDS`` restarts;
per-target seconds and kernel split are recorded under ``by_target`` in
``results/BENCH_restart.json``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import make_checkpoint
from repro import get_platform, restart_vm
from repro.workloads import string_heavy_expected, string_heavy_source

SIZES_WORDS = [64 * 1024, 192 * 1024, 448 * 1024]
TARGETS = ["rodrigo", "pc8", "csd", "sp2148", "ultra64"]

#: Restarts per row (the minimum is reported).
ROUNDS = 5

#: Largest size: a restart that converts the word size may cost at most
#: this many rodrigo (no conversion) restarts.
MAX_WORD_SIZE_RATIO = 3.0

_checkpoints: dict[int, tuple] = {}
_restart_seconds: dict[tuple[int, str], float] = {}


def _checkpoint_for(size, tmp_path_factory):
    if size not in _checkpoints:
        tmp = tmp_path_factory.mktemp(f"fig12_{size}")
        path = str(tmp / "a.hckp")
        code, vm = make_checkpoint(string_heavy_source(size), path)
        _checkpoints[size] = (code, path, vm.last_checkpoint_stats.file_bytes)
    return _checkpoints[size]


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("size", SIZES_WORDS)
def test_restart_time_by_platform(
    size, target, tmp_path_factory, benchmark, get_report, bench_json
):
    rep = get_report(
        "Figure 12",
        "restart time by platform and checkpoint size (origin: rodrigo)",
        ["ckpt MB", "target", "conversion", "restart s"],
    )
    code, path, file_bytes = _checkpoint_for(size, tmp_path_factory)
    gated = (
        size == SIZES_WORDS[-1]
        and get_platform(target).arch.bits != get_platform("rodrigo").arch.bits
    )
    runs, same_arch = [], []

    def restart():
        if gated:  # the ratio's denominator, from the same rounds
            _, base = restart_vm(get_platform("rodrigo"), code, path)
            same_arch.append(base.total_seconds)
        runs.append(restart_vm(get_platform(target), code, path))

    benchmark.pedantic(restart, rounds=ROUNDS, iterations=1)
    vm2, stats = min(runs, key=lambda r: r[1].total_seconds)
    result = vm2.run()
    assert result.stdout == string_heavy_expected(size)
    conv = (
        "word size" if stats.converted_word_size
        else "endianness" if stats.converted_endianness
        else "none"
    )
    rep.row(
        f"{file_bytes / 1e6:.2f}", target, conv,
        f"{stats.total_seconds:.3f}",
    )
    _restart_seconds[(size, target)] = stats.total_seconds
    record = bench_json("BENCH_restart").setdefault("by_target", {})
    record.setdefault(str(size), {})[target] = {
        "conversion": conv,
        "seconds": round(stats.total_seconds, 6),
        "kernels_ms": {
            k: round(v * 1e3, 3)
            for k, v in stats.phases.kernel_seconds.items()
        },
    }
    if gated:
        ratio = stats.total_seconds / min(same_arch)
        record[str(size)][target]["over_rodrigo"] = round(ratio, 3)
        assert ratio <= MAX_WORD_SIZE_RATIO
    if size == SIZES_WORDS[-1] and target == TARGETS[-1]:
        # The paper's cost ordering at the largest size: same-arch
        # restart < endianness swap < word-size conversion.
        same = _restart_seconds[(size, "rodrigo")]
        endian = _restart_seconds[(size, "csd")]
        assert same < endian < stats.total_seconds
        rep.note(
            "paper shape: pc8 ~= rodrigo (same arch, other OS); csd adds "
            "an endianness-conversion gap; the 64-bit targets are "
            f"costliest, within {MAX_WORD_SIZE_RATIO:g}x of rodrigo "
            f"(min of {ROUNDS} restarts per row)"
        )
