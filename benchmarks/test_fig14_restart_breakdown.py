"""Figure 14: timing the substantial parts of restart.

The paper: "During restart, the substantial parts are restoring the
heap and fixing pointer values inside it ... these substantial parts
take more than 90 percent of restart."

The same file is restored min-of-N; the breakdown is recorded in
``results/BENCH_restart.json`` under the key ``"vectorized"`` — the
production path's name from when a scalar reference was measured beside
it (those records stay in the file's history; the path they measured
lives on as ``tests/oracle``).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import make_checkpoint
from repro import get_platform, restart_vm
from repro.workloads import alloc_source

SIZES_WORDS = [64 * 1024, 256 * 1024, 640 * 1024]

HEAP_PHASES = ("heap_restore", "heap_rebuild", "pointer_fix", "read_file")

#: Measurement rounds (min is reported).
ROUNDS = 5


@pytest.mark.parametrize("size", SIZES_WORDS)
def test_restart_phase_breakdown(size, tmp_path, benchmark, get_report,
                                 bench_json):
    rep = get_report(
        "Figure 14",
        "restart time breakdown vs checkpointed data size (rodrigo->rodrigo)",
        ["ckpt MB", "total ms", "heap restore+fix %", "stack %", "other %"],
    )
    path = str(tmp_path / "bd.hckp")
    code, vm = make_checkpoint(alloc_source(size), path)
    file_mb = vm.last_checkpoint_stats.file_bytes / 1e6

    def restart():
        return restart_vm(get_platform("rodrigo"), code, path)[1]

    benchmark.pedantic(restart, rounds=1, iterations=1)  # also warms
    stats = min(
        (restart() for _ in range(ROUNDS)), key=lambda st: st.phases.total
    )

    fractions = stats.phases.fractions()
    heap = sum(fractions.get(p, 0.0) for p in HEAP_PHASES)
    stack = fractions.get("stack_restore", 0.0) + fractions.get(
        "threads", 0.0
    )
    rep.row(
        f"{file_mb:.2f}",
        f"{stats.phases.total * 1e3:.1f}",
        f"{100 * heap:.1f}",
        f"{100 * stack:.1f}",
        f"{100 * (1.0 - heap - stack):.1f}",
    )
    record = bench_json("BENCH_restart").setdefault("sizes", {})
    record.setdefault(str(size), {})["vectorized"] = {
        "total_ms": round(stats.phases.total * 1e3, 3),
        "phases_ms": {
            k: round(v * 1e3, 3) for k, v in stats.phases.seconds.items()
        },
        "kernels_ms": {
            k: round(v * 1e3, 3)
            for k, v in stats.phases.kernel_seconds.items()
        },
    }
    # The paper's shape: heap restore + pointer fixing dominate.
    assert heap > 0.7
    if size == SIZES_WORDS[-1]:
        rep.note(
            "paper shape: restoring the heap and fixing its pointers take "
            "more than 90% of restart"
        )
