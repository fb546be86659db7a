"""Ablation A4: overhead vs checkpoint frequency (§3.1.1).

"Checkpoints are performed periodically during the execution of an
application ... The overhead imposed by checkpoints should therefore be
minimal, otherwise it would not be worth using this mechanism."

This ablation quantifies the trade-off the paper motivates: the shorter
the CHKPT_INTERVAL, the more checkpoints a run takes and the higher the
total overhead — while the work lost to a failure shrinks.
"""

from __future__ import annotations

import time

import pytest

from repro import VirtualMachine, VMConfig, compile_source, get_platform
from repro.workloads import matmul_expected, matmul_source

INTERVALS = [None, 0.4, 0.1, 0.03]
SIZES = range(24, 129, 8)


def _plain_seconds(n: int) -> float:
    vm = VirtualMachine(
        get_platform("rodrigo"),
        compile_source(matmul_source(n, checkpoint=False)),
    )
    t0 = time.perf_counter()
    vm.run()
    return time.perf_counter() - t0


def _size() -> int:
    """The smallest matmul N whose plain run lasts at least 3x the
    longest interval, so every interval takes a checkpoint on any host.
    Calibrated once per session."""
    if "n" not in _SIZE:
        longest = max(i for i in INTERVALS if i is not None)
        _SIZE["n"] = next(
            (n for n in SIZES if _plain_seconds(n) >= 3 * longest), SIZES[-1]
        )
    return _SIZE["n"]


@pytest.mark.parametrize("interval", INTERVALS, ids=lambda v: f"interval={v}")
def test_overhead_vs_interval(interval, tmp_path, benchmark, get_report):
    n = _size()
    rep = get_report(
        "Ablation A4",
        f"runtime overhead vs periodic checkpoint interval (matmul n={n})",
        ["interval s", "checkpoints", "runtime s", "overhead %"],
    )
    path = str(tmp_path / "iv.hckp")
    code = compile_source(matmul_source(n, checkpoint=False))

    def run():
        vm = VirtualMachine(
            get_platform("rodrigo"), code,
            VMConfig(
                chkpt_filename=path,
                chkpt_interval=interval,
                chkpt_mode="blocking",
            ),
        )
        t0 = time.perf_counter()
        result = vm.run()
        dt = time.perf_counter() - t0
        assert result.status == "stopped"
        assert result.stdout == matmul_expected(n)
        return dt, vm.checkpoints_taken

    (dt, taken) = benchmark.pedantic(run, rounds=1, iterations=1)
    if interval is None:
        _BASELINE["t"] = dt
        rep.row("never", taken, f"{dt:.3f}", "baseline")
    else:
        baseline = _BASELINE.get("t")
        overhead = (dt - baseline) / baseline if baseline else float("nan")
        rep.row(f"{interval}", taken, f"{dt:.3f}", f"{100 * overhead:+.1f}")
        assert taken >= 1
    if interval == INTERVALS[-1]:
        rep.note(
            "shorter intervals take more checkpoints and cost more total "
            "overhead, buying a smaller recovery window — the trade-off "
            "the paper's §3.1.1 motivates"
        )


_BASELINE: dict = {}
_SIZE: dict = {}
