"""What the warm standby holds, and what one generation costs it.

The churn heap of ``benchmarks/e2e`` (160 rows of 4096 words, 640k
words) on ``rodrigo`` (32-bit LE), replicated to a standby on
``ultra64`` (64-bit BE), so every generation is converted across both
endianness and word size.  Each step runs under ``tracemalloc`` (which
counts numpy's buffers too), from a state where nothing else is in
flight:

* **first rebuild** — the standby restores the first full from the
  bytes it received;
* **at rest** — what the standby still holds once that returned: the
  resident VM and its fold tables;
* **delta fold** — a delta folded in place;
* **full capture** — the primary's periodic full, captured and
  committed (blocking mode);
* **full fold** — that full folded in place.

A generation the standby receives is allocated inside its step (a copy
of the committed file, as a received frame is), so a fold's peak
includes the bytes it was sent.  Gates: at rest the standby holds at
most ``REST_SLACK`` more than a VM cold-restored from the same
generation (one copy of the state, not a VM plus its saved image); a
full fold at most one received generation plus the scratch of
converting one chunk (``CHUNK_SLACK`` chunk-sizes: its gathered words,
the converted words and their index arrays) beyond rest; a full capture
at most one file's bytes plus the same scratch beyond the primary's
heap.  Recorded in ``results/BENCH_standby_memory.json``.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import time
import tracemalloc

from benchmarks.e2e.workloads import churn_source
from repro import (
    VMConfig,
    VirtualMachine,
    compile_source,
    get_platform,
    restart_vm,
)
from repro.replication import CommitTailer, StandbyServer

MIB = 1024 * 1024
ROWS = 160
PHASES = 12
BUILD_BUDGET = 15_000
PHASE_BUDGET = 5_000
#: CI gate: the standby at rest may hold this much beyond a cold VM.
REST_SLACK = 0.10
#: CI gate: scratch a fold or a capture may hold for the one chunk it
#: converts at a time, in chunk-sizes.
CHUNK_SLACK = 8


def _config(path: str) -> VMConfig:
    return VMConfig(
        chkpt_state="enable",
        chkpt_filename=path,
        chkpt_mode="blocking",
        chkpt_interval=None,
        chkpt_incremental=True,
        chkpt_full_every=0,
        chkpt_retain=8,
    )


def _traced(fn):
    """``(result, peak MiB above the start, MiB held at the end, s)``."""
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - start) / MIB, (held - start) / MIB, seconds


def test_standby_memory(tmp_path, bench_json, get_report):
    code = compile_source(churn_source(ROWS, PHASES, offset=1))
    primary_path = str(tmp_path / "primary.hckp")
    standby_path = str(tmp_path / "standby.hckp")
    vm = VirtualMachine(get_platform("rodrigo"), code, _config(primary_path))
    tailer = CommitTailer(vm, primary_path)
    standby = StandbyServer(code, "ultra64", node_id="standby",
                            chain_path=standby_path,
                            config=_config(standby_path))

    def capture(budget: int):
        assert vm.run(max_instructions=budget).status == "budget"
        rec = tailer.capture()
        return rec, bytes(rec.data)

    def receive(rec, data: bytes):
        """Splice ``rec`` as received: its bytes arrive inside the step,
        read through a view of the frame's buffer as ``decode_gen``
        hands them over."""
        def step():
            frame = memoryview(bytearray(data)).toreadonly()
            standby._splice(dataclasses.replace(rec, data=frame))
        return step

    steps = {}
    rec, data = capture(BUILD_BUDGET)
    assert rec.kind == "full"
    _, peak, held, s = _traced(receive(rec, data))
    assert standby.last_rebuild_reason == "full"
    steps["first rebuild"] = (peak, s)
    rest = held
    staged = [c.area.peek_staged() for c in
              standby.resident_vm.mem.heap.chunks]
    heap_mib = sum(a.nbytes for a in staged) / MIB
    chunk_mib = max(a.nbytes for a in staged) / MIB
    cold, _, cold_mib, _ = _traced(lambda: restart_vm(
        get_platform("ultra64"), code, standby_path, _config(standby_path)
    )[0])
    del cold

    rec, data = capture(PHASE_BUDGET)
    assert rec.kind == "delta"
    folded = standby.applied_in_place
    _, peak, _, s = _traced(receive(rec, data))
    assert standby.applied_in_place == folded + 1
    steps["delta fold"] = (peak, s)

    vm.mem.dirty.mark_all()  # the next generation is a full
    assert vm.run(max_instructions=PHASE_BUDGET).status == "budget"
    rec, peak, _, s = _traced(tailer.capture)
    assert rec.kind == "full"
    file_mib = os.path.getsize(primary_path) / MIB
    steps["full capture"] = (peak, s)
    data = bytes(rec.data)

    _, peak, _, s = _traced(receive(rec, data))
    assert standby.applied_in_place == folded + 2
    steps["full fold"] = (peak, s)
    assert standby.resident_vm.run().status in ("stopped", "exited")

    bench_json("BENCH_standby_memory").update({
        "heap": f"{ROWS}x4096 words, rodrigo -> ultra64",
        "resident_heap_mib": round(heap_mib, 2),
        "cold_vm_mib": round(cold_mib, 2),
        "chunk_mib": round(chunk_mib, 3),
        "full_file_mib": round(file_mib, 2),
        "at_rest_mib": round(rest, 2),
        "steps": {
            name: {"peak_mib": round(peak, 2), "seconds": round(s, 4)}
            for name, (peak, s) in steps.items()
        },
        "gates": {
            "at_rest_max_mib": round(cold_mib * (1 + REST_SLACK), 2),
            "full_fold_max_mib": round(file_mib + CHUNK_SLACK * chunk_mib, 2),
            "full_capture_max_mib": round(
                file_mib + CHUNK_SLACK * chunk_mib, 2),
        },
    })
    rep = get_report(
        "Standby memory",
        f"tracemalloc per step, {ROWS}x4096-word churn heap, "
        f"rodrigo -> ultra64 (heap words {heap_mib:.2f} MiB, cold VM "
        f"{cold_mib:.2f} MiB, one full {file_mib:.2f} MiB, one chunk "
        f"{chunk_mib:.3f} MiB)",
        ["step", "peak MiB", "s"],
    )
    rep.row("at rest (held)", f"{rest:.2f}", "")
    for name, (peak, s) in steps.items():
        rep.row(name, f"{peak:.2f}", f"{s:.3f}")
    rep.note(
        f"gates: at rest <= cold VM + {REST_SLACK:.0%}; full fold <= one "
        f"received generation + {CHUNK_SLACK} chunks beyond rest; full "
        f"capture <= one file + {CHUNK_SLACK} chunks beyond the heap"
    )
    assert rest <= cold_mib * (1 + REST_SLACK), (rest, cold_mib)
    assert steps["full fold"][0] <= file_mib + CHUNK_SLACK * chunk_mib, (
        steps["full fold"], file_mib, chunk_mib)
    assert steps["full capture"][0] <= file_mib + CHUNK_SLACK * chunk_mib, (
        steps["full capture"], file_mib, chunk_mib)
