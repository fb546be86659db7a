"""Supporting measurement: interpreter dispatch rate, by tier.

Not a paper artefact, but context for its §5.1 discussion ("byte-code
usually executes much slower than native code"): the absolute numbers
everywhere else in this reproduction are scaled by this dispatch rate,
which is what separates our Python substrate from the authors' C
interpreter on 1999 hardware.

Measures both dispatch tiers (``VMConfig.dispatch``): the canonical
``"reference"`` fetch/decode/execute loop and the ``"fast"`` tier
(decode-once closures + superinstruction fusion + batched counted-loop
kernels; see docs/DISPATCH.md), and records the trend into
``results/BENCH_dispatch.json``.  The fast tier must beat reference by
at least 2x on this loop workload — that is the CI smoke floor; the
recorded numbers are typically far higher because the loop batches —
and must hold the speedup the committed record (the previous run's)
shows, within noise.

The sliced arm runs the fast tier the way every HA driver does, in
``run(max_instructions=50_000)`` slices, and records the sliced rate as
a share of the unsliced one (``sliced_over_unsliced``): the instruction
budget rides the dispatch loop's event horizon, so slicing must cost
next to nothing.
"""

from __future__ import annotations

import json
import math
import os
import time

import pytest

from repro import VirtualMachine, VMConfig, compile_source, get_platform
from repro.workloads import matmul_expected, matmul_source

LOOP = """
let r = ref 0;;
while !r < 60000 do r := !r + 1 done;;
print_int !r
"""

#: CI smoke floor for fast/reference on the loop workload.
MIN_SPEEDUP = 2.0

#: The unsliced speedup may not fall below this share of the committed
#: record's.  The speedup, not the rate: the reference tier is measured
#: in the same minute on the same machine, so machine speed cancels.
RECORD_NOISE = 0.75

#: The HA drivers' slice length, and the floor on sliced/unsliced rate.
SLICE = 50_000
MIN_SLICED_OVER_UNSLICED = 0.8

#: Timings are best-of-N: this sandbox's noise only ever adds time.
ROUNDS = 3

RECORD_PATH = os.path.join(
    os.path.dirname(__file__), "results", "BENCH_dispatch.json"
)


def committed_record() -> dict:
    """BENCH_dispatch.json as checked out (rewritten at session end)."""
    try:
        with open(RECORD_PATH) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def dispatch_report(get_report):
    return get_report(
        "Dispatch rate",
        "interpreter speed by tier (context for the paper's byte-code "
        "remarks)",
        ["platform", "tier", "instructions", "seconds", "Minstr/s"],
    )


def best_seconds(code, platform_name, tier, expected, budget=None):
    """Fastest of ROUNDS complete runs -> (instructions, seconds)."""
    best = math.inf
    for _ in range(ROUNDS):
        vm = VirtualMachine(
            get_platform(platform_name),
            code,
            VMConfig(chkpt_state="disable", dispatch=tier),
        )
        t0 = time.perf_counter()
        while (result := vm.run(max_instructions=budget)).status == "budget":
            pass
        best = min(best, time.perf_counter() - t0)
        assert result.stdout == expected
    return result.instructions, best


@pytest.mark.parametrize("platform_name", ["rodrigo", "sp2148"])
def test_instruction_dispatch_rate(
    platform_name, benchmark, get_report, bench_json
):
    rep = dispatch_report(get_report)
    code = compile_source(LOOP)
    parent = committed_record().get("loop_minstr_per_s", {}).get(platform_name)

    ref_instructions, ref_seconds = best_seconds(
        code, platform_name, "reference", b"60000"
    )
    instructions, fast_seconds = benchmark.pedantic(
        lambda: best_seconds(code, platform_name, "fast", b"60000"),
        rounds=1, iterations=1,
    )
    assert instructions == ref_instructions  # canonical accounting

    ref_rate = ref_instructions / ref_seconds / 1e6
    fast_rate = instructions / fast_seconds / 1e6
    speedup = fast_rate / ref_rate
    rep.row(platform_name, "reference", ref_instructions,
            f"{ref_seconds:.3f}", f"{ref_rate:.2f}")
    rep.row(platform_name, "fast", instructions,
            f"{fast_seconds:.3f}", f"{fast_rate:.2f} ({speedup:.1f}x)")

    bench_json("BENCH_dispatch").setdefault("loop_minstr_per_s", {})[
        platform_name
    ] = {
        "reference": round(ref_rate, 3),
        "fast": round(fast_rate, 3),
        "speedup": round(speedup, 2),
    }
    # Machine context for the BENCH_* records: the (fast-tier) dispatch
    # rate scales every absolute time in this reproduction.
    for stem in ("BENCH_checkpoint", "BENCH_restart"):
        bench_json(stem).setdefault("dispatch_minstr_per_s", {})[
            platform_name
        ] = round(fast_rate, 3)

    assert speedup >= MIN_SPEEDUP, (
        f"fast tier only {speedup:.2f}x reference on {platform_name} "
        f"(floor {MIN_SPEEDUP}x)"
    )
    if parent is not None:
        assert speedup >= RECORD_NOISE * parent["speedup"], (
            f"unsliced fast tier fell to {speedup:.1f}x reference on "
            f"{platform_name}; the committed record says "
            f"{parent['speedup']}x"
        )


SLICED_WORKLOADS = {
    "loop": (LOOP, b"60000"),
    "matmul": (matmul_source(24, checkpoint=False), matmul_expected(24)),
}


@pytest.mark.parametrize("name", sorted(SLICED_WORKLOADS))
def test_sliced_dispatch_rate(name, get_report, bench_json):
    rep = dispatch_report(get_report)
    source, expected = SLICED_WORKLOADS[name]
    code = compile_source(source)
    instructions, unsliced_s = best_seconds(code, "rodrigo", "fast", expected)
    sliced_instructions, sliced_s = best_seconds(
        code, "rodrigo", "fast", expected, budget=SLICE
    )
    assert sliced_instructions == instructions
    unsliced_rate = instructions / unsliced_s / 1e6
    sliced_rate = instructions / sliced_s / 1e6
    ratio = sliced_rate / unsliced_rate
    rep.row("rodrigo", f"fast, {name}", instructions,
            f"{unsliced_s:.3f}", f"{unsliced_rate:.2f}")
    rep.row("rodrigo", f"fast, {name}, {SLICE}-slices", instructions,
            f"{sliced_s:.3f}", f"{sliced_rate:.2f} ({ratio:.2f}x)")
    bench_json("BENCH_dispatch").setdefault("sliced_over_unsliced", {})[
        name
    ] = {
        "unsliced_minstr_per_s": round(unsliced_rate, 3),
        "sliced_minstr_per_s": round(sliced_rate, 3),
        "slice_instructions": SLICE,
        "ratio": round(ratio, 3),
    }
    assert ratio >= MIN_SLICED_OVER_UNSLICED, (
        f"{SLICE}-instruction slices run {name} at {ratio:.2f} of the "
        f"unsliced rate (floor {MIN_SLICED_OVER_UNSLICED})"
    )
