#!/usr/bin/env python3
"""Compare two sets of benchmark records, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

Each argument is a suite record (``results/latest.json``) or a JSON-lines
file of several (``results/history.jsonl``, or a hand-made set).  One row
per workload x end-to-end metric: medians, quartiles, the bound from
``BENCHMARK.json`` and a verdict for B against A:

``same``        medians within the bound
``better``      B better by more than the bound (or every B run beats every A run)
``worse``       B worse by more than the bound
``unresolved``  the spread is wider than the bound and the runs interleave

Exits non-zero on any ``worse``, any rise in ``fail_share``, or — when
both sets ran the same seed — any exact count that differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from benchmarks.e2e.stats import quartiles  # noqa: E402


def load(path: str) -> list[dict]:
    with open(path) as f:
        text = f.read()
    try:
        return [json.loads(text)]
    except ValueError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]


def metric_runs(records: list[dict], workload: str, metric: str) -> list[float]:
    """One value per run."""
    return [
        record["workloads"][workload]["end_to_end"][metric]["value"]
        for record in records
        if metric in record["workloads"].get(workload, {}).get("end_to_end", {})
    ]


def spread_of(values: list[float]) -> tuple[float, float, float]:
    """``(q1, q3, IQR / median)`` across the runs of one set.  A single
    run has no run-to-run spread, so it can never read ``unresolved``:
    give each side several runs when that distinction matters."""
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return q1, q3, (q3 - q1) / med if med else 0.0


def verdict(a: list[float], b: list[float], spread: float, bound: float,
            better: str) -> tuple[str, float]:
    """B against A; returns ``(verdict, share by which B is worse)``."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    several = len(a) >= 2 and len(b) >= 2
    b_all_better = several and all(
        sign * (y - x) < 0 for x in a for y in b
    )
    b_all_worse = several and all(sign * (y - x) > 0 for x in a for y in b)
    if b_all_better:
        return "better", worse_by
    if b_all_worse and worse_by > bound:
        return "worse", worse_by
    if spread > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def fail_share(records: list[dict], workload: str) -> float:
    attempted = failed = 0
    for record in records:
        w = record["workloads"].get(workload, {})
        attempted += w.get("attempted", 0)
        failed += w.get("failed", 0)
    return failed / attempted if attempted else 0.0


def compare(a: list[dict], b: list[dict], benchmark: dict) -> int:
    bad = 0
    print(f"{'workload':15s} {'metric':20s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B worse by':>10s} {'bound':>6s}  verdict")
    for w in (entry["name"] for entry in benchmark["workloads"]):
        for spec in benchmark["end_to_end"]:
            va = metric_runs(a, w, spec["name"])
            vb = metric_runs(b, w, spec["name"])
            if not va or not vb:
                print(f"{w:15s} {spec['name']:20s} missing in "
                      f"{'A' if not va else 'B'}")
                bad += 1
                continue
            qa1, qa3, sa = spread_of(va)
            qb1, qb3, sb = spread_of(vb)
            v, worse_by = verdict(va, vb, max(sa, sb), spec["bound"],
                                  spec["better"])
            bad += v == "worse"
            print(f"{w:15s} {spec['name']:20s} "
                  f"{statistics.median(va):12.6g} [{qa1:9.5g},{qa3:9.5g}] "
                  f"{statistics.median(vb):12.6g} [{qb1:9.5g},{qb3:9.5g}] "
                  f"{worse_by:+10.1%} {spec['bound']:6.0%}  {v}")
        fa, fb = fail_share(a, w), fail_share(b, w)
        rose = fb > fa
        bad += rose
        print(f"{w:15s} {'fail_share':20s} {fa:34.6g} {fb:34.6g} "
              f"{'':10s} {'0':>6s}  {'worse' if rose else 'same'}")
        if a[-1]["seed"] == b[-1]["seed"]:
            ca = a[-1]["workloads"].get(w, {}).get("counts", {})
            cb = b[-1]["workloads"].get(w, {}).get("counts", {})
            differ = sorted(k for k in ca.keys() & cb.keys() if ca[k] != cb[k])
            bad += bool(differ)
            print(f"{w:15s} {'exact counts':20s} "
                  f"{len(ca.keys() & cb.keys())} compared, "
                  + (f"DIFFER: {differ}" if differ else "equal"))
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"),
                    help="where the bounds come from")
    opts = ap.parse_args(argv)
    with open(opts.benchmark) as f:
        benchmark = json.load(f)
    return 1 if compare(load(opts.a), load(opts.b), benchmark) else 0


if __name__ == "__main__":
    sys.exit(main())
