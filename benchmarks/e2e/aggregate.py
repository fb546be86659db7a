"""Turn what the measured reps observed into the metric values."""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Optional

from benchmarks.e2e import metrics as M
from benchmarks.e2e.spans import SCENARIO, self_times
from benchmarks.e2e.stats import summarize, tail

#: Log entries that are a last-seen level, not a total per scenario.
GAUGES = ("memory.heap_words", "memory.live_words")


def pooled(reps, attr: str) -> list[float]:
    return [x for rep in reps for x in getattr(rep, attr)]


def end_to_end(reps, import_samples: list[float],
               peak_rss_mib: float) -> dict:
    """Every end-to-end metric, from untraced reps: ``{name: {"value",
    "unit", "n", "min", "median", "q1", "q3", "iqr", "samples"}}``.

    This sandbox's CPU runs anywhere from full speed to a third slower
    for seconds at a time, which only ever adds time.  So each central
    timing is computed within every scenario (or rep) and the run
    reports the best (lowest) one, the one the neighbours disturbed
    least.
    """
    walls = pooled(reps, "walls")
    baselines = [r.baseline_s * r.baselines_per_scenario for r in reps]
    setups = [min(import_samples) + r.setup_s for r in reps]
    recover = pooled(reps, "recover_ms")
    per_gen = [r.bytes_new / r.generations for r in reps]

    values = {
        "wall_s": (min(walls), walls),
        "setup_s": (min(setups), setups),
        "ft_overhead_ratio": (
            min(walls) / min(baselines),
            [w / b for r, b in zip(reps, baselines) for w in r.walls]),
        "recover_ms_p50": (min(recover), recover),
        "store_bytes_per_gen": (statistics.fmean(per_gen), per_gen),
        "peak_rss_mib": (peak_rss_mib, [peak_rss_mib]),
    }
    return {
        name: {"value": values[name][0], "unit": unit,
               **summarize(values[name][1]), "samples": values[name][1]}
        for name, unit, _better, _bound in M.END_TO_END
    }


def _p50(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def per_layer(
    traced_reps,
    untraced_reps,
    spans: list[list],
    missing: set[str],
    extra_counts: dict[str, float],
) -> tuple[dict, dict]:
    """Every per-layer metric, from the traced reps, plus the ledger.

    ``_s`` values and counts are means per scenario, so the ledger
    entries add up to ``harness.traced_wall_s``.  A metric fed by a
    probe whose entry point was missing is ``None``.
    """
    n = sum(len(rep.walls) for rep in traced_reps)
    counts: dict[str, float] = defaultdict(float)
    samples: dict[str, list[float]] = defaultdict(list)
    for rep in traced_reps:
        for key, value in rep.log.counts.items():
            counts[key] += value
        for key, values in rep.log.samples.items():
            samples[key].extend(values)
        for key, value in rep.counts.items():
            if key.startswith("store.ha."):
                counts[key] += value
    counts.update(extra_counts)

    ledger = {name: 0.0 for name in M.LEDGER}
    for span, seconds in self_times(spans).items():
        ledger[M.SPAN_LAYER[span]] += seconds / n
    traced_wall = sum(
        end - start for name, start, end, parent, _r, on_driver in spans
        if name == SCENARIO and parent < 0 and on_driver
    ) / n

    v: dict[str, Optional[float]] = {
        name: counts.get(name, 0.0) / n for name, _u, _b in M.PER_LAYER
    }
    v.update(ledger)
    for key in GAUGES:
        v[key] = traced_reps[-1].log.counts.get(key, 0.0)
    busy = v["interpreter.run_s"] + v["gc.busy_s"]
    v["interpreter.minstr_per_s"] = (
        v["interpreter.instructions"] / busy / 1e6 if busy else 0.0
    )
    every = traced_reps + untraced_reps
    v["interpreter.unsliced_minstr_per_s"] = statistics.median(
        rep.counts["interpreter.unsliced_instructions"] / rep.baseline_s / 1e6
        for rep in every
    )
    v["minilang.compile_s"] = statistics.median(r.compile_s for r in every)
    ratios = samples["memory.dirty_ratio"]
    v["memory.dirty_ratio_mean"] = (
        sum(ratios) / len(ratios) if ratios else 0.0
    )
    for cls in ("same", "swap", "widen", "swap_widen"):
        v[f"checkpoint.reader.restart_ms_p50.{cls}"] = _p50(
            samples[f"restart_ms.{cls}"]
        )
    v["store.put_ms_p50"] = _p50(samples["store.put_ms"])
    v["store.get_ms_p50"] = _p50(samples["store.get_ms"])
    v["store.dedup_ratio"] = (
        counts["store.bytes_total"] / counts["store.bytes_new"]
        if counts["store.bytes_new"] else 0.0
    )
    looked = counts["store.cache_hits"] + counts["store.cache_misses"]
    v["store.cache_hit_ratio"] = (
        counts["store.cache_hits"] / looked if looked else 0.0
    )
    v["replication.channel.ship_ms_p50"] = _p50(samples["replication.ship_ms"])
    v["replication.standby.promote_ms_p50"] = _p50(
        samples["replication.promote_ms"]
    )
    # Protection stalls: mean and median of the best traced rep, like
    # the end-to-end timings; the tails pool every traced cycle /
    # restore under the percentile rule.
    stalls = [rep.protect_ms for rep in traced_reps]
    v["protect_ms_mean"] = min(statistics.fmean(s) for s in stalls)
    v["protect_ms_p50"] = min(statistics.median(s) for s in stalls)
    v["protect_ms_p95"], _ = tail([x for s in stalls for x in s], 95)
    v["recover_ms_p90"], _ = tail(pooled(traced_reps, "recover_each_ms"), 90)
    v["harness.traced_wall_s"] = traced_wall
    untraced = pooled(untraced_reps, "walls")
    v["harness.trace_overhead_ratio"] = (
        statistics.median(pooled(traced_reps, "walls"))
        / statistics.median(untraced) if untraced else None
    )
    for name in v:
        if any(name == m or name.startswith(m + ".") for m in missing):
            v[name] = None
    units = {name: unit for name, unit, _b in M.PER_LAYER}
    return (
        {name: {"value": v[name], "unit": units[name]} for name in units},
        {**ledger, "harness.traced_wall_s": traced_wall},
    )
