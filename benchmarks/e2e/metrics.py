"""The benchmark's metric tables — ``BENCHMARK.json`` is written from
these (``python3 benchmarks/e2e/metrics.py``) and a self-test keeps the
two in step."""

from __future__ import annotations

import json

#: (name, unit, better, regression bound as a share of the median).
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("ft_overhead_ratio", "ratio", "lower", 0.25),
    ("recover_ms_p50", "ms", "lower", 0.25),
    ("store_bytes_per_gen", "bytes", "lower", 0.15),
    ("peak_rss_mib", "MiB", "lower", 0.15),
]

#: Span name -> the ledger metric its self time is booked under.
SPAN_LAYER = {
    "interpreter": "interpreter.run_s",
    "gc": "gc.busy_s",
    "checkpoint.writer": "checkpoint.writer.busy_s",
    "checkpoint.reader": "checkpoint.reader.busy_s",
    "store.put": "store.put_s",
    "store.get": "store.get_s",
    "replication.tailer": "replication.tailer.capture_s",
    "replication.channel": "replication.channel.ship_s",
    "replication.standby": "replication.standby.promote_s",
    "scenario": "harness.other_s",
}

#: Layer self times that, with ``harness.other_s``, add up to the
#: traced scenario wall clock (``harness.traced_wall_s``).
LEDGER = list(SPAN_LAYER.values())

#: (name, unit, better).  ``_s`` values and counts are per scenario.
PER_LAYER = [
    ("minilang.compile_s", "s", "lower"),
    ("interpreter.run_s", "s", "lower"),
    ("interpreter.instructions", "count", "lower"),
    ("interpreter.slices", "count", "lower"),
    ("interpreter.minstr_per_s", "Minstr/s", "higher"),
    ("interpreter.unsliced_minstr_per_s", "Minstr/s", "higher"),
    ("gc.minor_collections", "count", "lower"),
    ("gc.major_cycles", "count", "lower"),
    ("gc.mark_slices", "count", "lower"),
    ("gc.sweep_slices", "count", "lower"),
    ("gc.promoted_words", "words", "lower"),
    ("gc.busy_s", "s", "lower"),
    ("memory.heap_words", "words", "lower"),
    ("memory.live_words", "words", "lower"),
    ("memory.dirty_ratio_mean", "ratio", "lower"),
    ("checkpoint.writer.count", "count", "lower"),
    ("checkpoint.writer.full_count", "count", "lower"),
    ("checkpoint.writer.delta_count", "count", "higher"),
    ("checkpoint.writer.busy_s", "s", "lower"),
    ("checkpoint.writer.file_bytes", "bytes", "lower"),
    ("checkpoint.writer.minor_gc_s", "s", "lower"),
    ("checkpoint.writer.heap_dump_s", "s", "lower"),
    ("checkpoint.writer.serialize_s", "s", "lower"),
    ("checkpoint.writer.stack_s", "s", "lower"),
    ("checkpoint.writer.write_s", "s", "lower"),
    ("checkpoint.writer.commit_s", "s", "lower"),
    ("checkpoint.commit.fsync_count", "count", "lower"),
    ("checkpoint.commit.fsync_s", "s", "lower"),
    ("checkpoint.commit.replace_count", "count", "lower"),
    ("checkpoint.commit.replace_s", "s", "lower"),
    ("checkpoint.reader.count", "count", "lower"),
    ("checkpoint.reader.busy_s", "s", "lower"),
    ("checkpoint.reader.read_file_s", "s", "lower"),
    ("checkpoint.reader.heap_restore_s", "s", "lower"),
    ("checkpoint.reader.pointer_fix_s", "s", "lower"),
    ("checkpoint.reader.stack_restore_s", "s", "lower"),
    ("checkpoint.reader.heap_words", "words", "lower"),
    ("checkpoint.reader.restart_ms_p50.same", "ms", "lower"),
    ("checkpoint.reader.restart_ms_p50.swap", "ms", "lower"),
    ("checkpoint.reader.restart_ms_p50.widen", "ms", "lower"),
    ("checkpoint.reader.restart_ms_p50.swap_widen", "ms", "lower"),
    ("store.put_count", "count", "lower"),
    ("store.put_s", "s", "lower"),
    ("store.put_ms_p50", "ms", "lower"),
    ("store.bytes_total", "bytes", "lower"),
    ("store.bytes_new", "bytes", "lower"),
    ("store.chunks_total", "count", "lower"),
    ("store.chunks_new", "count", "lower"),
    ("store.dedup_ratio", "ratio", "higher"),
    ("store.get_count", "count", "lower"),
    ("store.get_s", "s", "lower"),
    ("store.get_ms_p50", "ms", "lower"),
    ("store.get_bytes", "bytes", "lower"),
    ("store.retries", "count", "lower"),
    ("store.cache_hit_ratio", "ratio", "higher"),
    ("store.audit_problems", "count", "lower"),
    ("store.ha.run_s", "s", "lower"),
    ("store.ha.checkpoint_s", "s", "lower"),
    ("store.ha.upload_s", "s", "lower"),
    ("store.ha.restart_download_s", "s", "lower"),
    ("store.ha.restart_rebuild_s", "s", "lower"),
    ("store.ha.checkpoints", "count", "lower"),
    ("store.ha.faults", "count", "lower"),
    ("store.ha.restarts", "count", "lower"),
    ("store.ha.work_lost_instr", "count", "lower"),
    ("replication.tailer.capture_s", "s", "lower"),
    ("replication.channel.ship_count", "count", "lower"),
    ("replication.channel.ship_s", "s", "lower"),
    ("replication.channel.ship_ms_p50", "ms", "lower"),
    ("replication.channel.ship_bytes", "bytes", "lower"),
    ("replication.channel.retransmits", "count", "lower"),
    ("replication.standby.applied_seq", "count", "higher"),
    ("replication.standby.apply_s", "s", "lower"),
    ("replication.standby.promote_s", "s", "lower"),
    ("replication.standby.promote_ms_p50", "ms", "lower"),
    ("replication.standby.finish_s", "s", "lower"),
    # Demoted from the end-to-end list: on unchanged code they moved
    # by more than any bound could cover (see README, "Demotions").
    ("protect_ms_mean", "ms", "lower"),
    ("protect_ms_p50", "ms", "lower"),
    ("protect_ms_p95", "ms", "lower"),
    ("recover_ms_p90", "ms", "lower"),
    ("harness.other_s", "s", "lower"),
    ("harness.traced_wall_s", "s", "lower"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
]

#: Counts that must repeat exactly across the measured reps of one run
#: (same seed); a mismatch is a failed operation.  The first group is
#: observable on every run, the second only with the probes installed.
EXACT_COUNTS = [
    "interpreter.unsliced_instructions",
    "store.ha.checkpoints",
    "store.ha.faults",
    "store.ha.restarts",
    "store.ha.work_lost_instr",
    "store.bytes_new",
    "store.generations",
    "checkpoint.commit.fsync_count",
    "checkpoint.commit.replace_count",
    "replication.channel.ship_count",
    "interpreter.instructions",
    "interpreter.slices",
    "checkpoint.writer.full_count",
    "checkpoint.writer.delta_count",
    "gc.minor_collections",
    "gc.major_cycles",
    "gc.mark_slices",
    "gc.sweep_slices",
    "gc.promoted_words",
]

WORKLOADS = [
    ("matmul_ha",
     "Paper Fig. 8/10: interpreter-bound (>95% of wall), tiny heap, so an "
     "interpreter gain must show here and a checkpoint-path change must not."),
    ("sort_ha",
     "Paper Fig. 9/11: allocation- and recursion-bound; gc, closure dispatch "
     "without loop kernels and a deep stack in every checkpoint."),
    ("churn_ha",
     "Write-heavy cold HA on a 640k-word heap: checkpoint.writer and store "
     "own most of wall; the only workload where the store does real work."),
    ("churn_live",
     "Warm-standby path: delta capture, ship/ack and standby apply dominate; "
     "the writer is used for deltas, so a full-checkpoint gain that taxes "
     "deltas shows."),
    ("restore_fanout",
     "Read side only: store get and checkpoint.reader across same-arch, "
     "endian-swap, widen and swap+widen targets; the writer does nothing."),
]

RUN_SECONDS = 15


def benchmark_json() -> dict:
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
