"""Self-tests of the benchmark harness (not part of tier-1):

    PYTHONPATH=src python -m pytest -q benchmarks/e2e
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import warnings

import pytest

from benchmarks.e2e import compare, metrics
from benchmarks.e2e.spans import LayerLog, Probes, Tracer, self_times
from benchmarks.e2e.stats import tail, usable_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")


def run_cli(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], capture_output=True,
                          text=True, timeout=timeout)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- the percentile rule ----------------------------------------------------


@pytest.mark.parametrize("n, want, used", [
    (270, 95, 95),   # 13.5 samples beyond p95
    (200, 95, 95),   # exactly 10
    (199, 95, 90),
    (150, 90, 90),
    (99, 90, 75),
    (40, 95, 75),
    (39, 95, 50),
    (5, 90, 50),
    (2000, 95, 95),  # never above what was asked for
])
def test_highest_percentile_with_ten_samples_beyond(n, want, used):
    assert usable_percentile(n, want) == used


def test_tail_reports_the_percentile_it_used():
    samples = [float(i) for i in range(1, 101)]
    value, used = tail(samples, 95)
    assert used == 90 and value == pytest.approx(90.1)
    assert tail([3.0, 1.0, 2.0], 95) == (2.0, 50)


# -- span arithmetic --------------------------------------------------------


def test_self_time_is_duration_minus_children_and_sums_to_wall():
    spans = [
        # name, start, end, parent, rep, on_driver
        ["scenario", 0.0, 10.0, -1, 0, True],
        ["interpreter", 1.0, 4.0, 0, 0, True],
        ["gc", 2.0, 3.0, 1, 0, True],
        ["store.put", 5.0, 7.0, 0, 0, True],
        ["checkpoint.reader", 5.5, 6.5, -1, 0, False],  # standby thread
        ["setup", 20.0, 25.0, -1, 0, True],             # not under a scenario
        ["interpreter", 21.0, 22.0, 5, 0, True],
    ]
    selfs = self_times(spans)
    assert selfs == {"scenario": 5.0, "interpreter": 2.0, "gc": 1.0,
                     "store.put": 2.0}
    assert sum(selfs.values()) == 10.0


def test_tracer_nests_per_thread_and_pauses():
    tracer = Tracer()
    with tracer.span("scenario"):
        with tracer.span("interpreter"):
            with tracer.paused():
                with tracer.span("gc"):
                    pass
    names = [row[0] for row in tracer.spans]
    parents = [row[3] for row in tracer.spans]
    assert names == ["scenario", "interpreter"] and parents == [-1, 0]
    assert sum(self_times(tracer.spans).values()) == pytest.approx(
        tracer.spans[0][2] - tracer.spans[0][1]
    )


# -- probes -----------------------------------------------------------------


def test_probe_with_missing_entry_point_degrades_to_null():
    from benchmarks.e2e import aggregate
    from benchmarks.e2e.workloads import Rep

    log = LayerLog()
    probes = Probes(Tracer(), log)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert not probes.wrap("repro", "VirtualMachine.no_such_method",
                               "interpreter")
        assert not probes.wrap("repro.no_such_module", "f", "gc")
    assert len(caught) == 2 and log.missing == {"interpreter", "gc"}

    rep = Rep(walls=[1.0], baseline_s=0.5, compile_s=0.01,
              protect_ms=[2.0], recover_each_ms=[3.0])
    rep.counts["interpreter.unsliced_instructions"] = 1000
    spans = [["scenario", 0.0, 1.0, -1, 1, True]]
    values, ledger = aggregate.per_layer([rep], [], spans, log.missing, {})
    assert values["interpreter.run_s"]["value"] is None
    assert values["gc.busy_s"]["value"] is None
    assert values["harness.other_s"]["value"] == 1.0
    assert set(values) == {name for name, _u, _b in metrics.PER_LAYER}


def test_probe_wraps_and_restores():
    import repro

    original = repro.VirtualMachine.run
    tracer, log = Tracer(), LayerLog()
    probes = Probes(tracer, log)
    probes.install()
    try:
        assert repro.VirtualMachine.run is not original
        vm = repro.VirtualMachine(repro.get_platform("rodrigo"),
                                  repro.compile_source("print_int (6 * 7)"))
        with tracer.span("scenario"):
            assert vm.run().stdout == b"42"
    finally:
        probes.uninstall()
    assert repro.VirtualMachine.run is original
    assert [row[0] for row in tracer.spans] == ["scenario", "interpreter"]
    assert log.counts["interpreter.slices"] == 1
    assert log.counts["interpreter.instructions"] > 0


# -- seeds ------------------------------------------------------------------


def test_seed_fixes_fault_schedule_and_target_order(tmp_path):
    from benchmarks.e2e.workloads import FANOUT_TARGETS, fanout_orders

    assert fanout_orders(7, 4) == fanout_orders(7, 4)
    assert fanout_orders(7, 4) != fanout_orders(8, 4)
    assert all(sorted(o) == sorted(FANOUT_TARGETS) for o in fanout_orders(7, 4))

    def counts(seed: int, name: str) -> dict:
        out = tmp_path / name
        done = run_cli("--workload", "churn_ha", "--smoke", "--seed",
                       str(seed), "--reps", "2", "--out", str(out))
        assert done.returncode == 0, done.stderr
        return json.loads(out.read_text())["counts"]

    first, again, other = counts(11, "a"), counts(11, "b"), counts(12, "c")
    assert first == again
    assert first["store.ha.work_lost_instr"] != other["store.ha.work_lost_instr"]


# -- failure accounting -----------------------------------------------------


def test_wrong_stdout_fails_the_rep_and_the_command():
    good = run_cli("--workload", "matmul_ha", "--smoke")
    assert good.returncode == 0, good.stderr
    result = last_json(good.stdout)
    assert result["correct"] and result["failed"] == 0

    bad = run_cli("--workload", "matmul_ha", "--smoke", "--corrupt-expected")
    assert bad.returncode != 0
    result = last_json(bad.stdout)
    assert not result["correct"]
    # The baseline's and the supervised run's stdout both mismatch.
    assert result["failed"] == 2 and result["attempted"] > result["failed"]


# -- the whole command, at toy size -----------------------------------------


def test_smoke_suite_reports_every_metric(tmp_path):
    out = tmp_path / "suite.json"
    t0 = time.perf_counter()
    done = run_cli("--smoke", "--trace", "--out", str(out))
    assert time.perf_counter() - t0 < 30
    assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads(out.read_text())
    assert set(record["machine"]) == {"nproc", "cpu", "python", "numpy"}
    assert record["env"]["scratch_fs"] != ""
    e2e = [name for name, *_ in metrics.END_TO_END]
    layers = [name for name, *_ in metrics.PER_LAYER]
    for name, _why in metrics.WORKLOADS:
        w = record["workloads"][name]
        assert w["correct"] and w["failed"] == 0, w["failures"]
        assert list(w["end_to_end"]) == e2e
        assert list(w["per_layer"]) == layers
        assert all(m["value"] > 0 for m in w["end_to_end"].values())
        for m in w["end_to_end"].values():
            assert {"n", "min", "median", "q1", "q3", "iqr"} <= set(m)
        # The ledger is the wall clock, split.
        split = sum(w["ledger"][name] for name in metrics.LEDGER)
        assert split == pytest.approx(w["ledger"]["harness.traced_wall_s"],
                                      rel=1e-6)
        for name in e2e + layers:
            assert name in done.stdout


def test_single_workload_result_line_matches_the_contract():
    for trace, names in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        done = run_cli("--workload", "churn_live", "--seed", "3", "--smoke",
                       "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = last_json(done.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [n for n, *_ in names]
        units = {n: unit for n, unit, *_ in names}
        for name, m in result["metrics"].items():
            assert set(m) == {"value", "unit"} and m["unit"] == units[name]
            assert isinstance(m["value"], (int, float))


def test_benchmark_json_is_written_from_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        assert json.load(f) == metrics.benchmark_json()
    assert len(metrics.benchmark_json()["per_layer"]) <= 128
    assert set(metrics.LEDGER) <= {n for n, *_ in metrics.PER_LAYER}
    assert set(metrics.SPAN_LAYER.values()) == set(metrics.LEDGER)


# -- compare ----------------------------------------------------------------


def suite(value: float, seed: int = 1, failed: int = 0) -> dict:
    m = {"value": value}
    return {"seed": seed, "workloads": {"w": {
        "end_to_end": {"wall_s": m}, "attempted": 10, "failed": failed,
        "counts": {"c": 1},
    }}}


BENCH = {"workloads": [{"name": "w"}],
         "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                         "bound": 0.10}]}


@pytest.mark.parametrize("a, b, expected", [
    ([1.00, 1.01, 0.99], [1.02, 1.00, 1.03], "same"),
    ([1.00, 1.01, 0.99], [1.20, 1.22, 1.19], "worse"),
    ([1.00, 1.01, 0.99], [0.80, 0.82, 0.79], "better"),
    ([1.00, 1.30, 0.80], [1.05, 1.35, 0.85], "unresolved"),
    ([1.00, 1.30, 0.80], [0.70, 0.75, 0.60], "better"),  # no overlap
])
def test_compare_verdicts(a, b, expected):
    spread = max(compare.spread_of(a)[2], compare.spread_of(b)[2])
    v, _ = compare.verdict(a, b, spread, 0.10, "lower")
    assert v == expected


def test_compare_exit_code(tmp_path, capsys):
    def write(name, records):
        path = tmp_path / name
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return str(path)

    bench = write("bench.json", [BENCH])
    base = write("a.jsonl", [suite(1.0), suite(1.01)])
    assert compare.main([base, write("same.jsonl", [suite(1.02), suite(1.0)]),
                         "--benchmark", bench]) == 0
    assert compare.main([base, write("slow.jsonl", [suite(1.3), suite(1.31)]),
                         "--benchmark", bench]) == 1
    assert compare.main([base, write("fail.jsonl", [suite(1.0, failed=1)]),
                         "--benchmark", bench]) == 1
    assert "worse" in capsys.readouterr().out
