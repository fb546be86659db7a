#!/usr/bin/env python3
"""End-to-end HA-pipeline benchmark: one command, every metric.

    python3 benchmarks/e2e/run.py                       # all five workloads
    python3 benchmarks/e2e/run.py --trace               # ... plus the per-layer ledger
    python3 benchmarks/e2e/run.py --workload churn_ha --seed 7 --seconds 15 --trace 0

With ``--workload`` the workload runs in this process and the last line
of stdout is the one-object JSON result; without it every workload runs
in a fresh subprocess of its own and the combined record is appended to
``results/history.jsonl`` (``results/latest.json`` is a copy of it).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# Run as a script, this directory would lead sys.path and its modules
# would shadow top-level names; the harness is imported as a package.
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
for _p in (os.path.join(ROOT, "src"), ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from benchmarks.e2e import metrics as M  # noqa: E402

RESULTS = os.path.join(HERE, "results")
PRODUCT_PACKAGES = ("repro", "repro.checkpoint", "repro.store",
                    "repro.replication", "repro.workloads")


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


def measure_imports(times: int) -> list[float]:
    """Seconds to import the product, ``times`` over (the very first is
    cold and pays for numpy and the disk; the others re-execute the
    product's own modules).  Only for when nothing that will still be
    used holds product objects: before the first rep, after the last."""
    samples = []
    for _ in range(times):
        for name in [m for m in sys.modules
                     if m == "repro" or m.startswith("repro.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        try:
            for name in PRODUCT_PACKAGES:
                importlib.import_module(name)
        except ModuleNotFoundError as e:
            sys.exit(f"cannot import the product ({e}); this benchmark "
                     f"runs from a checkout that has src/repro")
        samples.append(time.perf_counter() - t0)
    return samples


def scratch_fs(path: str) -> str:
    """Filesystem type under ``path`` (longest mount-point prefix)."""
    best, fs = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                _dev, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, fs = mount, fstype
    except OSError:
        pass
    return fs


def safe_rep(ctx, fn, sizes):
    """One rep; a raise inside it is a failed operation, not a crash."""
    try:
        return fn(ctx, **sizes)
    except Exception as e:  # the rep boundary: record and keep going
        traceback.print_exc(file=sys.stderr)
        ctx.ops.check(False, f"rep raised {type(e).__name__}: {e}")
        return None


def determinism_guard(ops, reps) -> dict:
    """Exact counts must repeat across the reps of one run."""
    agreed = {}
    for key in M.EXACT_COUNTS:
        seen = [
            rep.counts.get(key, rep.log.counts.get(key) if rep.traced
                           else None)
            for rep in reps
        ]
        seen = [v for v in seen if v is not None]
        if not seen:
            continue
        agreed[key] = seen[0]
        if len(seen) > 1:
            ops.check(len(set(seen)) == 1,
                      f"{key} differs across reps: {seen}")
    return agreed


def run_workload(opts) -> dict:
    import_samples = measure_imports(4)
    from benchmarks.e2e import aggregate, spans
    from benchmarks.e2e import workloads as wl

    plan = wl.PLANS[opts.workload]
    sizes = dict(plan.smoke if opts.smoke else plan.full)
    reps = 1 if opts.smoke else plan.reps
    if not opts.smoke:
        grow = opts.seconds / M.RUN_SECONDS
        if plan.scaled == "reps":
            reps = max(1, round(reps * grow))
        else:
            sizes[plan.scaled] = max(1, round(sizes[plan.scaled] * grow))
    if opts.reps:
        reps = opts.reps
    # Tracing records the odd reps and leaves the even ones untraced, as
    # the base its overhead is priced on.
    min_reps = 2 if opts.trace else 1
    reps = max(reps, min_reps)

    base = opts.scratch or os.path.join(HERE, ".scratch")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{opts.workload}-", dir=base)
    # The supervisor asks tempfile for its checkpoint path.
    saved_tempdir, tempfile.tempdir = tempfile.tempdir, scratch

    tracer = spans.Tracer(enabled=False)
    ctx = wl.Ctx(seed=opts.seed, scratch=scratch, traced=bool(opts.trace),
                 tracer=tracer)
    if opts.corrupt_expected:
        ctx.corrupt_expected = lambda expected: expected + b"!"
    probes = spans.Probes(tracer, ctx.log)
    retransmits = _retransmit_probe(ctx.log)
    measured = []
    try:
        if opts.trace:
            probes.install()
        if not opts.smoke:
            safe_rep(ctx, plan.fn, plan.warm)  # discarded, but checked
            ctx.log.take()
        before = retransmits()
        deadline = time.perf_counter() + 1.6 * opts.seconds
        for i in range(reps):
            tracer.rep = i
            tracer.enabled = traced_rep = bool(opts.trace) and i % 2 == 1
            rep = safe_rep(ctx, plan.fn, sizes)
            tracer.enabled = False
            gc.collect()  # dead VMs of this rep, so peak RSS is one rep's
            log = ctx.log.take()
            if rep is not None:
                rep.log, rep.traced = log, traced_rep
                rep.counts["store.bytes_new"] = rep.bytes_new
                rep.counts["store.generations"] = rep.generations
                measured.append(rep)
            if time.perf_counter() > deadline and i + 1 >= min_reps:
                break
        extra = {"replication.channel.retransmits": retransmits() - before}
        # Again at the far end of the run, so one slow second at start-up
        # cannot set the floor of setup_s.
        import_samples += measure_imports(3)
    finally:
        probes.uninstall()
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(scratch, ignore_errors=True)

    ops = ctx.ops
    counts = determinism_guard(ops, measured)
    record = {
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "smoke": opts.smoke,
        "traced": bool(opts.trace),
        "reps": len(measured),
        "sizes": sizes,
        "scratch_fs": scratch_fs(scratch),
        "counts": counts,
    }
    if measured:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        untraced = [r for r in measured if not r.traced]
        traced = [r for r in measured if r.traced]
        record["end_to_end"] = aggregate.end_to_end(
            untraced or traced, import_samples, rss
        )
        if traced:
            record["per_layer"], record["ledger"] = aggregate.per_layer(
                traced, untraced, tracer.spans, ctx.log.missing, extra
            )
            if opts.trace_out:
                write_trace(opts.trace_out, record, tracer.spans)
    else:
        ops.check(False, "no rep completed")
    record.update(attempted=ops.attempted, failed=ops.failed,
                  failures=ops.failures[:20], correct=ops.failed == 0)
    return record


def _retransmit_probe(log):
    """Reader for the sender's retransmit count, which today only the
    process-wide ``repro.metrics.REPLICATION`` singleton carries."""
    try:
        counters = importlib.import_module("repro.metrics").REPLICATION
        counters.retransmits
    except (ImportError, AttributeError) as e:
        warnings.warn(f"probe repro.metrics:REPLICATION unavailable: {e}")
        log.missing.add("replication.channel.retransmits")
        return lambda: 0
    return lambda: counters.retransmits


def write_trace(path: str, record: dict, spans: list[list]) -> None:
    """Spans as ``[name, start_us, end_us, parent, rep, on_driver]``,
    microseconds from the first span."""
    t0 = min(row[1] for row in spans)
    rows = [
        [name, round((start - t0) * 1e6), round((end - t0) * 1e6),
         parent, rep, int(on_driver)]
        for name, start, end, parent, rep, on_driver in spans
    ]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump({
            "workload": record["workload"], "seed": record["seed"],
            "columns": ["name", "start_us", "end_us", "parent", "rep",
                        "on_driver"],
            "ledger": record["ledger"], "spans": rows,
        }, f, separators=(",", ":"))
        f.write("\n")


def result_line(record: dict) -> str:
    """The one-object result: end-to-end metrics untraced, per-layer
    metrics traced.  A ``None`` (missing probe) is sent as 0."""
    source = record.get("per_layer" if record["traced"] else "end_to_end", {})
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["value"] if m["value"] is not None else 0,
                   "unit": m["unit"]}
            for name, m in source.items()
        },
    })


def print_metrics(record: dict) -> None:
    w = record["workload"]
    for name, m in record.get("end_to_end", {}).items():
        extra = (f"  n={m['n']} min={m['min']:.6g} q1={m['q1']:.6g} "
                 f"q3={m['q3']:.6g}")
        print(f"{w:15s} {name:44s} {m['value']:14.6g} {m['unit']:9s}{extra}")
    for name, m in record.get("per_layer", {}).items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{w:15s} {name:44s} {value:>14s} {m['unit']}")
    share = record["failed"] / max(record["attempted"], 1)
    print(f"{w:15s} {'fail_share':44s} {share:14.6g} ratio     "
          f"  failed={record['failed']} attempted={record['attempted']}")
    for failure in record["failures"]:
        print(f"{w:15s} FAILED: {failure}")


# ---------------------------------------------------------------------------
# Every workload, each in its own subprocess
# ---------------------------------------------------------------------------


def fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.import_module("numpy").__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def child(opts, workload: str, trace: bool, out_dir: str) -> dict:
    out = os.path.join(out_dir, f"{workload}-{int(trace)}.json")
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", workload, "--seed", str(opts.seed),
           "--seconds", str(opts.seconds), "--trace", str(int(trace)),
           "--out", out]
    if opts.smoke:
        cmd.append("--smoke")
    if opts.reps:
        cmd += ["--reps", str(opts.reps)]
    if opts.scratch:
        cmd += ["--scratch", opts.scratch]
    if opts.corrupt_expected:
        cmd.append("--corrupt-expected")
    if trace and not opts.smoke:
        cmd += ["--trace-out",
                os.path.join(RESULTS, f"trace-{workload}.json")]
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=600)
    try:
        with open(out) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {"workload": workload, "traced": trace, "correct": False,
                "attempted": 1, "failed": 1, "failures":
                [f"workload process exited {done.returncode}, no record"]}


def run_suite(opts) -> dict:
    names = [name for name, _why in M.WORKLOADS]
    base = opts.scratch or os.path.join(HERE, ".scratch")
    os.makedirs(base, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="suite-", dir=base)
    workloads = {}
    try:
        for name in names:
            record = child(opts, name, False, out_dir)
            if opts.trace:
                traced = child(opts, name, True, out_dir)
                for key in ("per_layer", "ledger"):
                    if key in traced:
                        record[key] = traced[key]
                record["counts"] = {**traced.get("counts", {}),
                                    **record.get("counts", {})}
                record["attempted"] += traced["attempted"]
                record["failed"] += traced["failed"]
                record["failures"] += traced["failures"]
                record["correct"] = record["failed"] == 0
            record["traced"] = bool(opts.trace)
            workloads[name] = record
            print_metrics(record)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "schema": 1,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(),
        "machine": fingerprint(),
        "env": {"scratch_fs": next(
            (w["scratch_fs"] for w in workloads.values()
             if "scratch_fs" in w), "unknown")},
        "seed": opts.seed,
        "seconds": opts.seconds,
        "smoke": opts.smoke,
        "workloads": workloads,
    }


def save_suite(record: dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    line = json.dumps(record)
    with open(os.path.join(RESULTS, "history.jsonl"), "a") as f:
        f.write(line + "\n")
    with open(os.path.join(RESULTS, "latest.json"), "w") as f:
        f.write(line + "\n")


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in M.WORKLOADS],
                    help="run one workload in this process")
    ap.add_argument("--seed", type=int, default=2002,
                    help="fault schedule, mutation offsets, target order")
    ap.add_argument("--seconds", type=float, default=M.RUN_SECONDS,
                    help="measured run length the rep counts are scaled to")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="record spans; report per-layer")
    ap.add_argument("--reps", type=int, default=0,
                    help="override the number of measured reps")
    ap.add_argument("--smoke", action="store_true",
                    help="toy sizes, one rep")
    ap.add_argument("--scratch", help="directory for store roots and "
                    "checkpoint files (default: .scratch beside this file)")
    ap.add_argument("--out", help="write the full record here as JSON")
    ap.add_argument("--trace-out", help="write the spans here as JSON")
    # Self-test only: compare every stdout against a wrong expectation.
    ap.add_argument("--corrupt-expected", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    opts = parse_args(argv)
    if opts.workload:
        record = run_workload(opts)
        print_metrics(record)
        if opts.out:
            with open(opts.out, "w") as f:
                json.dump(record, f)
                f.write("\n")
        if "end_to_end" in record:
            print(result_line(record))
        return 0 if record["correct"] else 1
    record = run_suite(opts)
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(record, f)
            f.write("\n")
    if not opts.smoke:
        save_suite(record)
    return 0 if all(w["correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
