"""Shared infrastructure for the paper-reproduction benchmarks.

Each benchmark module regenerates one table or figure from the paper's
§5.2 evaluation.  Rows are collected into a session-wide report that is
printed in the terminal summary (so it survives pytest's output
capture) and written under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict

import pytest

from repro import VirtualMachine, VMConfig, compile_source, get_platform

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

_REPORTS: "OrderedDict[str, dict]" = OrderedDict()

#: Machine-readable benchmark records, keyed by output file stem
#: (``BENCH_checkpoint`` -> ``results/BENCH_checkpoint.json``), so a
#: driver can check them without scraping the text reports.
_BENCH: "OrderedDict[str, dict]" = OrderedDict()


class Report:
    """Collects rows for one figure/table."""

    def __init__(self, figure: str, title: str, columns: list[str]) -> None:
        self.figure = figure
        self.title = title
        self.columns = columns
        self.rows: list[list[str]] = []
        self.notes: list[str] = []

    def row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError("row width mismatch")
        self.rows.append([str(v) for v in values])

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.figure}: {self.title} =="]
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for r in self.rows:
            lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


@pytest.fixture(scope="session")
def report_registry():
    return _REPORTS


@pytest.fixture(scope="session")
def bench_json():
    """``bench_json(stem)`` -> mutable dict serialized to
    ``results/<stem>.json`` at session end."""

    def _get(stem: str) -> dict:
        return _BENCH.setdefault(stem, {})

    return _get


@pytest.fixture(scope="session")
def get_report(report_registry):
    """``get_report(figure, title, columns)`` -> shared Report."""

    def _get(figure: str, title: str, columns: list[str]) -> Report:
        if figure not in report_registry:
            report_registry[figure] = Report(figure, title, columns)
        rep = report_registry[figure]
        return rep

    return _get


def _merge_record(old: dict, new: dict) -> dict:
    """``old`` updated with ``new``, dict values merged key by key."""
    for key, value in new.items():
        if isinstance(value, dict) and isinstance(old.get(key), dict):
            _merge_record(old[key], value)
        else:
            old[key] = value
    return old


def write_bench_records(records: dict, results_dir: str) -> None:
    """Merge each stem's record into ``<results_dir>/<stem>.json``.

    A session records only the keys its tests touched (one size, one
    target, one benchmark module of several feeding a stem); what the
    file already holds under other keys stays.
    """
    os.makedirs(results_dir, exist_ok=True)
    for stem, data in records.items():
        path = os.path.join(results_dir, f"{stem}.json")
        try:
            with open(path) as f:
                data = _merge_record(json.load(f), data)
        except (FileNotFoundError, json.JSONDecodeError):
            pass
        with open(path, "w") as f:
            json.dump(data, f, indent=2, sort_keys=True)
            f.write("\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    write_bench_records(_BENCH, RESULTS_DIR)
    if not _REPORTS:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    terminalreporter.write_line("")
    terminalreporter.write_line(
        "================ paper reproduction results ================"
    )
    for rep in _REPORTS.values():
        text = rep.render()
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
        with open(
            os.path.join(RESULTS_DIR, f"{rep.figure.lower().replace(' ', '_')}.txt"),
            "w",
        ) as f:
            f.write(text + "\n")


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def run_plain(src: str, platform_name: str = "rodrigo", **cfg) -> tuple[float, VirtualMachine]:
    """Run without checkpointing; returns (seconds, vm)."""
    code = compile_source(src)
    vm = VirtualMachine(
        get_platform(platform_name), code, VMConfig(chkpt_state="disable", **cfg)
    )
    t0 = time.perf_counter()
    result = vm.run()
    dt = time.perf_counter() - t0
    assert result.status == "stopped"
    return dt, vm


def run_with_checkpoint(
    src: str,
    path: str,
    platform_name: str = "rodrigo",
    mode: str = "background",
    **cfg,
) -> tuple[float, VirtualMachine]:
    """Run with checkpointing enabled; returns (seconds, vm).

    The measured time includes whatever the checkpoint cost the
    *application* (snapshot in background mode, everything in blocking
    mode) — the paper's Figures 10/11 overhead definition.
    """
    code = compile_source(src)
    vm = VirtualMachine(
        get_platform(platform_name),
        code,
        VMConfig(chkpt_filename=path, chkpt_mode=mode, **cfg),
    )
    t0 = time.perf_counter()
    result = vm.run()
    dt = time.perf_counter() - t0
    assert result.status == "stopped"
    assert vm.checkpoints_taken >= 1
    return dt, vm


def make_checkpoint(src: str, path: str, platform_name: str = "rodrigo", **cfg):
    """Produce a checkpoint file; returns the origin VM."""
    code = compile_source(src)
    vm = VirtualMachine(
        get_platform(platform_name),
        code,
        VMConfig(chkpt_filename=path, chkpt_mode="blocking", **cfg),
    )
    result = vm.run()
    assert result.status == "stopped"
    assert vm.checkpoints_taken >= 1
    return code, vm
