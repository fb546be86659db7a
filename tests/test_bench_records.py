"""The benchmark record writer merges into what a file already holds.

``benchmarks/results/BENCH_*.json`` are fed by several benchmark
modules and by one-size CI smoke runs; a session that touched one key
of a stem must leave the file's other keys alone.
"""

from __future__ import annotations

import json

from benchmarks.conftest import write_bench_records


def test_partial_session_keeps_untouched_keys(tmp_path):
    full = {
        "sizes": {
            "65536": {"total_ms": 2.0, "phases_ms": {"read_file": 1.0}},
            "655360": {"total_ms": 20.0},
        },
        "dispatch_minstr_per_s": {"rodrigo": 21.0},
    }
    write_bench_records({"BENCH_restart": full}, str(tmp_path))
    assert json.loads((tmp_path / "BENCH_restart.json").read_text()) == full

    # A later session touches one size of one stem, and a new stem.
    write_bench_records(
        {
            "BENCH_restart": {"sizes": {"65536": {"total_ms": 3.0}}},
            "BENCH_other": {"n": 1},
        },
        str(tmp_path),
    )
    merged = json.loads((tmp_path / "BENCH_restart.json").read_text())
    assert merged["sizes"]["65536"] == {
        "total_ms": 3.0, "phases_ms": {"read_file": 1.0},
    }
    assert merged["sizes"]["655360"] == {"total_ms": 20.0}
    assert merged["dispatch_minstr_per_s"] == {"rodrigo": 21.0}
    assert json.loads((tmp_path / "BENCH_other.json").read_text()) == {"n": 1}


def test_unreadable_record_is_replaced(tmp_path):
    (tmp_path / "BENCH_x.json").write_text("{ torn")
    write_bench_records({"BENCH_x": {"a": 1}}, str(tmp_path))
    assert json.loads((tmp_path / "BENCH_x.json").read_text()) == {"a": 1}
