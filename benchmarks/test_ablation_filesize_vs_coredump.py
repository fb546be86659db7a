"""Ablation A2: checkpoint file size — VM-level vs core dump.

The paper (§5.1): "since we only dump the heap, stack(s), the used
parts of the data segments, and abstract registers, the overall size of
the checkpoint file is smaller than in implementations that dump the
entire core."
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import make_checkpoint
from repro.workloads import alloc_source
from tests.homogeneous import HomogeneousCheckpointer

SIZES_WORDS = [32 * 1024, 128 * 1024, 512 * 1024]


@pytest.mark.parametrize("size", SIZES_WORDS)
def test_file_size_vs_core_dump(size, tmp_path, benchmark, get_report):
    rep = get_report(
        "Ablation A2",
        "checkpoint file size: heterogeneous (VM-level) vs core dump",
        ["live words", "VM ckpt MB", "core dump MB", "core/VM ratio"],
    )
    path = str(tmp_path / "h.hckp")
    code, vm = make_checkpoint(alloc_source(size), path)
    hetero = vm.last_checkpoint_stats.file_bytes

    core_path = str(tmp_path / "core.dump")

    def dump_core():
        return HomogeneousCheckpointer(vm).save(core_path)

    core = benchmark.pedantic(dump_core, rounds=1, iterations=1)
    rep.row(
        size, f"{hetero / 1e6:.2f}", f"{core / 1e6:.2f}",
        f"{core / hetero:.2f}x",
    )
    if size == SIZES_WORDS[-1]:
        rep.note(
            "the core dump carries the empty young generation, full stack "
            "capacities and the text segment; the VM checkpoint does not"
        )
    assert core > hetero
