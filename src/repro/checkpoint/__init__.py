"""Heterogeneous checkpoint/restart — the paper's primary contribution.

* :mod:`repro.checkpoint.format` — the checkpoint file format: VM data
  words in the *saving* machine's native representation (endianness and
  word size), framing metadata in fixed little-endian, an architecture
  marker word for endianness detection, and an end signature + CRC for
  the atomic-commit check.
* :mod:`repro.checkpoint.writer` — the 14-step checkpoint mechanism of
  §4.1, with fork-style background writing on POSIX personalities and
  blocking writes on the NT personality.
* :mod:`repro.checkpoint.reader` — the restart mechanism of §4.2:
  endianness/word-size detection, lazy conversion, boundary-based
  pointer adjustment, GC-guided heap fixing with the collector disabled.
* :mod:`repro.checkpoint.convert` / :mod:`relocate` — value conversion
  and address mapping machinery.
* :mod:`repro.checkpoint.generation` — the capture both HA planes share:
  one committed checkpoint packaged as a ``GenRecord``.

The core-dump-style baseline the paper compares against is not part of
the package: it lives beside its tests and its ablation benchmark, in
``tests/homogeneous.py``.
"""

from repro.checkpoint.commit import (
    COMMIT_POINTS,
    CommitHooks,
    atomic_commit,
    generation_chain,
    recover_commit,
)
from repro.checkpoint.format import (
    CheckpointHeader,
    AreaRecord,
    SectionEntry,
    ThreadRecord,
    RegisterRecord,
    VMSnapshot,
    read_checkpoint,
    read_section_table,
    CHECKPOINT_MAGIC,
    CHECKPOINT_MAGIC_V1,
    CHECKPOINT_MAGIC_V2,
    CHECKPOINT_MAGIC_V3,
)
from repro.checkpoint.writer import CheckpointWriter, CheckpointStats, build_snapshot
from repro.checkpoint.reader import (
    RestartStats,
    restart_vm,
    restart_vm_with_fallback,
)
from repro.checkpoint.fsck import fsck_chain

__all__ = [
    "CheckpointHeader",
    "AreaRecord",
    "SectionEntry",
    "ThreadRecord",
    "RegisterRecord",
    "VMSnapshot",
    "read_checkpoint",
    "read_section_table",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_MAGIC_V1",
    "CHECKPOINT_MAGIC_V2",
    "CHECKPOINT_MAGIC_V3",
    "COMMIT_POINTS",
    "CommitHooks",
    "atomic_commit",
    "generation_chain",
    "recover_commit",
    "CheckpointWriter",
    "CheckpointStats",
    "build_snapshot",
    "restart_vm",
    "restart_vm_with_fallback",
    "fsck_chain",
    "RestartStats",
]
