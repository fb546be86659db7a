"""The primary-side tailer: committed generations become GEN records.

The capture itself is shared with the crash-restart supervisor and lives
in :mod:`repro.checkpoint.generation`; this module keeps its name in the
replication package's layout.
"""

from repro.checkpoint.generation import CommitTailer, TailHooks

__all__ = ["CommitTailer", "TailHooks"]
