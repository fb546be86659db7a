"""Crash-consistent checkpoint commit: journal, fsync, atomic rename.

The paper's step 13 ("write the end signature and atomically commit")
promises that a failure *during* checkpointing leaves the previous
checkpoint restorable.  This module makes that promise hold at every
byte offset, not just between steps:

1. A **journal** (`<path>.journal`) records the intent — target path,
   payload size and SHA-256 — and is fsynced before any data moves.
   After a crash, :func:`recover_commit` uses it to tell a completely
   written temp file (safe to roll forward) from a torn one (must be
   rolled back).
2. The payload is written to ``<path>.tmp`` and fsynced.
3. With ``retain > 0``, existing generations rotate (``path`` →
   ``path.1`` → ``path.2`` …), building the chain that
   :func:`generation_chain` walks and fallback restores rely on.
4. ``os.replace`` publishes the new generation atomically, the
   directory is fsynced, and the journal is removed.

Every step is bracketed by a named **commit point** (:data:`COMMIT_POINTS`)
through a :class:`CommitHooks` object, which the fault injectors in
:mod:`repro.faults` override to simulate a crash at any point, a failing
fsync, or a torn rename.  Production code pays one attribute call per
point.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

from repro.errors import CheckpointError
from repro.metrics import PhaseTimer

#: Every point at which a commit can be interrupted, in order.  The
#: crash-sim test enumerates these and proves the previous generation
#: survives a crash at each one.
COMMIT_POINTS = (
    "begin",
    "journal_partial",
    "journal_written",
    "journal_synced",
    "tmp_open",
    "tmp_partial",
    "tmp_written",
    "tmp_synced",
    "rotated",
    "renamed",
    "dir_synced",
    "committed",
)


class CommitHooks:
    """Override points for fault injection; the default is a no-op pass-
    through.  ``point`` may raise to simulate a crash at that step;
    ``fsync``/``replace`` wrap the real syscalls."""

    def point(self, name: str) -> None:
        pass

    def fsync(self, fd: int) -> None:
        os.fsync(fd)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)


def journal_path(path: str) -> str:
    return path + ".journal"


def tmp_path(path: str) -> str:
    return path + ".tmp"


def _fsync_dir(path: str, hooks: CommitHooks) -> None:
    """Durability barrier on the directory entry (best effort — not
    every platform lets you open a directory)."""
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(d, os.O_RDONLY)
    except OSError:
        return
    try:
        hooks.fsync(fd)
    finally:
        os.close(fd)


def _rotate_generations(path: str, retain: int, hooks: CommitHooks) -> None:
    """Shift ``path`` → ``path.1`` → … keeping at most ``retain`` old
    generations (the oldest is overwritten by the shift)."""
    for i in range(retain - 1, 0, -1):
        src = f"{path}.{i}"
        if os.path.exists(src):
            hooks.replace(src, f"{path}.{i + 1}")
    hooks.replace(path, f"{path}.1")


def atomic_commit(
    path: str,
    data,
    *,
    retain: int = 0,
    hooks: Optional[CommitHooks] = None,
    timer: Optional[PhaseTimer] = None,
    sha256: Optional[str] = None,
) -> int:
    """Durably commit ``data`` (bytes or memoryview) as ``path``.

    Returns the byte count.  ``retain`` keeps that many previous
    generations as ``path.N``; ``sha256`` is ``data``'s SHA-256 (hex)
    for the journal, when the caller has already computed it.  An
    :class:`OSError` from a write or fsync aborts the commit, removes
    the partial temp file, and raises
    :class:`~repro.errors.CheckpointError` — the previous generation is
    untouched.  Exceptions raised by ``hooks.point`` (simulated crashes)
    propagate as-is *without* cleanup, exactly like a real crash.
    """
    hooks = hooks or CommitHooks()
    timer = timer or PhaseTimer()
    n = len(data)
    jp, tp = journal_path(path), tmp_path(path)
    try:
        hooks.point("begin")
        with timer.phase("write"):
            journal = json.dumps(
                {
                    "path": os.path.basename(path),
                    "size": n,
                    "sha256": sha256 or hashlib.sha256(data).hexdigest(),
                    "retain": retain,
                }
            ).encode()
            with open(jp, "wb") as jf:
                jf.write(journal[: len(journal) // 2])
                hooks.point("journal_partial")
                jf.write(journal[len(journal) // 2 :])
                jf.flush()
                hooks.point("journal_written")
                hooks.fsync(jf.fileno())
            hooks.point("journal_synced")
            with open(tp, "wb") as f:
                hooks.point("tmp_open")
                half = n // 2
                f.write(data[:half])
                hooks.point("tmp_partial")
                f.write(data[half:])
                f.flush()
                hooks.point("tmp_written")
                # The durability barrier belongs to the atomic-commit
                # step (paper step 13): the rename must not be
                # reordered before the data blocks it commits.
                with timer.phase("commit"):
                    hooks.fsync(f.fileno())
            hooks.point("tmp_synced")
        with timer.phase("commit"):
            if retain > 0 and os.path.exists(path):
                _rotate_generations(path, retain, hooks)
            hooks.point("rotated")
            hooks.replace(tp, path)
            hooks.point("renamed")
            _fsync_dir(path, hooks)
            hooks.point("dir_synced")
            try:
                os.unlink(jp)
            except FileNotFoundError:
                pass
            hooks.point("committed")
    except OSError as e:
        for leftover in (tp, jp):
            try:
                os.unlink(leftover)
            except OSError:
                pass
        raise CheckpointError(
            f"checkpoint commit of {path} aborted: {e}"
        ) from e
    return n


def _file_sha256(path: str) -> Optional[str]:
    try:
        h = hashlib.sha256()
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
        return h.hexdigest()
    except OSError:
        return None


def recover_commit(path: str) -> str:
    """Resolve a commit interrupted by a crash; returns what was done.

    * ``"clean"`` — no journal, no temp file: nothing to do.
    * ``"discarded_tmp"`` — a stray temp file without a journal (crash
      before the journal existed, or a pre-journal writer): removed.
    * ``"rolled_forward"`` — the journal matches a complete, durable
      temp file; the rename is re-executed, publishing the generation
      the crash interrupted.
    * ``"already_committed"`` — the crash hit between the rename and the
      journal cleanup; only the journal needed removing.
    * ``"rolled_back"`` — the temp file is torn (or the journal is
      unreadable); both are removed and the previous generation stays
      the newest.
    """
    jp, tp = journal_path(path), tmp_path(path)
    if not os.path.exists(jp):
        if os.path.exists(tp):
            os.unlink(tp)
            return "discarded_tmp"
        return "clean"
    intent = None
    try:
        with open(jp, "r", encoding="utf-8") as f:
            intent = json.load(f)
        if not isinstance(intent.get("sha256"), str) or not isinstance(
            intent.get("size"), int
        ):
            intent = None
    except (OSError, ValueError):
        intent = None
    if intent is not None and os.path.exists(tp):
        if (
            os.path.getsize(tp) == intent["size"]
            and _file_sha256(tp) == intent["sha256"]
        ):
            # Re-execute the interrupted tail of the protocol, including
            # the rotation the crash may have preempted — otherwise the
            # roll-forward would overwrite (and so silently drop) the
            # previous generation from the retained chain.
            retain = intent.get("retain", 0)
            if isinstance(retain, int) and retain > 0 and os.path.exists(path):
                _rotate_generations(path, retain, CommitHooks())
            os.replace(tp, path)
            _fsync_dir(path, CommitHooks())
            os.unlink(jp)
            return "rolled_forward"
    if (
        intent is not None
        and not os.path.exists(tp)
        and os.path.exists(path)
        and os.path.getsize(path) == intent["size"]
        and _file_sha256(path) == intent["sha256"]
    ):
        os.unlink(jp)
        return "already_committed"
    for leftover in (tp, jp):
        try:
            os.unlink(leftover)
        except OSError:
            pass
    return "rolled_back"


def generation_chain(path: str) -> list[str]:
    """Existing generations, newest first: ``path``, ``path.1``, …

    The head may be missing (a crash between rotation and rename); the
    chain then starts at ``path.1``.  Numbering stops at the first gap.
    """
    out = []
    if os.path.exists(path):
        out.append(path)
    i = 1
    while os.path.exists(f"{path}.{i}"):
        out.append(f"{path}.{i}")
        i += 1
    return out
