"""One protected generation: the capture both HA planes share.

A protection cycle is *capture → record → {mirror, ship}*.  The capture
drives one checkpoint through the atomic-commit protocol with a
:class:`TailHooks` observer riding the commit points, and only packages
the generation once the ``committed`` point was actually reached — a
crash injected anywhere inside the protocol leaves nothing half-uploaded
or half-shipped, because no record is produced at all.

What gets packaged is exactly what landed on disk: the committed file
bytes, its chain identity (``body_sha256`` for the next delta to bind
to, ``parent_sha256`` it bound to), and the cumulative stdout at the
safe point — the flush-before-checkpoint trick, so the file itself
carries an empty output buffer and whoever restores it prefills its sink
(:meth:`~repro.channels.manager.ChannelManager.prefill_stdout`) instead
of replaying writes.  The crash-restart supervisor mirrors the record to
the store; the warm-standby driver also ships it over the channel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.checkpoint.commit import CommitHooks
from repro.checkpoint.format import detect_format_version
from repro.errors import ReplicationError


@dataclass(frozen=True)
class GenRecord:
    """One committed checkpoint generation, ready to mirror or ship.

    ``data`` is the committed file byte-for-byte; ``stdout`` is the
    cumulative program output at the safe point the generation was
    taken.  A record decoded off the wire holds its bytes.  A captured
    one holds a reader instead and opens the file at the first use of
    ``data`` — the warm plane ships and mirrors them, the cold plane
    uploads the file itself and never asks — and refuses once a later
    capture has replaced that file.
    """

    seq: int
    kind: str  # "full" | "delta"
    body_sha256: str  # what the *next* delta will bind to
    parent_sha256: str  # "" for a full
    chain_depth: int
    format_version: Optional[int]
    instructions: int
    stdout: bytes = field(repr=False)
    data: bytes = field(repr=False)

    @property
    def data_sha256(self) -> str:
        return hashlib.sha256(self.data).hexdigest()


class _Payload:
    """``GenRecord.data``: the bytes, or a zero-argument reader that is
    called (once) the first time they are asked for."""

    def __get__(self, rec, owner=None):
        if rec is None:
            return self
        value = rec.__dict__["data"]
        if callable(value):
            value = rec.__dict__["data"] = value()
        return value

    def __set__(self, rec, value) -> None:
        rec.__dict__["data"] = value


# Installed after the dataclass is built, so ``data`` stays an ordinary
# required field of its constructor (and of ``dataclasses.replace``).
GenRecord.data = _Payload()


class TailHooks(CommitHooks):
    """Observe the commit protocol, optionally wrapping inner hooks.

    Composes: fault injectors (``CrashHooks`` and friends) still work
    under a capture — their behavior passes through, and the record of
    reached points tells whether the commit made it to the end.
    """

    def __init__(self, inner: Optional[CommitHooks] = None) -> None:
        self.inner = inner if inner is not None else CommitHooks()
        self.reached: list[str] = []

    def point(self, name: str) -> None:
        self.reached.append(name)
        self.inner.point(name)

    def fsync(self, fd: int) -> None:
        self.inner.fsync(fd)

    def replace(self, src: str, dst: str) -> None:
        self.inner.replace(src, dst)

    @property
    def committed(self) -> bool:
        return "committed" in self.reached


class CommitTailer:
    """Turns each committed checkpoint of one VM into a GenRecord."""

    def __init__(self, vm, path: str) -> None:
        self.vm = vm
        self.path = path
        self.seq = 0
        #: Checkpoints started at ``path``: whichever a record was cut
        #: from, the next one (even a torn one) ends its claim on the file.
        self._writes = 0

    def capture(self, inner_hooks: Optional[CommitHooks] = None) -> GenRecord:
        """Checkpoint now and package the committed generation.

        ``inner_hooks`` lets a fault schedule crash the commit protocol
        mid-write; the crash propagates (like a real power cut) and no
        record is produced.  Raises :class:`ReplicationError` if the
        commit protocol finished without reaching its ``committed``
        point — a torn commit must never reach the store or the wire.
        """
        vm = self.vm
        # Flush first: the file carries an empty output buffer, the
        # record the cumulative output (the coordinator's prefill trick).
        vm.channels.stdout.flush()
        stdout_so_far = vm.channels.stdout_bytes()
        parent_sha = vm.delta_parent_sha  # what a delta will bind to
        hooks = TailHooks(inner_hooks)
        saved_hooks = vm.config.commit_hooks
        saved_state = vm.config.chkpt_state
        vm.config.commit_hooks = hooks
        # A protected VM ignores every other request (its config says
        # "disable"), so no commit but this one can fork its chain.
        vm.config.chkpt_state = "enable"
        self._writes += 1
        try:
            vm.perform_checkpoint()
        finally:
            vm.config.commit_hooks = saved_hooks
            vm.config.chkpt_state = saved_state
        if not hooks.committed:
            raise ReplicationError(
                f"checkpoint of {self.path} never reached its commit "
                f"point; refusing to protect a torn generation"
            )
        stats = vm.last_checkpoint_stats
        self.seq += 1
        seq, write = self.seq, self._writes

        def committed_file() -> bytes:
            if self._writes != write:
                raise ReplicationError(
                    f"generation {seq} of {self.path} was not read before "
                    f"a later checkpoint replaced its file"
                )
            with open(self.path, "rb") as f:
                return f.read()

        kind = stats.kind if stats is not None else "full"
        body_sha = vm.delta_parent_sha  # the writer just updated it
        return GenRecord(
            seq=self.seq,
            kind=kind,
            body_sha256=body_sha.hex() if body_sha else "",
            parent_sha256=(
                parent_sha.hex() if (kind == "delta" and parent_sha) else ""
            ),
            chain_depth=(
                stats.chain_depth if (stats and kind == "delta") else 0
            ),
            format_version=detect_format_version(self.path),
            instructions=vm.interp.instructions,
            stdout=stdout_so_far,
            data=committed_file,
        )
