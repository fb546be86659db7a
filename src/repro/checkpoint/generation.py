"""One protected generation: the capture both HA planes share.

A protection cycle is *capture → record → {mirror, ship}*.  The capture
is one blocking :meth:`~repro.checkpoint.writer.CheckpointWriter.checkpoint`
through the atomic-commit protocol: it returns once the ``committed``
point was reached, or raises — a crash injected anywhere inside the
protocol leaves nothing half-uploaded or half-shipped, because no record
is produced at all.

What gets packaged is exactly what the writer committed: the image it
wrote (a view of the writer's own buffer, never read back from disk),
its chain identity (``body_sha256`` for the next delta to bind to,
``parent_sha256`` it bound to), and the cumulative stdout at the safe
point — the flush-before-checkpoint trick, so the file itself carries an
empty output buffer and whoever restores it prefills its sink
(:meth:`~repro.channels.manager.ChannelManager.prefill_stdout`) instead
of replaying writes.  The crash-restart supervisor mirrors the record to
the store; the warm-standby driver also ships it over the channel.
"""

from __future__ import annotations

import hashlib
from dataclasses import InitVar, dataclass, field
from typing import Optional

from repro.checkpoint.commit import CommitHooks
from repro.checkpoint.format import magic_version
from repro.checkpoint.schema import ImageDigest
from repro.checkpoint.writer import CheckpointWriter


@dataclass(frozen=True)
class GenRecord:
    """One committed checkpoint generation, ready to mirror or ship.

    ``data`` is the committed image byte-for-byte, read-only: a captured
    record holds a view of the buffer its writer committed, a record
    decoded off the wire a view of the frame.  ``stdout`` is the
    cumulative program output at the safe point the generation was
    taken.

    ``data_sha256`` is ``data``'s SHA-256 as the pass that produced or
    received it computed it (``sha256=``: the writer's, the frame
    check's); a record built without one — or copied with other
    ``data`` — hashes ``data`` once, here.  ``digests`` is the received
    image's :class:`~repro.checkpoint.schema.ImageDigest`
    (``received=``), whose body digests the standby's reads adopt.
    """

    seq: int
    kind: str  # "full" | "delta"
    body_sha256: str  # what the *next* delta will bind to
    parent_sha256: str  # "" for a full
    chain_depth: int
    format_version: Optional[int]
    instructions: int
    stdout: bytes = field(repr=False)
    data: memoryview = field(repr=False)
    sha256: InitVar[Optional[str]] = None
    received: InitVar[Optional[ImageDigest]] = None
    data_sha256: str = field(init=False, repr=False, compare=False)
    digests: Optional[ImageDigest] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self, sha256: Optional[str],
                      received: Optional[ImageDigest]) -> None:
        object.__setattr__(
            self, "data_sha256", sha256 or hashlib.sha256(self.data).hexdigest()
        )
        object.__setattr__(self, "digests", received)


class CommitTailer:
    """Turns each committed checkpoint of one VM into a GenRecord."""

    def __init__(self, vm, path: str) -> None:
        self.vm = vm
        self.path = path
        self.seq = 0

    def capture(self, inner_hooks: Optional[CommitHooks] = None) -> GenRecord:
        """Checkpoint now and package the committed generation.

        One blocking checkpoint at ``path``, whatever the VM's
        ``chkpt_mode`` or ``chkpt_state`` say.  ``inner_hooks`` lets a
        fault schedule crash the commit protocol mid-write; the crash
        propagates (like a real power cut) and no record is produced.
        """
        vm = self.vm
        # Flush first: the file carries an empty output buffer, the
        # record the cumulative output (the coordinator's prefill trick).
        vm.channels.stdout.flush()
        stdout_so_far = vm.channels.stdout_bytes()
        parent_sha = vm.delta_parent_sha  # what a delta will bind to
        stats = CheckpointWriter(vm).checkpoint(
            self.path, inner_hooks, keep_data=True
        )
        self.seq += 1
        return GenRecord(
            seq=self.seq,
            kind=stats.kind,
            # The writer just moved the chain head to this generation.
            body_sha256=vm.delta_parent_sha.hex(),
            parent_sha256=parent_sha.hex() if stats.kind == "delta" else "",
            chain_depth=stats.chain_depth,
            format_version=magic_version(stats.data),
            instructions=vm.interp.instructions,
            stdout=stdout_so_far,
            data=stats.data,
            sha256=stats.data_sha256,
        )
