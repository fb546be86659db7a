"""Exception hierarchy for the repro VM and checkpoint subsystem."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class MemoryError_(ReproError):
    """Bad access to a VM memory area (out of bounds, misaligned, ...)."""


class SegmentationFault(MemoryError_):
    """An address does not fall inside any mapped memory area."""


class AlignmentError(MemoryError_):
    """An address is not aligned to the platform word size."""


class HeapExhausted(MemoryError_):
    """The heap could not be grown to satisfy an allocation."""


class BytecodeError(ReproError):
    """Malformed byte-code (unknown opcode, bad operand count, ...)."""


class VMRuntimeError(ReproError):
    """A byte-code program performed an illegal operation at run time."""


class VMFinishedError(VMRuntimeError):
    """``run()`` on a VM whose program already ended."""

    def __init__(self, status: str) -> None:
        super().__init__(
            f"the program has {status}; a finished VM cannot run again"
        )
        #: How it ended: ``"stopped"`` or ``"exited"``.
        self.status = status


class PrimitiveError(VMRuntimeError):
    """A C-call primitive was invoked with invalid arguments."""


class ThreadError(ReproError):
    """Illegal green-thread operation (double unlock, deadlock, ...)."""


class DeadlockError(ThreadError):
    """All live threads are blocked; the scheduler cannot make progress."""


class ChannelError(ReproError):
    """Illegal channel operation (closed channel, random write, ...)."""


class CheckpointError(ReproError):
    """Base of every checkpoint-subsystem failure (take or restore).

    Carries the context every diagnostic needs to be actionable: the
    checkpoint file ``path``, the ``format_version`` its magic claims,
    and the body ``section`` the failure was localized to — each None
    when unknown.  :func:`repro.checkpoint.format.annotate_restore_error`
    fills ``path``/``format_version`` on any error leaving the restart
    path, exactly once.
    """

    def __init__(
        self,
        message: str = "",
        *,
        path: str | None = None,
        format_version: int | None = None,
        section: str | None = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.format_version = format_version
        self.section = section


class RestartError(CheckpointError):
    """A checkpoint file could not be restored."""


class CheckpointFormatError(RestartError):
    """The checkpoint file is corrupt or has an unknown format.

    Where the failure can be localized, ``section`` names the file
    section and ``offset`` the byte offset at which it was detected.
    """

    def __init__(
        self,
        message: str = "",
        *,
        section: str | None = None,
        offset: int | None = None,
        path: str | None = None,
        format_version: int | None = None,
    ) -> None:
        super().__init__(
            message, path=path, format_version=format_version, section=section
        )
        self.offset = offset


class CheckpointIntegrityError(CheckpointFormatError):
    """A checkpoint failed an integrity check (CRC or digest mismatch).

    Subclasses :class:`CheckpointFormatError` so every existing corrupt-
    file handler keeps working; carries the damaged ``section``, its
    byte ``offset``, and the ``expected``/``actual`` checksum values so
    ``repro fsck`` can repair exactly the damaged byte range.
    """

    def __init__(
        self,
        message: str = "",
        *,
        section: str | None = None,
        offset: int | None = None,
        length: int | None = None,
        expected: object = None,
        actual: object = None,
        path: str | None = None,
        format_version: int | None = None,
    ) -> None:
        super().__init__(
            message,
            section=section,
            offset=offset,
            path=path,
            format_version=format_version,
        )
        self.length = length
        self.expected = expected
        self.actual = actual


class IncompatibleCheckpointError(RestartError):
    """The checkpoint cannot be restored on this platform (baseline only)."""


class StoreError(ReproError):
    """Base class for checkpoint-store failures."""


class StoreIntegrityError(StoreError):
    """A stored chunk or manifest failed its integrity check."""


class StoreProtocolError(StoreError):
    """A malformed or unexpected frame on the store wire protocol."""


class StoreConnectionError(StoreError):
    """The store daemon could not be reached (after all retries)."""


class StoreNotFoundError(StoreError):
    """A requested chunk, manifest, or VM id does not exist."""


class ReplicationError(ReproError):
    """Base class for warm-standby replication failures."""


class ReplicationProtocolError(ReplicationError):
    """A malformed or unexpected frame on the replication channel."""


class StandbyUnreachableError(ReplicationError):
    """The standby did not acknowledge within the retransmit budget."""


class LeaseLostError(ReplicationError):
    """A node observed a higher primary epoch than its own.

    The only correct reaction is to fence: stop emitting output, stop
    replicating, and demote — another node holds the lease now.
    """

    def __init__(self, message: str, *, epoch: int = 0, holder: str = "") -> None:
        super().__init__(message)
        #: The higher epoch that fenced this node.
        self.epoch = epoch
        #: Who holds it.
        self.holder = holder


class CompileError(ReproError):
    """MiniML source could not be compiled."""


class MiniMLSyntaxError(CompileError):
    """MiniML source failed to lex or parse."""
