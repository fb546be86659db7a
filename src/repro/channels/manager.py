"""The channel table: all open channels of a VM instance.

Checkpoint serializes the table into :class:`ChannelRecord` entries
(paper §4.1 step 12); restart rebuilds the table and reopens each file
(§4.2 step 10).  In-heap channel *values* are one-field blocks holding
the channel id as an immediate, so the heap side needs no special
conversion — ids stay valid across platforms.
"""

from __future__ import annotations

import io
import sys
from dataclasses import dataclass
from typing import BinaryIO, Optional

from repro.channels.channel import Channel, ChannelMode
from repro.errors import ChannelError


@dataclass(frozen=True)
class ChannelRecord:
    """The checkpointed description of one channel."""

    cid: int
    path: Optional[str]
    mode: str
    std_name: Optional[str]
    position: int
    out_buffer: bytes
    closed: bool


class ChannelManager:
    """Owns the channel table of one VM."""

    def __init__(
        self,
        stdout: Optional[BinaryIO] = None,
        stderr: Optional[BinaryIO] = None,
        stdin: Optional[BinaryIO] = None,
    ) -> None:
        self._stdout = stdout if stdout is not None else io.BytesIO()
        self._stderr = stderr if stderr is not None else io.BytesIO()
        self._stdin = stdin if stdin is not None else io.BytesIO()
        self.channels: dict[int, Channel] = {}
        self._next_cid = 3
        self.channels[0] = Channel(
            0, None, ChannelMode.READ, self._stdin, std_name="stdin"
        )
        self.channels[1] = Channel(
            1, None, ChannelMode.WRITE, self._stdout, std_name="stdout"
        )
        self.channels[2] = Channel(
            2, None, ChannelMode.WRITE, self._stderr, std_name="stderr"
        )

    # -- access ------------------------------------------------------------

    @property
    def stdout(self) -> Channel:
        """The standard output channel."""
        return self.channels[1]

    @property
    def stderr(self) -> Channel:
        """The standard error channel."""
        return self.channels[2]

    @property
    def stdin(self) -> Channel:
        """The standard input channel."""
        return self.channels[0]

    def get(self, cid: int) -> Channel:
        """Look up a channel by id."""
        try:
            return self.channels[cid]
        except KeyError:
            raise ChannelError(f"unknown channel id {cid}") from None

    def stdout_bytes(self) -> bytes:
        """Captured stdout contents (only for in-memory sinks)."""
        self.stdout.flush()
        if isinstance(self._stdout, io.BytesIO):
            return self._stdout.getvalue()
        raise ChannelError("stdout is not an in-memory sink")

    def prefill_stdout(self, data: bytes) -> None:
        """Put what a predecessor already printed into this VM's sink.

        The other half of "flush before checkpoint": the checkpoint
        carries an empty output buffer and the cumulative output rides
        beside it, so a restored VM's sink starts from that output and
        the final stream is bit-identical to an uninterrupted run.
        """
        self._stdout.write(data)

    # -- opening -------------------------------------------------------------

    def open_out(self, path: str) -> int:
        """Open a file for (truncating) sequential write."""
        handle = open(path, "wb")
        cid = self._next_cid
        self._next_cid += 1
        self.channels[cid] = Channel(cid, path, ChannelMode.WRITE, handle)
        return cid

    def open_in(self, path: str) -> int:
        """Open a file for sequential read."""
        handle = open(path, "rb")
        cid = self._next_cid
        self._next_cid += 1
        self.channels[cid] = Channel(cid, path, ChannelMode.READ, handle)
        return cid

    def close(self, cid: int) -> None:
        """Close a channel."""
        self.get(cid).close()

    def flush_all(self) -> None:
        """Flush every output channel (checkpoint does not require this,
        since buffers are saved, but VM shutdown does)."""
        for ch in self.channels.values():
            if not ch.closed and ch.mode is not ChannelMode.READ:
                ch.flush()

    # -- checkpoint/restart ---------------------------------------------------

    def snapshot(self) -> list[ChannelRecord]:
        """Serialize the channel table for a checkpoint."""
        return [
            ChannelRecord(
                cid=ch.cid,
                path=ch.path,
                mode=ch.mode.value,
                std_name=ch.std_name,
                position=ch.position,
                out_buffer=bytes(ch.out_buffer),
                closed=ch.closed,
            )
            for ch in self.channels.values()
        ]

    def restore(self, records: list[ChannelRecord]) -> None:
        """Rebuild the channel table from checkpointed records."""
        std_handles = {
            "stdin": self._stdin,
            "stdout": self._stdout,
            "stderr": self._stderr,
        }
        self.channels.clear()
        max_cid = 2
        for rec in records:
            ch = Channel(
                rec.cid,
                rec.path,
                ChannelMode(rec.mode),
                handle=None,
                std_name=rec.std_name,
            )
            ch.position = rec.position
            ch.out_buffer = bytearray(rec.out_buffer)
            ch.closed = rec.closed
            if not rec.closed:
                ch.reopen(std_handles)
            self.channels[rec.cid] = ch
            max_cid = max(max_cid, rec.cid)
        self._next_cid = max_cid + 1
