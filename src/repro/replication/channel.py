"""The primary's end of the replication channel.

One TCP connection to the standby, used synchronously: ``ship`` sends a
GEN frame and blocks until the cumulative ACK covers it, retransmitting
on timeout.  The standby applies before acking, so a returned ``ship``
means the generation is spliced into the resident VM — takeover-ready —
and the caller may release stdout up to that generation's coverage.

Retransmits are safe by construction: GEN frames are idempotent (the
standby drops already-applied sequence numbers and re-acks), and ACKs
are cumulative, so a lost ACK is healed by the retransmit of the GEN it
acknowledged.  A channel that stays quiet through the whole retransmit
budget raises :class:`~repro.errors.StandbyUnreachableError`; deciding
what that *means* (dead standby? partition? am I still primary?) is the
caller's job, with the epoch lease as the tiebreaker.
"""

from __future__ import annotations

import socket
from typing import Callable, Optional

from repro.checkpoint.generation import GenRecord
from repro.errors import (
    ReplicationError,
    ReplicationProtocolError,
    StandbyUnreachableError,
)
from repro.metrics import REPLICATION
from repro.replication import wire


class ReplicationSender:
    """Ships committed generations to one standby and tracks acks."""

    def __init__(
        self,
        sock,
        node_id: str,
        ack_timeout: float = 2.0,
        max_retransmits: int = 3,
    ) -> None:
        self.sock = sock
        self.node_id = node_id
        self.ack_timeout = ack_timeout
        self.max_retransmits = max_retransmits
        self.acked_seq = 0
        self.sent_seq = 0
        self.standby_node: Optional[str] = None
        self._unacked_bytes = 0

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        node_id: str,
        wrap: Optional[Callable] = None,
        **kwargs,
    ) -> "ReplicationSender":
        """Dial the standby.  ``wrap`` (e.g. a FlakySocket factory) is
        applied to the raw socket before any frame moves — fault
        injection sees the whole conversation."""
        sock = socket.create_connection((host, port), timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if wrap is not None:
            sock = wrap(sock)
        return cls(sock, node_id, **kwargs)

    # -- handshake ---------------------------------------------------------

    def hello(self, code_digest: str, epoch: int, platform: str) -> dict:
        """Announce ourselves; learn the standby's applied frontier."""
        self.sock.settimeout(self.ack_timeout)
        wire.send_frame(
            self.sock,
            wire.OP_HELLO,
            wire.encode_json(
                {
                    "node": self.node_id,
                    "code_digest": code_digest,
                    "epoch": epoch,
                    "platform": platform,
                }
            ),
        )
        frame = wire.recv_frame(self.sock)
        if frame is None:
            raise ReplicationProtocolError("standby closed during HELLO")
        op, payload = frame
        if op == wire.OP_ERR:
            doc = wire.decode_json(payload)
            raise ReplicationError(
                f"standby rejected HELLO: {doc.get('error', repr(payload))}"
            )
        if op != wire.OP_OK:
            raise ReplicationProtocolError(
                f"unexpected HELLO response opcode 0x{op:02x}"
            )
        info = wire.decode_json(payload)
        self.standby_node = info.get("node")
        self.acked_seq = int(info.get("applied", 0))
        self.sent_seq = max(self.sent_seq, self.acked_seq)
        return info

    # -- the acked data path -----------------------------------------------

    def ship(self, rec: GenRecord) -> int:
        """Send one generation; block until the ack covers it.

        Returns the standby's applied frontier.  Raises
        :class:`StandbyUnreachableError` after the retransmit budget is
        spent with no covering ack.
        """
        parts = wire.gen_parts(rec)
        size = sum(map(len, parts))
        self.sock.settimeout(self.ack_timeout)
        attempts = 0
        while True:
            try:
                wire.send_frame(self.sock, wire.OP_GEN, parts)
                if attempts == 0:
                    self.sent_seq = max(self.sent_seq, rec.seq)
                    self._unacked_bytes += size
                    REPLICATION.generations_sent += 1
                    REPLICATION.bytes_sent += size
                else:
                    REPLICATION.retransmits += 1
                self._gauge()
                if self._await_ack(rec.seq):
                    self._unacked_bytes = 0
                    self._gauge()
                    return self.acked_seq
            except (socket.timeout, TimeoutError):
                pass
            except OSError as e:
                raise StandbyUnreachableError(
                    f"replication channel to {self.standby_node or '?'} "
                    f"failed: {e}"
                ) from e
            attempts += 1
            if attempts > self.max_retransmits:
                raise StandbyUnreachableError(
                    f"generation {rec.seq} unacknowledged after "
                    f"{attempts} attempts"
                )

    def _await_ack(self, seq: int) -> bool:
        """Drain frames until an ACK covering ``seq`` (True) or a
        timeout (False).  Anything else on the wire is either benign
        (PONG, stale ACK) or a protocol violation."""
        while True:
            try:
                frame = wire.recv_frame(self.sock)
            except (socket.timeout, TimeoutError):
                return False
            except ReplicationProtocolError as e:
                # The standby hung up mid-frame (e.g. it promoted and
                # closed the channel).  From this side that is simply an
                # unreachable standby; the lease decides what it means.
                raise StandbyUnreachableError(
                    f"standby closed the replication channel: {e}"
                ) from e
            if frame is None:
                raise StandbyUnreachableError(
                    "standby closed the replication channel"
                )
            op, payload = frame
            if op == wire.OP_ACK:
                _seq, applied = wire.decode_ack(payload)
                if applied > self.acked_seq:
                    self.acked_seq = applied
                    REPLICATION.acks += 1
                if self.acked_seq >= seq:
                    return True
            elif op in (wire.OP_PONG, wire.OP_OK):
                # Stale heartbeat answer, or the response to a HELLO the
                # channel duplicated — benign on an at-least-once link.
                continue
            elif op == wire.OP_ERR:
                doc = wire.decode_json(payload)
                raise ReplicationError(
                    f"standby rejected generation: "
                    f"{doc.get('error', repr(payload))}"
                )
            else:
                raise ReplicationProtocolError(
                    f"unexpected frame 0x{op:02x} while awaiting ack"
                )

    def ping(self) -> bool:
        """One heartbeat round trip; False on timeout."""
        try:
            self.sock.settimeout(self.ack_timeout)
            wire.send_frame(self.sock, wire.OP_PING)
            while True:
                frame = wire.recv_frame(self.sock)
                if frame is None:
                    return False
                op, payload = frame
                if op == wire.OP_PONG:
                    return True
                if op == wire.OP_ACK:  # stale ack racing a retransmit
                    _seq, applied = wire.decode_ack(payload)
                    self.acked_seq = max(self.acked_seq, applied)
                    continue
                if op == wire.OP_OK:  # duplicated HELLO response
                    continue
                return False
        except (
            socket.timeout,
            TimeoutError,
            OSError,
            ReplicationProtocolError,
        ):
            # Timeout, reset, or a mid-frame hangup (a standby that
            # promoted away): the heartbeat simply failed.
            return False

    def _gauge(self) -> None:
        REPLICATION.lag_generations = self.sent_seq - self.acked_seq
        REPLICATION.lag_bytes = self._unacked_bytes

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
