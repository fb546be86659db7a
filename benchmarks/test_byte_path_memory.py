"""What one generation's byte path holds: upload, chunk stream, ship.

A 16 MiB payload crosses each hop in one process, under ``tracemalloc``
(which counts every Python allocation of every thread):

* **upload** — ``FleetClient.put_checkpoint`` into a 1-shard
  ``FleetNode`` daemon;
* **download** — ``FleetClient.get_checkpoint`` back out of it (the
  daemon's pumped ``GET_MANY``, assembled in place on the client);
* **ship** — ``ReplicationSender.ship`` of a ``GEN`` frame to a receiver
  that parses and verifies it (``wire.decode_gen``: sizes and the file
  digest) and acks, as the standby does before it applies.

The payload exists before each hop starts tracing, so a hop's peak is
what it holds on top of the payload it was handed.  Gates: the upload
holds at most ``SLACK_MIB`` (about one 1 MiB window on each side); the
download and the ship at most ``SLACK_MIB`` beyond the one copy their
receiving end must end up with (the assembled payload, the received
frame).  Recorded in ``results/BENCH_byte_path.json``.
"""

from __future__ import annotations

import gc
import random
import socket
import threading
import time
import tracemalloc

from repro.checkpoint.generation import GenRecord
from repro.replication import ReplicationSender, wire
from repro.store import ChunkStore, FleetClient, FleetNode

MIB = 1024 * 1024
PAYLOAD_MIB = 16
#: CI gate: MiB a hop may hold beyond the payload (copies) it must hold.
SLACK_MIB = 2.0


def _traced(fn):
    """``(result, peak MiB, seconds)`` of ``fn()`` under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / MIB, seconds


class _Receiver:
    """The receiving end of a replication channel, minus the apply: each
    GEN frame is read, parsed and verified, then acked."""

    def __init__(self) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        conn, _addr = self._listener.accept()
        with conn:
            while (frame := wire.recv_frame(conn, allow_eof=True)) is not None:
                rec = wire.decode_gen(frame[1])
                wire.send_frame(
                    conn, wire.OP_ACK, wire.encode_ack(rec.seq, rec.seq)
                )
                del rec, frame

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=5)


def test_byte_path_memory(tmp_path, bench_json, get_report):
    payload = random.Random(2002).randbytes(PAYLOAD_MIB * MIB)
    size = len(payload) / MIB
    node = FleetNode(ChunkStore(str(tmp_path / "store")))
    node.start()
    receiver = _Receiver()
    try:
        with FleetClient([node.address], backoff=0.01) as client:
            client.ping()  # connected before tracing starts
            (_gen, stats), upload, up_s = _traced(
                lambda: client.put_checkpoint("vm", payload)
            )
            assert stats.bytes_new == len(payload)
            (back, _m), download, down_s = _traced(
                lambda: client.get_checkpoint("vm")
            )
            assert back == payload
            del back
        rec = GenRecord(
            seq=1, kind="full", body_sha256="", parent_sha256="",
            chain_depth=0, format_version=3, instructions=0, stdout=b"",
            data=payload,
        )
        sender = ReplicationSender.connect(*receiver.address, "primary",
                                           ack_timeout=30.0)
        try:
            acked, ship, ship_s = _traced(lambda: sender.ship(rec))
        finally:
            sender.close()
        assert acked == 1
    finally:
        receiver.close()
        node.stop()

    hops = {
        "upload": (upload, upload, up_s),
        "download": (download, download - size, down_s),
        "ship": (ship, ship - size, ship_s),
    }
    bench_json("BENCH_byte_path").update({
        "payload_mib": PAYLOAD_MIB,
        "slack_gate_mib": SLACK_MIB,
        "hops": {
            name: {
                "peak_mib": round(peak, 2),
                "beyond_payload_mib": round(extra, 2),
                "mib_per_s": round(size / seconds, 1),
            }
            for name, (peak, extra, seconds) in hops.items()
        },
    })
    rep = get_report(
        "Byte path",
        f"tracemalloc peak per hop, one {PAYLOAD_MIB} MiB generation, "
        f"client + 1-shard daemon / sender + receiver in one process",
        ["hop", "peak MiB", "beyond payload MiB", "MiB/s"],
    )
    for name, (peak, extra, seconds) in hops.items():
        rep.row(name, f"{peak:.2f}", f"{extra:.2f}", f"{size / seconds:.0f}")
    rep.note(
        f"gate: each hop <= {SLACK_MIB} MiB beyond the payload copy its "
        f"receiving end must hold (none for the upload: the daemon "
        f"writes chunks to disk)"
    )
    for name, (_peak, extra, _s) in hops.items():
        assert extra <= SLACK_MIB, (name, extra)
