"""Store upload throughput under a simulated network round trip.

Eight concurrent supervisors push periodic checkpoint generations —
512 KiB payloads in 8 KiB chunks, half the chunks mutated between
generations, the store-traffic shape HA supervision produces.  The same
workload runs against the one store path, at both shard counts:

* **1 shard**: one ``FleetNode`` behind ``FleetClient([addr])`` — what
  ``repro store serve`` runs;
* **3 shards**: three ``FleetNode`` daemons behind one ``FleetClient``.

Either way RSTP BATCH frames carry all of a shard's puts in one round
trip, after one HAS_MANY has asked the shard which chunks it lacks.

Loopback round trips cost microseconds, which would hide exactly the
thing the protocol buys, so every connection runs through a
``LatencyProxy`` that charges ``RTT_MS`` per response — the shape of a
real network.

Recorded in ``results/BENCH_store_fleet.json``: throughput,
p50/p95/p99 upload latency and the store exchanges by opcode, counted
at the client, per arm.  There is no ratio gate: the
per-op v1 path this used to be compared against (2.6x slower at this
RTT, EXPERIMENTS.md) was deleted, so no baseline remains.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time
from collections import Counter

from repro.store import ChunkStore, FleetClient, FleetNode
from repro.store import protocol as P
from repro.store.client import StoreClient

N_WORKERS = 8
GENERATIONS = 6
CHUNK_SIZE = 8 * 1024
PAYLOAD_CHUNKS = 64  # 512 KiB per generation
MUTATE_EVERY = 2  # every other chunk changes per generation

RTT_MS = 15.0  # simulated network round-trip charged per response


class LatencyProxy:
    """A transparent TCP proxy that sleeps ``rtt`` before relaying each
    server-to-client burst.  For a sequential request/response protocol
    that charges one round trip per operation, which is precisely the
    cost structure loopback benchmarking erases."""

    def __init__(self, upstream: tuple[str, int], rtt: float) -> None:
        self.upstream = upstream
        self.rtt = rtt
        self._listen = socket.socket()
        self._listen.bind(("127.0.0.1", 0))
        self._listen.listen(32)
        self.address = self._listen.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listen.accept()
            except OSError:
                return
            threading.Thread(
                target=self._forward, args=(conn,), daemon=True
            ).start()

    def _forward(self, conn: socket.socket) -> None:
        up = socket.create_connection(self.upstream)

        def pump(src, dst, lag):
            try:
                while True:
                    data = src.recv(65536)
                    if not data:
                        break
                    if lag:
                        time.sleep(lag)
                    dst.sendall(data)
            except OSError:
                pass
            finally:
                for s in (src, dst):
                    try:
                        s.close()
                    except OSError:
                        pass

        threading.Thread(
            target=pump, args=(conn, up, 0.0), daemon=True
        ).start()
        pump(up, conn, self.rtt)

    def stop(self) -> None:
        try:
            self._listen.close()
        except OSError:
            pass


def _payload(worker: int, generation: int) -> bytes:
    """One worker's checkpoint at one generation.

    Chunk ``i`` is stable across generations unless ``i`` falls on the
    mutation stride — the dedup shape of a periodic heap checkpoint.
    """
    parts = []
    for i in range(PAYLOAD_CHUNKS):
        gen_mark = generation if i % MUTATE_EVERY == 0 else 0
        stamp = b"%04d/%04d/%08d" % (worker, i, gen_mark)
        parts.append(stamp + bytes(CHUNK_SIZE - len(stamp)))
    return b"".join(parts)


@contextlib.contextmanager
def _counted_exchanges():
    """Count every request a ``StoreClient`` sends, by opcode."""
    counts: Counter = Counter()
    lock = threading.Lock()
    exchange = StoreClient._exchange

    def counted(client, op, payload, read):
        with lock:
            counts[P.OP_NAMES[op]] += 1
        return exchange(client, op, payload, read)

    StoreClient._exchange = counted
    try:
        yield counts
    finally:
        StoreClient._exchange = exchange


def _percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


def _drive(make_client) -> dict:
    """Run the workload; returns latency percentiles and throughput."""
    latencies: list[float] = []
    lock = threading.Lock()
    errors: list[Exception] = []
    bytes_total = [0]

    def worker(idx: int) -> None:
        try:
            with make_client() as client:
                for gen in range(GENERATIONS):
                    payload = _payload(idx, gen)
                    t0 = time.perf_counter()
                    client.put_checkpoint(f"bench-vm-{idx}", payload)
                    dt = time.perf_counter() - t0
                    with lock:
                        latencies.append(dt)
                        bytes_total[0] += len(payload)
        except Exception as e:  # pragma: no cover - surfaced below
            errors.append(e)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(N_WORKERS)
    ]
    wall0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall0
    assert not errors, errors
    latencies.sort()
    mib = bytes_total[0] / (1024 * 1024)
    return {
        "uploads": len(latencies),
        "payload_mib": round(mib, 2),
        "wall_seconds": round(wall, 4),
        "throughput_mib_s": round(mib / wall, 2),
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "p95_ms": round(_percentile(latencies, 0.95) * 1e3, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
    }


def _run_fleet(tmp_path, shards: int) -> dict:
    rtt = RTT_MS / 1e3
    nodes = [
        FleetNode(
            ChunkStore(str(tmp_path / f"fleet{shards}-shard-{i}")),
            node_id=f"s{i}",
        )
        for i in range(shards)
    ]
    proxies = []
    for node in nodes:
        node.start()
        proxies.append(LatencyProxy(node.address, rtt))
    addrs = [proxy.address for proxy in proxies]
    try:
        with _counted_exchanges() as counts:
            arm = _drive(
                lambda: FleetClient(addrs, backoff=0.01, chunk_size=CHUNK_SIZE)
            )
        arm["exchanges"] = sum(counts.values())
        arm["exchanges_by_op"] = dict(sorted(counts.items()))
        return arm
    finally:
        for proxy in proxies:
            proxy.stop()
        for node in nodes:
            node.stop()


def test_fleet_throughput(tmp_path, bench_json, get_report):
    arms = {shards: _run_fleet(tmp_path, shards) for shards in (1, 3)}

    rep = get_report(
        "store fleet",
        f"{N_WORKERS} supervisors x {GENERATIONS} generations, "
        f"{PAYLOAD_CHUNKS} x {CHUNK_SIZE // 1024} KiB chunks, "
        f"{RTT_MS:g} ms simulated RTT",
        ["backend", "MiB/s", "p50 ms", "p95 ms", "p99 ms", "exchanges"],
    )
    doc = bench_json("BENCH_store_fleet")
    doc["workload"] = {
        "workers": N_WORKERS,
        "generations": GENERATIONS,
        "chunk_size": CHUNK_SIZE,
        "chunks_per_payload": PAYLOAD_CHUNKS,
        "mutated_per_generation": PAYLOAD_CHUNKS // MUTATE_EVERY,
        "simulated_rtt_ms": RTT_MS,
    }
    for shards, arm in arms.items():
        rep.row(f"RSTP {shards}-shard fleet", arm["throughput_mib_s"],
                arm["p50_ms"], arm["p95_ms"], arm["p99_ms"], arm["exchanges"])
        rep.note(f"{shards}-shard exchanges by opcode: " + ", ".join(
            f"{op} {n}" for op, n in arm["exchanges_by_op"].items()))
        doc[f"fleet_{shards}_shard"] = arm
        assert arm["uploads"] == N_WORKERS * GENERATIONS
