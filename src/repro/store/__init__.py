"""Checkpoint store & HA failover service.

The paper makes VM checkpoints *portable artifacts* that can restart on
a different machine; this package makes them *managed* artifacts.  It
provides:

- :class:`~repro.store.chunkstore.ChunkStore` — a content-addressed
  repository: checkpoint payloads are split into fixed-size chunks,
  keyed by SHA-256 and zlib-compressed, with a generation manifest per
  VM.  Successive periodic checkpoints dedup unchanged heap/stack
  chunks.
- :class:`~repro.store.server.FleetNode` — the one daemon: a selectors
  event loop serving the chunk store over RSTP
  (:mod:`repro.store.protocol`, framed by the shared :mod:`repro.net`
  codec), with N-way replication to follower stores and heartbeat
  liveness tracking.  One daemon is a single-node
  store; several are the shards of a consistent-hash fleet.
- :class:`~repro.store.fleet.client.FleetClient` — the one checkpoint
  client: chunked dedup uploads, streamed verified downloads, per-key
  routing across 1..N shards, asking each chunk's owner shard what it
  already holds.  It holds one :class:`~repro.store.client.StoreClient`
  per node — the persistent RSTP connection with configurable timeouts
  and bounded full-jitter retries.
- :class:`~repro.store.ha.HASupervisor` — runs a workload VM with
  periodic checkpoints pushed to the store, injects faults, and
  auto-restarts from the latest manifest on a *different* simulated
  platform, repeating until the program completes.
"""

from repro.store.chunkstore import ChunkStore, Manifest, PutStats
from repro.store.client import StoreClient
from repro.store.fleet.client import FleetClient
from repro.store.ha import HAReport, HASupervisor
from repro.store.server import FleetNode

__all__ = [
    "ChunkStore",
    "Manifest",
    "PutStats",
    "StoreClient",
    "FleetClient",
    "FleetNode",
    "HAReport",
    "HASupervisor",
]
