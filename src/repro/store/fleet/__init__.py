"""The sharded checkpoint-store fleet.

Scales the single-node store out to N shards:

- :mod:`~repro.store.fleet.wire` — the RSTP/2 payload codecs (frame
  batching, streamed chunk responses, version negotiation) layered on
  the shared frame format;
- :class:`~repro.store.fleet.aserver.FleetNode` — the store daemon: a
  selectors event loop multiplexing every connection, one per shard (a
  single-node store is a 1-shard fleet);
- :class:`~repro.store.fleet.ring.HashRing` — deterministic
  consistent-hash placement of chunk keys and manifests across shards,
  with bounded movement on join/leave;
- :class:`~repro.store.fleet.cache.PresenceCache` — client-side
  positive+negative chunk-presence answers, invalidated by shard
  destruction epochs;
- :class:`~repro.store.fleet.client.FleetClient` — the checkpoint
  client supervisors hold: per-key routing, batched dedup uploads,
  streamed downloads, fleet-wide gc/rebalance/audit.
"""

from repro.store.fleet.aserver import FleetNode
from repro.store.fleet.cache import PresenceCache
from repro.store.fleet.client import FleetClient
from repro.store.fleet.ring import HashRing

__all__ = [
    "FleetNode",
    "PresenceCache",
    "FleetClient",
    "HashRing",
]
