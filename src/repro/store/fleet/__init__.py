"""Client-side sharding of the checkpoint store.

Scales the single-node store out to N shards, each one the same
:class:`~repro.store.server.FleetNode` daemon (re-exported here):

- :class:`~repro.store.fleet.ring.HashRing` — deterministic
  consistent-hash placement of chunk keys and manifests across shards,
  with bounded movement on join/leave;
- :class:`~repro.store.fleet.client.FleetClient` — the checkpoint
  client supervisors hold: per-key routing, batched dedup uploads,
  streamed downloads, fleet-wide gc/rebalance/audit.
"""

from repro.store.fleet.client import FleetClient
from repro.store.fleet.ring import HashRing
from repro.store.server import FleetNode

__all__ = [
    "FleetNode",
    "FleetClient",
    "HashRing",
]
