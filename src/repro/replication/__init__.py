"""Warm-standby continuous replication with live handoff.

The paper's checkpoint files make a stopped program portable across
architectures; this package makes a *running* one highly available.  A
primary streams every committed checkpoint generation — format-v4
deltas after the first full — over an acked channel to a standby that
keeps a resident VM spliced up to date on a different platform, while
an output gate (the VMware-FT output rule) holds client-visible stdout
until the covering generation is acknowledged and a store-backed epoch
lease arbitrates who may lead after a crash or partition.

Layout:

``wire``     framing and the GEN record codec
``gate``     the output rule (hold / release / resume)
``lease``    the primary-epoch lease and fencing (split-brain guard)
``channel``  the primary's acked sender (retransmit, cumulative acks)
``standby``  the standby daemon (apply-before-ack, failure detector,
             promotion)
``live``     the end-to-end driver and seeded fault schedules
"""

from repro.checkpoint.generation import CommitTailer, GenRecord
from repro.replication.channel import ReplicationSender
from repro.replication.gate import OutputGate
from repro.replication.lease import (
    EpochLease,
    LeaseClaim,
    LeaseState,
    LEASE_SUFFIX,
)
from repro.replication.live import (
    LiveHA,
    LiveReport,
    SCHEDULES,
    cold_restore_from_store,
)
from repro.replication.standby import StandbyServer

__all__ = [
    "CommitTailer",
    "EpochLease",
    "GenRecord",
    "LEASE_SUFFIX",
    "LeaseClaim",
    "LeaseState",
    "LiveHA",
    "LiveReport",
    "OutputGate",
    "ReplicationSender",
    "SCHEDULES",
    "StandbyServer",
    "cold_restore_from_store",
]
