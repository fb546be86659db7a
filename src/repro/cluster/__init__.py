"""Coordinated heterogeneous C/R for message-passing programs.

The paper's stated future work (§5.1, §7): "we intend to provide
heterogeneous C/R for parallel message-passing applications, by
integrating this work with our Starfish system."  This package is that
integration in miniature: N virtual machines — possibly on *different*
simulated architectures — exchange marshaled values through mailboxes,
and a coordinator implements *coordinated checkpointing* (the first of
the two classical approaches the paper's §6 surveys): it stops every
node at a safe point, stores one protected generation per node plus a
cut record holding the in-flight messages, and can restore the whole
application from the store with every node placed on a fresh (and
possibly different) platform.
"""

from repro.cluster.coordinator import (
    Cluster,
    ClusterDeadlock,
    ClusterNode,
    restore_cluster,
)

__all__ = [
    "Cluster",
    "ClusterDeadlock",
    "ClusterNode",
    "restore_cluster",
]
