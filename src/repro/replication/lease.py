"""The primary-epoch lease: the split-brain guard, persisted in the store.

The store's generation counter is the fencing token.  A lease is the
history of claim records under ``<vm_id>.lease``; every claim records
which epoch it *expected* to succeed, and a claim is **valid** — actually
holds the lease — only if its expectation matches the newest valid
claim before it.  The epoch of a claim IS its generation.  The fold that
resolves validity is the store's (:func:`repro.store.chunkstore.fold_claims`),
and so is the decision:

* To **acquire** (promote), a node sends one ``CLAIM`` expecting the
  newest valid epoch ``e`` it has observed.  The lease's owner shard
  folds the records, commits the claim as generation latest + 1 and
  answers whether it is valid — all under its commit lock, so at most
  one claim expecting ``e`` can land before a claim expecting something
  newer: exactly one winner per epoch.  A claim that lands after an
  intervening valid claim is invalid and raises
  :class:`~repro.errors.LeaseLostError`.  The losing record stays in
  the history — harmless (invalid claims never hold the lease, never
  fence anyone) and useful: the audit trail shows exactly who contended
  and when.
* To **fence**, any node compares the newest *valid* epoch against its
  own.  A revived primary that slept through a takeover sees a higher
  valid epoch held by someone else and must demote — it can never win
  an argument with the store, because valid epochs only move forward.

A promotion is therefore two store exchanges: one listing to observe
(:meth:`EpochLease.read`) and one claim, whose answer already says
whether the claimant holds the newest epoch.  Both touch only the
lease's own records, so they cost the same whatever other VMs have
stored.  The one term that still grows is the lease's own history — one
record per claim, i.e. per failover — which is folded whole on every
read and claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    LeaseLostError,
    ReplicationError,
    StoreIntegrityError,
    StoreNotFoundError,
)
from repro.store.chunkstore import LeaseClaim, fold_claims, lease_head

#: Suffix appended to the workload's vm id to name its lease object.
LEASE_SUFFIX = ".lease"


@dataclass(frozen=True)
class LeaseState:
    """One observation of the lease: who validly holds which epoch."""

    epoch: int
    holder: str

    @property
    def exists(self) -> bool:
        return self.epoch > 0


class EpochLease:
    """A node's handle on the primary-epoch lease for one workload."""

    def __init__(self, client, vm_id: str, node_id: str) -> None:
        self.client = client
        self.lease_id = vm_id + LEASE_SUFFIX
        self.node_id = node_id

    # -- observation --------------------------------------------------------

    def history(self) -> list[LeaseClaim]:
        """Every claim ever made, oldest first, validity resolved — one
        listing scoped to the lease id.  A claim record the fold cannot
        read raises :class:`~repro.errors.ReplicationError` naming it."""
        listing = self.client.ls(self.lease_id)["vms"].get(self.lease_id, [])
        try:
            return fold_claims(self.lease_id, listing)
        except StoreIntegrityError as e:
            raise ReplicationError(str(e)) from None

    def read(self) -> LeaseState:
        """The newest *valid* claim (epoch 0 / empty holder if none)."""
        return LeaseState(*lease_head(self.history()))

    # -- acquisition and fencing -------------------------------------------

    def claim(self, expected: int) -> int:
        """Acquire the lease, expecting ``expected`` to be the newest
        valid epoch; returns the new epoch on success.  One ``CLAIM``.

        Raises :class:`LeaseLostError` if the expectation was stale —
        another node's valid claim intervened, so this one is recorded
        as a loser — and :class:`~repro.errors.ReplicationError` if the
        store cannot judge the claim (a damaged record, or the lease's
        records are not on its owner shard); nothing is held then.
        """
        try:
            answer = self.client.claim(self.lease_id, self.node_id, expected)
        except (StoreIntegrityError, StoreNotFoundError) as e:
            raise ReplicationError(f"claim refused: {e}") from None
        if not answer["valid"]:
            head = LeaseState(**answer["head"])
            raise LeaseLostError(
                f"{self.node_id} claimed expecting epoch {expected} but "
                f"{head.holder!r} validly holds epoch {head.epoch}",
                epoch=head.epoch,
                holder=head.holder,
            )
        return int(answer["epoch"])

    def check(self, my_epoch: int) -> LeaseState:
        """Fencing probe: raises :class:`LeaseLostError` if a higher
        *valid* epoch exists and someone else holds it."""
        state = self.read()
        if state.epoch > my_epoch and state.holder != self.node_id:
            raise LeaseLostError(
                f"{self.node_id} (epoch {my_epoch}) is fenced: "
                f"{state.holder!r} holds epoch {state.epoch}",
                epoch=state.epoch,
                holder=state.holder,
            )
        return state
