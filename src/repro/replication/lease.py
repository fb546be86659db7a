"""The primary-epoch lease: the split-brain guard, persisted in the store.

The store's generation counter is the fencing token.  Lease claims for
``<vm_id>.lease`` are committed *without* an explicit generation, so the
store assigns ``latest + 1`` under its commit lock — a serialized,
monotonic allocation.  Every claim records which epoch it *expected* to
succeed; a claim is **valid** — actually holds the lease — only if its
expectation matches the newest valid claim before it.  The epoch of a
valid claim IS its assigned generation:

* To **acquire** (promote), a node commits a claim expecting the newest
  valid epoch ``e`` it has observed.  The commit lock serializes
  claims, so at most one claim expecting ``e`` can land before a claim
  expecting something newer — exactly one winner per epoch.  A claim
  that lands after an intervening valid claim carries a stale
  expectation, is invalid, and raises
  :class:`~repro.errors.LeaseLostError`.  The losing record stays in
  the history — harmless (invalid claims never hold the lease, never
  fence anyone) and useful: the audit trail shows exactly who contended
  and when.
* To **fence**, any node compares the newest *valid* epoch against its
  own.  A revived primary that slept through a takeover sees a higher
  valid epoch held by someone else and must demote — it can never win
  an argument with the store, because valid epochs only move forward.

Claims carry a per-node nonce in the payload so the store's
identical-payload dedup (a retry convenience for checkpoints) can never
collapse two distinct claims into one generation.

Every observation is one listing *scoped to the lease id*
(``client.ls(lease_id)``): the store opens the lease's own claim
records and nothing else, so reading, claiming and fencing cost the same
whatever other VMs have stored.  The one term that still grows is the
lease's own history — one record per claim, i.e. per failover —
which :meth:`EpochLease.history` folds whole on every read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import LeaseLostError, ReplicationError

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


@dataclass(frozen=True)
class LeaseClaim:
    """One historical claim — valid (held the lease) or a loser."""

    epoch: int  # the store generation this claim was assigned
    holder: str
    expected: int  # the valid epoch the claimant thought was newest
    valid: bool


class EpochLease:
    """A node's handle on the primary-epoch lease for one workload."""

    def __init__(self, client, vm_id: str, node_id: str) -> None:
        self.client = client
        self.lease_id = vm_id + LEASE_SUFFIX
        self.node_id = node_id
        self._nonce = 0

    # -- observation --------------------------------------------------------

    def history(self) -> list[LeaseClaim]:
        """Every claim ever made, oldest first, validity resolved.

        Validity is a pure fold over the serialized history: a claim is
        valid iff its recorded expectation equals the epoch of the
        newest valid claim before it.  Any node reading the store
        computes the same answer — there is no ambiguity to split a
        brain over.  A claim record the fold cannot read (damaged meta)
        raises :class:`~repro.errors.ReplicationError`.
        """
        listing = self.client.ls(self.lease_id)["vms"].get(self.lease_id, [])
        claims = []
        valid_head = 0
        for entry in sorted(listing, key=lambda g: g["generation"]):
            meta = entry.get("meta", {})
            try:
                expected = int(meta.get("expected_epoch", -1))
            except (AttributeError, TypeError, ValueError):
                # Not ours to judge valid or invalid: either answer
                # could change who holds the lease.
                raise ReplicationError(
                    f"lease {self.lease_id!r} generation "
                    f"{entry['generation']}: damaged claim record "
                    f"(meta {meta!r})"
                ) from None
            valid = expected == valid_head
            if valid:
                valid_head = entry["generation"]
            claims.append(
                LeaseClaim(
                    epoch=entry["generation"],
                    holder=str(meta.get("holder", "")),
                    expected=expected,
                    valid=valid,
                )
            )
        return claims

    def read(self) -> LeaseState:
        """The newest *valid* claim (epoch 0 / empty holder if none)."""
        for claim in reversed(self.history()):
            if claim.valid:
                return LeaseState(epoch=claim.epoch, holder=claim.holder)
        return LeaseState(epoch=0, holder="")

    # -- acquisition and fencing -------------------------------------------

    def claim(self, expected: int) -> int:
        """Acquire the lease, expecting ``expected`` to be the newest
        valid epoch; returns the new epoch on success.

        Raises :class:`LeaseLostError` if the expectation was stale —
        another node's valid claim intervened, so this one recorded an
        expectation that does not match and can never hold the lease.
        """
        self._nonce += 1
        payload = json.dumps(
            {
                "holder": self.node_id,
                "expected": expected,
                "nonce": self._nonce,
            },
            sort_keys=True,
        ).encode()
        generation, _stats = self.client.put_checkpoint(
            self.lease_id,
            payload,
            meta={"holder": self.node_id, "expected_epoch": expected},
        )
        mine = next(
            (c for c in self.history() if c.epoch == generation), None
        )
        if mine is None or not mine.valid:
            current = self.read()
            raise LeaseLostError(
                f"{self.node_id} claimed expecting epoch {expected} but "
                f"{current.holder!r} validly holds epoch {current.epoch}",
                epoch=current.epoch,
                holder=current.holder,
            )
        return generation

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
