"""Seedable corruption and crash injectors.

Three families:

* **Byte mutations** (:class:`Mutation`, :func:`plan_mutations`,
  :func:`apply_mutation`) damage a finished checkpoint file the way a
  dying disk or a buggy transport would: truncation, bit flips, and
  swapped section contents.
* **Commit-hook injectors** (:class:`CrashHooks`,
  :class:`FailFsyncHooks`, :class:`TornRenameHooks`) plug into
  :class:`repro.checkpoint.commit.CommitHooks` to kill the atomic
  commit protocol at a chosen step, fail its fsyncs, or tear its
  rename, the way a power cut would.
* **Transport injectors** (:class:`FlakySocket`) wrap a connected
  socket and damage the *message* stream the way a congested or
  partitioned network would: dropped, delayed, duplicated, and
  reordered sends, plus a switchable blackhole partition.  Both the
  store protocol and the replication channel write one frame per send
  call — ``sendall``, or one scatter ``sendmsg`` for a big frame — so
  frame-level faults fall out of call-level ones.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.checkpoint.commit import CommitHooks


class SimulatedCrashError(Exception):
    """Raised by a crash injector at its trigger point.

    Deliberately *not* a :class:`~repro.errors.ReproError`: a real crash
    is not a handleable library error, and nothing in the production
    code paths may catch it — tests and the HA supervisor catch it at
    the same scope a process boundary would.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at commit point '{point}'")
        self.point = point


class CrashHooks(CommitHooks):
    """Die (raise :class:`SimulatedCrashError`) at a named commit point."""

    def __init__(self, crash_at: str) -> None:
        self.crash_at = crash_at
        self.reached: list[str] = []

    def point(self, name: str) -> None:
        self.reached.append(name)
        if name == self.crash_at:
            raise SimulatedCrashError(name)


class FailFsyncHooks(CommitHooks):
    """Make the Nth fsync call fail with EIO, then crash.

    Models a disk that errors on flush: the kernel reported the write,
    the durability barrier failed.  ``crash_after=True`` (default)
    escalates to a simulated crash — the conservative model, since after
    an fsync EIO the page cache state is undefined.
    """

    def __init__(self, fail_on: int = 1, crash_after: bool = True) -> None:
        self.fail_on = fail_on
        self.crash_after = crash_after
        self.calls = 0

    def fsync(self, fd: int) -> None:
        self.calls += 1
        if self.calls == self.fail_on:
            if self.crash_after:
                raise SimulatedCrashError(f"fsync#{self.calls}")
            raise OSError(5, "Input/output error (injected)")
        os.fsync(fd)


class TornRenameHooks(CommitHooks):
    """Tear the final rename: leave a prefix of the new file at ``dst``.

    No POSIX rename actually does this, but a copy-based "rename" across
    filesystems (or a cheap NFS server) can — and it is the nastiest
    artifact a restore can meet: a *plausible* head generation that is
    silently short.  ``keep_fraction`` controls how much survives.
    """

    def __init__(self, keep_fraction: float = 0.5) -> None:
        if not 0.0 <= keep_fraction < 1.0:
            raise ValueError("keep_fraction must be in [0, 1)")
        self.keep_fraction = keep_fraction
        self.torn = False

    def replace(self, src: str, dst: str) -> None:
        if self.torn or not src.endswith(".tmp"):
            os.replace(src, dst)
            return
        self.torn = True
        with open(src, "rb") as f:
            data = f.read()
        with open(dst, "wb") as f:
            f.write(data[: int(len(data) * self.keep_fraction)])
        os.unlink(src)
        raise SimulatedCrashError("torn_rename")


# ---------------------------------------------------------------------------
# Transport faults
# ---------------------------------------------------------------------------


class FlakySocket:
    """A seedable lossy wrapper around a connected socket.

    Every ``sendall`` or ``sendmsg`` call — one protocol frame, for both
    RSTP and the replication channel — is independently subjected to:

    * ``drop`` — silently discarded (the peer never sees it),
    * ``duplicate`` — sent twice back to back,
    * ``reorder`` — held back and emitted *after* the next send,
    * ``delay`` — sleep up to ``delay_max`` seconds before sending.

    Probabilities are evaluated in that order from one seeded RNG, so a
    given (seed, call sequence) misbehaves identically on every run.
    :meth:`partition` switches to a blackhole: sends vanish and reads
    starve (the caller's socket timeout is how a partition is *felt*),
    with no FIN/RST — exactly what a yanked cable looks like.

    Reads (``recv``, ``recv_into``) are only starved by a partition;
    everything else (``settimeout``, ``close``, ...) passes through, so
    a ``FlakySocket`` drops in anywhere a socket is used.
    """

    def __init__(
        self,
        sock: socket.socket,
        seed: int = 0,
        drop: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        delay: float = 0.0,
        delay_max: float = 0.005,
    ) -> None:
        for name, p in (("drop", drop), ("duplicate", duplicate),
                        ("reorder", reorder), ("delay", delay)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1]")
        self._sock = sock
        self._rng = random.Random(seed)
        self.drop = drop
        self.duplicate = duplicate
        self.reorder = reorder
        self.delay = delay
        self.delay_max = delay_max
        self._held: Optional[bytes] = None
        self._partitioned = threading.Event()
        #: Audit trail: what the wrapper did to each send, in order.
        self.events: list[str] = []

    # -- fault switchboard -------------------------------------------------

    def partition(self, on: bool = True) -> None:
        """Blackhole the link (both directions) until switched back."""
        if on:
            self._partitioned.set()
        else:
            self._partitioned.clear()

    @property
    def partitioned(self) -> bool:
        return self._partitioned.is_set()

    # -- the faulty data path ----------------------------------------------

    def sendall(self, data) -> None:
        data = bytes(data)
        if self._partitioned.is_set():
            self.events.append("blackhole")
            return  # swallowed: the kernel would buffer, the wire loses it
        roll = self._rng.random()
        if roll < self.drop:
            self.events.append("drop")
            self._flush_held()
            return
        if roll < self.drop + self.duplicate:
            self.events.append("duplicate")
            self._flush_held()
            self._sock.sendall(data + data)
            return
        if roll < self.drop + self.duplicate + self.reorder:
            # Hold this frame back; it goes out after the next one.
            self.events.append("hold")
            prev, self._held = self._held, data
            if prev is not None:
                self._sock.sendall(prev)
            return
        if roll < self.drop + self.duplicate + self.reorder + self.delay:
            self.events.append("delay")
            time.sleep(self._rng.uniform(0.0, self.delay_max))
        else:
            self.events.append("pass")
        self._sock.sendall(data)
        self._flush_held()

    def sendmsg(self, buffers) -> int:
        """A scatter send is one frame: dropped, duplicated, held back
        or delayed whole, exactly like one ``sendall``."""
        data = b"".join(buffers)
        self.sendall(data)
        return len(data)

    def _flush_held(self) -> None:
        if self._held is not None:
            held, self._held = self._held, None
            self.events.append("release-held")
            self._sock.sendall(held)

    def _await_link(self) -> None:
        """Starve the reader while partitioned, the way a dead link
        would: honor the socket timeout instead of returning EOF."""
        if not self._partitioned.is_set():
            return
        timeout = self._sock.gettimeout()
        if timeout is None:
            while self._partitioned.is_set():
                time.sleep(0.01)
            return
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self._partitioned.is_set():
                return
            time.sleep(0.005)
        raise socket.timeout("partitioned")

    def recv(self, n: int) -> bytes:
        self._await_link()
        return self._sock.recv(n)

    def recv_into(self, buffer, nbytes: int = 0) -> int:
        self._await_link()
        return self._sock.recv_into(buffer, nbytes)

    # -- passthrough -------------------------------------------------------

    def settimeout(self, value) -> None:
        self._sock.settimeout(value)

    def gettimeout(self):
        return self._sock.gettimeout()

    def setsockopt(self, *args) -> None:
        self._sock.setsockopt(*args)

    def fileno(self) -> int:
        return self._sock.fileno()

    def shutdown(self, how: int) -> None:
        self._sock.shutdown(how)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "FlakySocket":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Byte mutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mutation:
    """One deterministic corruption of a byte string.

    ``kind``:

    * ``"truncate"`` — drop everything from ``offset``.
    * ``"bitflip"`` — flip bit ``bit`` of the byte at ``offset``.
    * ``"section-swap"`` — exchange ``length`` bytes at ``offset`` with
      the ``length`` bytes at ``other`` (models sections written out of
      order, or two DMA buffers landing swapped).
    """

    kind: str
    offset: int
    bit: int = 0
    length: int = 0
    other: int = 0

    def describe(self) -> str:
        if self.kind == "truncate":
            return f"truncate at byte {self.offset}"
        if self.kind == "bitflip":
            return f"flip bit {self.bit} of byte {self.offset}"
        return (
            f"swap {self.length} bytes at {self.offset} with {self.other}"
        )


def apply_mutation(data: bytes, m: Mutation) -> bytes:
    """Return ``data`` with mutation ``m`` applied (input untouched)."""
    if m.kind == "truncate":
        return data[: m.offset]
    buf = bytearray(data)
    if m.kind == "bitflip":
        buf[m.offset] ^= 1 << m.bit
        return bytes(buf)
    if m.kind == "section-swap":
        a, b, n = m.offset, m.other, m.length
        buf[a : a + n], buf[b : b + n] = buf[b : b + n], buf[a : a + n]
        return bytes(buf)
    raise ValueError(f"unknown mutation kind {m.kind!r}")


def _swap_eligible_sections() -> set[str]:
    """Section names the schema marks safe to swap *detectably*.

    Derived from :meth:`FormatProfile.mutation_targets` over every
    registered profile: a swap between two CRC-protected sections must
    be caught by the integrity trailer, so those are the interesting
    targets.  Sections the schema does not know (e.g. a future trailer
    row) are excluded rather than guessed at.
    """
    from repro.checkpoint.schema import FormatProfile

    eligible: set[str] = set()
    for profile in FormatProfile.all():
        for target in profile.mutation_targets():
            if target["swap_eligible"]:
                eligible.add(target["section"])
    return eligible


def plan_mutations(
    size: int,
    seed: int,
    count: int,
    section_table: Optional[list] = None,
) -> list[Mutation]:
    """Deterministic plan of ``count`` mutations for a ``size``-byte file.

    Mixes the three kinds roughly 40/40/20.  When a v3 ``section_table``
    (list of :class:`~repro.checkpoint.format.SectionEntry`) is given,
    section swaps exchange the heads of two real sections — restricted
    to the sections the checkpoint schema marks ``swap_eligible`` — and
    a share of the truncations land exactly on section boundaries — the
    offsets the hardening satellite cares most about.
    """
    rng = random.Random(seed)
    plans: list[Mutation] = []
    sections = [s for s in (section_table or []) if s.length > 0]
    swappable = (
        [s for s in sections if s.name in _swap_eligible_sections()]
        if sections
        else []
    )
    for _ in range(count):
        roll = rng.random()
        if roll < 0.4:
            if sections and rng.random() < 0.5:
                s = rng.choice(sections)
                off = s.offset if rng.random() < 0.5 else s.end
                off = min(off, size - 1)
            else:
                off = rng.randrange(1, size)
            plans.append(Mutation("truncate", off))
        elif roll < 0.8 or len(swappable) < 2:
            off = rng.randrange(size)
            plans.append(Mutation("bitflip", off, bit=rng.randrange(8)))
        else:
            a, b = rng.sample(swappable, 2)
            n = min(a.length, b.length, 1 + rng.randrange(64))
            plans.append(
                Mutation("section-swap", a.offset, length=n, other=b.offset)
            )
    return plans


def mutate_bytes(data: bytes, seed: int, count: int = 1) -> list[bytes]:
    """Convenience: plan + apply against ``data`` (section-aware when the
    file carries a v3 trailer)."""
    from repro.checkpoint.format import read_section_table

    plans = plan_mutations(
        len(data), seed, count, section_table=read_section_table(data)
    )
    return [apply_mutation(data, m) for m in plans]
