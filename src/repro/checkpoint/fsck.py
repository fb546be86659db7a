"""Verify-and-repair for checkpoint files (``repro fsck``).

Verification is local: the v3 section table pins down *which* bytes are
damaged.  Repair uses a store replica — the chunk manifests the store
already keeps (PR 2) address the payload in fixed-size chunks, so a
single flipped bit re-fetches one 64 KiB chunk, not the whole
checkpoint.  When surgical patching cannot work (truncation, a damaged
trailer, a v1/v2 file with no section table, or patching failed to
converge), fsck falls back to re-fetching the entire replica payload.

Every repair re-verifies the result before committing it (atomically,
through the same journal + rename protocol checkpoints use) and is
counted in :data:`repro.metrics.INTEGRITY`.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Protocol

from repro.checkpoint.commit import atomic_commit
from repro.checkpoint.schema import FormatProfile, SnapshotSource
from repro.errors import RestartError, StoreError
from repro.metrics import INTEGRITY


class ReplicaSource(Protocol):
    """Where repairs come from: a chunk manifest plus chunk fetches."""

    def manifest(self, vm_id: str, generation: Optional[int]):
        """Return the :class:`~repro.store.chunkstore.Manifest`."""

    def chunk(self, key: str) -> bytes:
        """Return one verified chunk payload."""


class LocalStoreSource:
    """Repair from a :class:`~repro.store.chunkstore.ChunkStore` directory."""

    def __init__(self, store) -> None:
        self.store = store

    def manifest(self, vm_id: str, generation: Optional[int]):
        return self.store.read_manifest(vm_id, generation)

    def chunk(self, key: str) -> bytes:
        return self.store.get_object(key)

    def generations(self, vm_id: str) -> list[int]:
        return list(self.store.generations(vm_id))


class ClientSource:
    """Repair from a running store (one daemon or a fleet) via :class:`FleetClient`."""

    def __init__(self, client) -> None:
        self.client = client

    def manifest(self, vm_id: str, generation: Optional[int]):
        return self.client.get_manifest(vm_id, generation)

    def chunk(self, key: str) -> bytes:
        return self.client.get_chunk(key)

    def generations(self, vm_id: str) -> list[int]:
        listing = self.client.ls(vm_id).get("vms", {}).get(vm_id, [])
        return sorted(g["generation"] for g in listing)


def verify_checkpoint_bytes(data: bytes) -> list[dict]:
    """All detectable problems in a checkpoint image (empty = healthy).

    Where the v3 section table survives, each CRC-failing section is
    reported individually with its byte range — the shopping list the
    repair path works from.  Structural failures (truncation, bad
    magic, an unreadable trailer) yield a single whole-file problem
    with ``section``/``offset`` taken from the parse error.
    """
    return _verify(data)[0]


def _verify(data: bytes):
    """``(problems, snapshot)``: the snapshot is parsed iff no problem."""
    problems: list[dict] = []
    src = SnapshotSource.from_bytes(data, tolerant=True)
    if src.handles is not None:
        # The section table survived: probe every handle's extent
        # individually — each failing CRC is one repairable range.
        for s in src.handles:
            actual = src.section_crc(s)
            if actual != s.crc32:
                problems.append(
                    {
                        "section": s.name,
                        "offset": s.offset,
                        "length": s.length,
                        "expected": f"{s.crc32:08x}",
                        "actual": f"{actual:08x}",
                        "error": (
                            f"section '{s.name}' CRC mismatch "
                            f"(bytes {s.offset}..{s.end})"
                        ),
                    }
                )
        if problems:
            return problems, None
    try:
        return problems, src.resolve_all()
    except RestartError as e:
        problems.append(
            {
                "section": getattr(e, "section", None),
                "offset": getattr(e, "offset", None),
                "length": None,
                "error": str(e),
            }
        )
    return problems, None


def _patch_from_chunks(
    data: bytearray,
    ranges: list[tuple[int, int]],
    manifest,
    source: ReplicaSource,
) -> int:
    """Overwrite the chunks covering ``ranges`` with replica bytes.

    Returns the number of chunks fetched.  Only valid when the replica
    payload has the same length as the damaged file (same generation).
    """
    cs = manifest.chunk_size
    needed: set[int] = set()
    for offset, length in ranges:
        first = offset // cs
        last = (offset + max(length, 1) - 1) // cs
        needed.update(range(first, min(last, len(manifest.chunks) - 1) + 1))
    for i in sorted(needed):
        chunk = source.chunk(manifest.chunks[i])
        data[i * cs : i * cs + len(chunk)] = chunk
    return len(needed)


def fsck_checkpoint(
    path: str,
    repair: bool = False,
    source: Optional[ReplicaSource] = None,
    vm_id: Optional[str] = None,
    generation: Optional[int] = None,
) -> dict:
    """Verify ``path``; with ``repair`` and a replica, fix it in place.

    Returns a JSON-able report::

        {"path", "ok", "problems": [...], "action", "sections_repaired",
         "chunks_fetched"}

    ``action`` is ``"none"`` (healthy or no repair requested),
    ``"patched"`` (damaged sections re-fetched chunk-wise),
    ``"refetched"`` (whole payload replaced from the replica), or
    ``"unrepairable"``.
    """
    report: dict = {
        "path": path,
        "ok": False,
        "problems": [],
        "action": "none",
        "sections_repaired": 0,
        "chunks_fetched": 0,
    }
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        report["problems"] = [{"error": f"cannot read {path}: {e}"}]
        data = b""
        if not (repair and source is not None):
            return report
    else:
        report["problems"] = verify_checkpoint_bytes(data)
        report["ok"] = not report["problems"]
        if report["ok"] or not repair:
            return report
    if source is None or vm_id is None:
        report["problems"].append(
            {"error": "repair requires a store replica (--addr/--store-root "
                      "and --vm-id)"}
        )
        return report
    try:
        manifest = source.manifest(vm_id, generation)
    except StoreError as e:
        report["problems"].append({"error": f"replica unavailable: {e}"})
        return report

    sectional = [
        (p["offset"], p["length"])
        for p in report["problems"]
        if p.get("length") is not None and p.get("offset") is not None
    ]
    if sectional and len(data) == manifest.payload_len:
        patched = bytearray(data)
        try:
            report["chunks_fetched"] = _patch_from_chunks(
                patched, sectional, manifest, source
            )
        except StoreError as e:
            report["problems"].append({"error": f"chunk fetch failed: {e}"})
            patched = None
        if patched is not None and not verify_checkpoint_bytes(
            bytes(patched)
        ):
            atomic_commit(path, bytes(patched))
            report["ok"] = True
            report["action"] = "patched"
            report["sections_repaired"] = len(sectional)
            INTEGRITY.sections_repaired += len(sectional)
            return report

    # Surgical patching impossible or insufficient: replace wholesale.
    try:
        payload = b"".join(source.chunk(k) for k in manifest.chunks)
    except StoreError as e:
        report["problems"].append({"error": f"replica fetch failed: {e}"})
        report["action"] = "unrepairable"
        return report
    if (
        len(payload) != manifest.payload_len
        or hashlib.sha256(payload).hexdigest() != manifest.payload_sha256
    ):
        report["problems"].append(
            {"error": "replica payload fails its own manifest digest"}
        )
        report["action"] = "unrepairable"
        return report
    remaining = verify_checkpoint_bytes(payload)
    if remaining:
        report["problems"].append(
            {"error": "replica payload is itself a damaged checkpoint"}
        )
        report["action"] = "unrepairable"
        return report
    atomic_commit(path, payload)
    report["ok"] = True
    report["action"] = "refetched"
    report["sections_repaired"] = len(sectional) or 1
    INTEGRITY.sections_repaired += report["sections_repaired"]
    return report


# ---------------------------------------------------------------------------
# The chain check: a full checkpoint is a chain of one link
# ---------------------------------------------------------------------------


def _chain_link_report(path: str) -> dict:
    """Verify one chain link and extract its chain identity."""
    entry: dict = {
        "path": path,
        "kind": "unknown",
        "ok": False,
        "problems": [],
        "action": "none",
        "body_sha256": None,
        "parent_sha256": None,
    }
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        entry["problems"] = [{"error": f"cannot read {path}: {e}"}]
        return entry
    # The magic alone decides the kind, so discovery keeps walking past
    # a link too damaged to parse, and a damaged base is named as such.
    profile = FormatProfile.for_magic(data[: FormatProfile.magic_len()], None)
    if profile is not None:
        entry["kind"] = "delta" if profile.delta else "full"
    entry["problems"], snap = _verify(data)
    entry["ok"] = not entry["problems"]
    if snap is not None:
        if snap.body_sha256 is not None:
            entry["body_sha256"] = snap.body_sha256.hex()
        if snap.delta is not None:
            entry["parent_sha256"] = snap.delta.parent_sha256.hex()
    return entry


def _chain_generations(
    source: Optional[ReplicaSource],
    vm_id: Optional[str],
    links: list[dict],
    head_generation: Optional[int],
) -> list[Optional[int]]:
    """Store generations aligned to the local chain, head first.

    A chain of one link is repaired from ``head_generation`` (``None``:
    the latest), so it reads no manifest here.  A longer chain is
    aligned two ways: any locally verifiable link is matched to a store
    generation by its own body SHA, and the damaged gaps in between are
    filled by following the ``parent_sha256`` -> ``body_sha256`` links
    the HA supervisor records in manifest meta.  Sources or uploads
    without that meta can only locate the head.
    """
    chain: list[Optional[int]] = [head_generation] + [None] * (len(links) - 1)
    gen_of = getattr(source, "generations", None)
    if len(links) == 1 or gen_of is None or vm_id is None:
        return chain
    try:
        gens = list(gen_of(vm_id))
    except StoreError:
        gens = []
    if not gens:
        return chain
    metas: dict[int, dict] = {}
    for g in gens:
        try:
            metas[g] = source.manifest(vm_id, g).meta or {}
        except StoreError:
            metas[g] = {}
    used: set[int] = set()

    def by_body(sha: Optional[str]) -> Optional[int]:
        cands = [
            g
            for g in gens
            if sha and g not in used and metas[g].get("body_sha256") == sha
        ]
        return max(cands) if cands else None

    if chain[0] is None:
        chain[0] = by_body(links[0]["body_sha256"])
    if chain[0] is None and all(e["body_sha256"] is None for e in links):
        # Nothing verifies locally and no explicit generation: assume
        # the store's newest generation is the chain head.
        chain[0] = max(gens)
    if chain[0] is not None:
        used.add(chain[0])
    for idx in range(1, len(links)):
        g = by_body(links[idx]["body_sha256"])
        if g is None:
            # The link itself is unreadable; find it through what its
            # child recorded as the parent SHA — the locally verified
            # child binding if available, otherwise the store meta of
            # the child's generation.
            psha = links[idx - 1].get("parent_sha256")
            if not psha and chain[idx - 1] is not None:
                psha = metas.get(chain[idx - 1], {}).get("parent_sha256")
            g = by_body(psha)
        chain[idx] = g
        if g is not None:
            used.add(g)
    return chain


def fsck_chain(
    path: str,
    repair: bool = False,
    source: Optional[ReplicaSource] = None,
    vm_id: Optional[str] = None,
    generation: Optional[int] = None,
) -> dict:
    """Verify ``path`` and, for a v4 delta head, its whole parent chain.

    A full checkpoint is a chain of one link, so this is the one check
    ``repro fsck`` runs.  Each link gets its own verification report
    plus a binding check (every delta's recorded parent SHA must match
    the next generation's body SHA).  Repair runs base-first, one
    :func:`fsck_checkpoint` per damaged link, whose ``action`` the link
    keeps: a delta is only repaired once everything beneath it verifies
    — patching a delta whose base is unverifiable would manufacture a
    chain that merges into garbage, so that repair is refused instead.
    """
    from repro.checkpoint.reader import MAX_DELTA_CHAIN, next_generation_path

    report: dict = {
        "path": path,
        "ok": False,
        "kind": "full",
        "chain_depth": 0,
        "links": [],
        "action": "none",
        "sections_repaired": 0,
        "chunks_fetched": 0,
    }
    p = path
    for _ in range(MAX_DELTA_CHAIN + 1):
        entry = _chain_link_report(p)
        report["links"].append(entry)
        if entry["kind"] != "delta":
            break
        p = next_generation_path(p)
    else:
        last = report["links"][-1]
        last["ok"] = False
        last["problems"].append(
            {"error": f"delta chain deeper than {MAX_DELTA_CHAIN} links"}
        )
    links = report["links"]
    report["kind"] = "delta" if links[0]["kind"] == "delta" else "full"
    report["chain_depth"] = len(links) - 1

    if repair and not all(e["ok"] for e in links):
        gens = _chain_generations(source, vm_id, links, generation)
        deeper_ok = True  # everything beneath the current link verifies
        for idx in range(len(links) - 1, -1, -1):
            entry = links[idx]
            if entry["ok"]:
                continue
            if not deeper_ok:
                entry["problems"].append(
                    {
                        "error": "repair refused: this delta's base chain "
                        "is unverifiable",
                    }
                )
                report["action"] = "refused"
                continue
            if gens[idx] is None and idx > 0:
                entry["problems"].append(
                    {"error": "no store generation locatable for this link"}
                )
                deeper_ok = False
                report["action"] = "unrepairable"
                continue
            sub = fsck_checkpoint(
                entry["path"],
                repair=True,
                source=source,
                vm_id=vm_id,
                generation=gens[idx],
            )
            report["sections_repaired"] += sub["sections_repaired"]
            report["chunks_fetched"] += sub["chunks_fetched"]
            if sub["ok"]:
                entry = links[idx] = _chain_link_report(entry["path"])
                if report["action"] == "none":
                    report["action"] = "repaired"
            else:
                entry["problems"] = sub["problems"]
                deeper_ok = False
                report["action"] = "unrepairable"
            entry["action"] = sub["action"]

    # Binding verification over the (possibly repaired) files.
    for child, parent in zip(links, links[1:]):
        if (
            child.get("parent_sha256")
            and parent.get("body_sha256")
            and child["parent_sha256"] != parent["body_sha256"]
        ):
            child["ok"] = False
            child["problems"].append(
                {
                    "error": (
                        f"chain binding mismatch: {child['path']} expects "
                        f"parent body SHA {child['parent_sha256'][:16]}... "
                        f"but {parent['path']} has "
                        f"{parent['body_sha256'][:16]}..."
                    ),
                }
            )
    report["ok"] = all(e["ok"] for e in links)
    report["problems"] = [
        dict(prob, link=e["path"]) for e in links for prob in e["problems"]
    ]
    return report
