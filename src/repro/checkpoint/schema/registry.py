"""The section-codec registry.

Every named section of the checkpoint file is one :class:`SectionCodec`
registered here: the codec owns the section's byte layout (encode and
decode against :class:`~repro.checkpoint.format.SectionWriter` /
:class:`~repro.checkpoint.format.SectionReader`), its capability flags,
a :meth:`~SectionCodec.describe` record the docs and ``repro schema
dump`` render from, and :meth:`~SectionCodec.mutation_targets` hints for
the fault injectors.  A format version is a
:class:`~repro.checkpoint.schema.profiles.FormatProfile` composed from
these codecs — adding a section means registering one codec, not
touching seven modules.

Decoding runs against a :class:`SnapshotBuilder`: each codec fills the
fields it owns, and :meth:`SnapshotBuilder.build` assembles the final
:class:`~repro.checkpoint.format.VMSnapshot` once every section of the
profile has run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.checkpoint.format import SectionReader, SectionWriter, VMSnapshot
    from repro.checkpoint.schema.profiles import FormatProfile


class SectionCodec:
    """One checkpoint section: identity, capabilities, encode/decode."""

    #: Section name — the ``begin_section`` mark, the v3 section-table
    #: row name, and the ``section`` attribute on typed errors.
    name: str = ""
    #: Stable numeric id (for tooling; never serialized in the body).
    sid: int = 0
    #: Covered by a per-section CRC32 row when the profile carries the
    #: integrity trailer (every body section is; the flag exists so
    #: fuzzing targets and docs read it off the codec, not a list).
    crc_protected: bool = True
    #: The payload changes representation under a delta profile (dirty
    #: regions instead of full dumps).
    delta_capable: bool = False
    #: Led by a one-byte presence marker under a delta profile (the
    #: section may be omitted and reconstruction walks the chain back).
    presence_gated: bool = False

    # -- wire format --------------------------------------------------------

    def encode(self, w: "SectionWriter", snap: "VMSnapshot",
               profile: "FormatProfile") -> None:
        raise NotImplementedError

    def decode(self, r: "SectionReader", b: "SnapshotBuilder",
               profile: "FormatProfile") -> None:
        raise NotImplementedError

    # -- capabilities -------------------------------------------------------

    def presence_gated_in(self, profile: "FormatProfile") -> bool:
        """Whether this profile frames the section with a presence byte."""
        return self.presence_gated and profile.delta

    def flags(self, profile: "FormatProfile") -> list[str]:
        """The capability flags active for this section under ``profile``."""
        out = []
        if self.crc_protected and profile.integrity_trailer:
            out.append("crc_protected")
        if self.delta_capable and profile.delta:
            out.append("delta_capable")
        if self.presence_gated_in(profile):
            out.append("presence_gated")
        return out

    # -- introspection ------------------------------------------------------

    def layout(self, profile: "FormatProfile") -> list[tuple[str, str, str]]:
        """``(field, type, note)`` rows describing the wire layout."""
        return []

    def describe(self, profile: "FormatProfile") -> dict:
        """A JSON-able description (drives docs and ``repro schema dump``)."""
        return {
            "name": self.name,
            "id": self.sid,
            "flags": self.flags(profile),
            "layout": [
                {"field": f, "type": t, "note": n}
                for f, t, n in self.layout(profile)
            ],
        }

    def mutation_targets(self, profile: "FormatProfile") -> list[dict]:
        """Fuzzing hints: how the fault injectors may damage this section.

        ``swap_eligible`` marks sections whose contents may be exchanged
        with another section's (both must be CRC-protected for the swap
        to be *detectable* rather than silently restorable).
        """
        return [
            {
                "section": self.name,
                "crc_protected": self.crc_protected
                and profile.integrity_trailer,
                "swap_eligible": self.crc_protected
                and profile.integrity_trailer,
                "presence_gated": self.presence_gated_in(profile),
            }
        ]


#: name -> codec singleton, in registration order (which IS body order).
_REGISTRY: dict[str, SectionCodec] = {}


def register(codec_cls: type) -> type:
    """Class decorator: instantiate and register a section codec."""
    codec = codec_cls()
    if not codec.name:
        raise ValueError(f"{codec_cls.__name__} has no section name")
    if codec.name in _REGISTRY:
        raise ValueError(f"duplicate section codec {codec.name!r}")
    if any(c.sid == codec.sid for c in _REGISTRY.values()):
        raise ValueError(f"duplicate section id {codec.sid}")
    _REGISTRY[codec.name] = codec
    return codec_cls


def get(name: str) -> SectionCodec:
    """The registered codec for section ``name``."""
    return _REGISTRY[name]


def all_codecs() -> dict[str, SectionCodec]:
    """Every registered codec, keyed by name, in registration order."""
    return dict(_REGISTRY)


class SnapshotBuilder:
    """Mutable decode context threaded through the section codecs."""

    def __init__(self) -> None:
        # header
        self.word_bytes = 0
        self.endianness = None
        self.platform_name = ""
        self.os_name = ""
        self.multithreaded = False
        self.current_tid = 0
        self.code_digest = b""
        self.code_len = 0
        # v4 header extension
        self.parent_sha = b""
        self.chain_depth = 0
        self.dirty_words = 0
        self.total_words = 0
        # boundaries / globals
        self.boundaries: list = []
        self.freelist_head = 0
        self.global_data = 0
        self.allocated_words = 0
        # heap (full or delta) — n_chunks is shared with the index codec
        self.n_chunks = 0
        self.heap_chunks: list = []
        self.delta_chunks: list = []
        self.chunk_index: Optional[list] = None
        # atoms / C globals (presence-gated under delta profiles)
        self.has_atoms = True
        self.atom_words: list = []
        self.has_cglobals = True
        self.cglobal_words: list = []
        self.cglobal_roots: list = []
        # threads / channels
        self.threads: list = []
        self.channels: list = []

    def build(self, profile: "FormatProfile") -> "VMSnapshot":
        """Assemble the snapshot once every section has decoded."""
        from repro.checkpoint.format import (
            CheckpointHeader,
            DeltaInfo,
            VMSnapshot,
        )

        header = CheckpointHeader(
            word_bytes=self.word_bytes,
            endianness=self.endianness,
            platform_name=self.platform_name,
            os_name=self.os_name,
            multithreaded=self.multithreaded,
            current_tid=self.current_tid,
            code_digest=self.code_digest,
            code_len=self.code_len,
            format_version=profile.version,
        )
        delta = None
        if profile.delta:
            delta = DeltaInfo(
                parent_sha256=self.parent_sha,
                chain_depth=self.chain_depth,
                dirty_words=self.dirty_words,
                total_words=self.total_words,
                has_atoms=self.has_atoms,
                has_cglobals=self.has_cglobals,
                chunks=self.delta_chunks,
            )
        return VMSnapshot(
            header=header,
            boundaries=self.boundaries,
            freelist_head=self.freelist_head,
            global_data=self.global_data,
            allocated_words=self.allocated_words,
            heap_chunks=self.heap_chunks,
            atom_words=self.atom_words,
            cglobal_words=self.cglobal_words,
            cglobal_roots=self.cglobal_roots,
            threads=self.threads,
            channels=self.channels,
            chunk_index=self.chunk_index,
            delta=delta,
        )
