"""Format profiles: one declarative composition per on-disk version.

A :class:`FormatProfile` names the sections a version carries (in body
order) and the capabilities that distinguish versions — whether the
body may carry the v2 block-extent index, whether the v3 integrity
trailer follows the body, whether the heap is a v4 delta, and whether
the version can anchor a delta chain.  The writer, reader, fsck,
inspect, fuzzing, and store metadata all consume these flags; nothing
outside this package compares version numbers (a lint enforces it).

Adding a format v5 is one more profile here plus any new section
codecs — no other module changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional

from repro.checkpoint.schema import registry
from repro.errors import CheckpointFormatError

if TYPE_CHECKING:  # pragma: no cover
    from repro.checkpoint.format import SectionReader, SectionWriter, VMSnapshot

#: Body order when every section is present; profiles subset this.
_FULL_ORDER = (
    "header",
    "boundaries",
    "globals",
    "heap",
    "index",
    "atoms",
    "cglobals",
    "threads",
    "channels",
)


@dataclass(frozen=True)
class FormatProfile:
    """One checkpoint format version, composed from the codec registry."""

    version: int
    magic: bytes
    #: Section names in body order (subset of the registry).
    section_names: tuple
    #: May carry the optional v2 block-extent index section.
    block_index: bool = False
    #: Body is followed by the per-section CRC table + SHA-256 trailer.
    integrity_trailer: bool = False
    #: The heap section holds dirty regions bound to a parent generation
    #: (delta checkpoint) instead of full chunk dumps.
    delta: bool = False
    #: Files of this version can anchor a delta chain: they record the
    #: body SHA-256 a child delta's parent binding verifies against.
    delta_base_capable: bool = False

    # -- registry composition -----------------------------------------------

    @cached_property
    def codecs(self) -> tuple:
        """The section codecs of this profile, in body order."""
        return tuple(registry.get(n) for n in self.section_names)

    @property
    def magic_repr(self) -> str:
        """Printable form of the magic, e.g. ``HCKP\\x03\\x00``."""
        return "".join(
            chr(c) if 0x20 <= c < 0x7F else f"\\x{c:02x}" for c in self.magic
        )

    # -- lookup ---------------------------------------------------------------

    @classmethod
    def all(cls) -> tuple:
        """Every known profile, oldest first."""
        return _PROFILES

    @classmethod
    def for_version(cls, version: int) -> "FormatProfile":
        for p in _PROFILES:
            if p.version == version:
                return p
        raise CheckpointFormatError(
            f"cannot write format version {version}"
        )

    @classmethod
    def for_magic(
        cls, magic: bytes, default: object = CheckpointFormatError
    ) -> Optional["FormatProfile"]:
        """The profile a magic identifies.

        With the default sentinel a bad magic raises the same typed
        error the parser always reported; pass ``default=None`` (or any
        value) for best-effort detection.
        """
        for p in _PROFILES:
            if p.magic == magic:
                return p
        if default is CheckpointFormatError:
            raise CheckpointFormatError(
                "not a checkpoint file (bad magic)", section="header", offset=0
            )
        return default  # type: ignore[return-value]

    @classmethod
    def for_snapshot(cls, snap: "VMSnapshot") -> "FormatProfile":
        """The profile a snapshot serializes under, with delta checks."""
        profile = cls.for_version(snap.header.format_version)
        if profile.delta and snap.delta is None:
            raise CheckpointFormatError(
                f"format v{profile.version} is delta-only: snapshot "
                f"carries no delta info"
            )
        if not profile.delta and snap.delta is not None:
            raise CheckpointFormatError(
                f"delta snapshots require format "
                f"v{cls.delta_profile().version} (asked for "
                f"v{profile.version})"
            )
        return profile

    @classmethod
    def delta_profile(cls) -> "FormatProfile":
        """The profile delta checkpoints are written under."""
        for p in _PROFILES:
            if p.delta:
                return p
        raise CheckpointFormatError("no delta-capable format profile")

    @classmethod
    def newest_full(cls) -> "FormatProfile":
        """The newest non-delta profile (merged chains present as it)."""
        return max(
            (p for p in _PROFILES if not p.delta), key=lambda p: p.version
        )

    @classmethod
    def magic_len(cls) -> int:
        return len(_PROFILES[0].magic)

    # -- body encode/decode ---------------------------------------------------

    def write_body(self, snap: "VMSnapshot") -> "SectionWriter":
        """Encode every section of this profile; returns the writer."""
        from repro.checkpoint.format import SectionWriter

        w = SectionWriter(snap.arch)
        for codec in self.codecs:
            w.begin_section(codec.name)
            codec.encode(w, snap, self)
        return w

    def parse_body(self, r: "SectionReader") -> "VMSnapshot":
        """Decode every section of this profile from ``r``."""
        b = registry.SnapshotBuilder()
        for codec in self.codecs:
            r.begin(codec.name)
            codec.decode(r, b, self)
        return b.build(self)

    # -- introspection --------------------------------------------------------

    def describe(self) -> dict:
        """A JSON-able description (docs, ``repro schema dump``)."""
        return {
            "version": self.version,
            "magic": self.magic_repr,
            "block_index": self.block_index,
            "integrity_trailer": self.integrity_trailer,
            "delta": self.delta,
            "delta_base_capable": self.delta_base_capable,
            "sections": [c.describe(self) for c in self.codecs],
        }

    def mutation_targets(self) -> list:
        """Fuzzing hints for every section of this profile."""
        out = []
        for codec in self.codecs:
            out.extend(codec.mutation_targets(self))
        return out


def _sections(block_index: bool) -> tuple:
    return tuple(
        n for n in _FULL_ORDER if n != "index" or block_index
    )


_PROFILES = (
    FormatProfile(
        version=1,
        magic=b"HCKP\x01\x00",
        section_names=_sections(block_index=False),
    ),
    FormatProfile(
        version=2,
        magic=b"HCKP\x02\x00",
        section_names=_sections(block_index=True),
        block_index=True,
    ),
    FormatProfile(
        version=3,
        magic=b"HCKP\x03\x00",
        section_names=_sections(block_index=True),
        block_index=True,
        integrity_trailer=True,
        delta_base_capable=True,
    ),
    FormatProfile(
        version=4,
        magic=b"HCKP\x04\x00",
        section_names=_sections(block_index=True),
        block_index=True,
        integrity_trailer=True,
        delta=True,
        delta_base_capable=True,
    ),
)
