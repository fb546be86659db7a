"""Declarative checkpoint schema: section codecs + format profiles.

The one description of the checkpoint file format.  Each body section
is a registered :class:`~repro.checkpoint.schema.registry.SectionCodec`
(name, id, wire layout, capability flags, inspection and fuzzing
hooks); each on-disk version v1-v4 is a
:class:`~repro.checkpoint.schema.profiles.FormatProfile` composed from
the registry.  The writer, reader, fsck, inspect, fault injectors,
store metadata, CLI, and the ``docs/FILE_FORMAT.md`` tables all derive
from this package — version-number branching anywhere else fails
``scripts/check_no_version_ladders.py``.
"""

from repro.checkpoint.schema.registry import (
    SectionCodec,
    SnapshotBuilder,
    all_codecs,
    get,
    register,
)
from repro.checkpoint.schema import sections as _sections  # registers codecs
from repro.checkpoint.schema.profiles import FormatProfile
from repro.checkpoint.schema.source import (
    ChunkSlice,
    ImageDigest,
    SectionHandle,
    SnapshotSource,
)

del _sections

__all__ = [
    "ChunkSlice",
    "FormatProfile",
    "ImageDigest",
    "SectionCodec",
    "SectionHandle",
    "SnapshotBuilder",
    "SnapshotSource",
    "all_codecs",
    "get",
    "register",
]
