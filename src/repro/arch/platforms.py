"""The paper's Table 1: simulated machines used for heterogeneous C/R.

Each :class:`Platform` bundles an architecture, an OS personality, and a
base-address layout for the VM memory areas.  Distinct platforms use
distinct base addresses, so even a same-architecture restart exercises the
pointer-adjustment machinery — just as a real restart lands the heap at a
different ``malloc`` address.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.arch.architecture import (
    ARCH_32_BE,
    ARCH_32_LE,
    ARCH_64_BE,
    ARCH_64_LE,
    Architecture,
)


class OSFamily(enum.Enum):
    """Operating-system personality, as far as checkpointing cares."""

    LINUX = "linux"
    SOLARIS = "solaris"
    AIX = "aix"
    WINDOWS_NT = "windows-nt"
    TRU64 = "tru64"

    @property
    def supports_fork(self) -> bool:
        """NT has no ``fork``; checkpoints there block the application."""
        return self is not OSFamily.WINDOWS_NT


@dataclass(frozen=True)
class AddressLayout:
    """Base virtual addresses for the VM's main memory areas.

    The numbers are arbitrary but page-aligned and far apart; they play the
    role of the ``malloc`` return values on the paper's machines.  Pointer
    adjustment during restart maps addresses from the checkpointing
    platform's layout to the restarting platform's layout.
    """

    heap_base: int = 0x0800_0000
    minor_base: int = 0x0400_0000
    stack_base: int = 0x0200_0000
    code_base: int = 0x0100_0000
    atom_base: int = 0x00F0_0000
    cglobal_base: int = 0x00E0_0000
    thread_stack_base: int = 0x2000_0000
    #: Stride between consecutive heap chunk bases.
    chunk_stride: int = 0x0010_0000
    #: Stride between consecutive thread stack bases.
    thread_stride: int = 0x0004_0000

    def shifted(self, delta: int) -> "AddressLayout":
        """A copy of this layout with every base shifted by ``delta``."""
        return AddressLayout(
            heap_base=self.heap_base + delta,
            minor_base=self.minor_base + delta,
            stack_base=self.stack_base + delta,
            code_base=self.code_base + delta,
            atom_base=self.atom_base + delta,
            cglobal_base=self.cglobal_base + delta,
            thread_stack_base=self.thread_stack_base + delta,
            chunk_stride=self.chunk_stride,
            thread_stride=self.thread_stride,
        )


@dataclass(frozen=True)
class Platform:
    """One row of the paper's Table 1: a machine we can run the VM on."""

    name: str
    arch: Architecture
    os: OSFamily
    description: str = ""
    layout: AddressLayout = field(default_factory=AddressLayout)

    @property
    def supports_fork(self) -> bool:
        """Whether checkpoint can run concurrently with the application."""
        return self.os.supports_fork

    def describe(self) -> str:
        """One-line description in the style of the paper's Table 1."""
        return (
            f"{self.name}: {self.arch.describe()}, {self.os.value}"
            + (f" — {self.description}" if self.description else "")
        )


def _layout(seed: int) -> AddressLayout:
    # Page-aligned, platform-specific shift so that no two platforms map
    # any area at the same base address.
    return AddressLayout().shifted(seed * 0x0001_0000)


#: Intel Pentium II running Linux RedHat 6.1 — the checkpointing machine in
#: the paper's experiments.
RODRIGO = Platform(
    "rodrigo", ARCH_32_LE, OSFamily.LINUX,
    "Intel Pentium II, Linux RedHat 6.1 (checkpoint origin)", _layout(1),
)
#: Intel Pentium II running Windows NT — same architecture, different OS,
#: and no ``fork``.
PC8 = Platform(
    "pc8", ARCH_32_LE, OSFamily.WINDOWS_NT,
    "Intel Pentium II, Windows NT (no fork: blocking checkpoints)", _layout(2),
)
#: Dual UltraSparc running Solaris — big-endian, so restarting here
#: converts every non-pointer word.
CSD = Platform(
    "csd", ARCH_32_BE, OSFamily.SOLARIS,
    "Sun Ultra Enterprise (dual), Solaris — big-endian", _layout(3),
)
#: Dual Alpha running Linux RedHat 6.2 — 64-bit, so restarting here widens
#: every word.
SP2148 = Platform(
    "sp2148", ARCH_64_LE, OSFamily.LINUX,
    "Compaq Alpha (dual), Linux RedHat 6.2 — 64-bit", _layout(4),
)
#: IBM RS/6000 running AIX — big-endian PowerPC.
RS6000 = Platform(
    "rs6000", ARCH_32_BE, OSFamily.AIX,
    "IBM RS/6000, AIX — big-endian", _layout(5),
)
#: A 64-bit big-endian UltraSparc, exercising both conversions at once.
ULTRA64 = Platform(
    "ultra64", ARCH_64_BE, OSFamily.SOLARIS,
    "Sun UltraSparc (64-bit kernel), Solaris — big-endian 64-bit", _layout(6),
)

#: All simulated platforms, keyed by name (the reproduction of Table 1).
PLATFORMS: dict[str, Platform] = {
    p.name: p for p in (RODRIGO, PC8, CSD, SP2148, RS6000, ULTRA64)
}


def get_platform(name: str | Platform) -> Platform:
    """Look up a platform by its Table 1 machine name (a
    :class:`Platform` passes through, so callers take either)."""
    if isinstance(name, Platform):
        return name
    try:
        return PLATFORMS[name]
    except KeyError:
        known = ", ".join(sorted(PLATFORMS))
        raise KeyError(f"unknown platform {name!r}; known: {known}") from None
