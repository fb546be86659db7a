"""The code image: a portable program file plus its in-memory mapping.

Code units are always 32 bits and serialized little-endian, so the same
program file loads on every platform (like OCaml ``.byc`` files).  In a
running VM the image is mapped at the platform's ``code_base``; code
addresses are ``code_base + 4 * unit_index`` and appear inside closures
and return frames — the restart logic re-bases them without scaling.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.errors import BytecodeError

#: Code addressing granularity in bytes, on every architecture.
CODE_UNIT_BYTES = 4

_MAGIC = b"RBYC\x01"
_UNIT_MASK = 0xFFFFFFFF


class CodeImage:
    """An immutable byte-code program.

    Its attributes cannot be rebound and its units are a tuple, so the
    digest every checkpoint header, restore, fold and ``HELLO`` compares
    is computed once.
    """

    def __init__(
        self,
        units: list[int],
        name: str = "<anonymous>",
        n_globals: int = 0,
        string_literals: list[bytes] | None = None,
        float_literals: list[float] | None = None,
    ) -> None:
        init = super().__setattr__
        #: Code units, stored unsigned.
        init("units", tuple(self._validated_units(units)))
        #: Lazily built decoded stream (see :meth:`decoded`); shared by
        #: every VM and restart on this image, so re-decoding is paid
        #: exactly once per program load.
        init("_decoded", None)
        init("_digest", None)
        init("name", name)
        #: Size of the global-data block the program expects.
        init("n_globals", n_globals)
        #: Literal pools referenced by STRLIT / FLOATLIT.
        init("string_literals", list(string_literals or []))
        init("float_literals", list(float_literals or []))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"CodeImage is immutable (cannot set {name!r})")

    @staticmethod
    def _validated_units(units: list[int]) -> list[int]:
        """Range-check and mask every unit to unsigned 32-bit.

        Vectorized: one numpy pass instead of a Python loop per unit,
        which dominates image-load time for large programs.  Falls back
        to the scalar path for tiny images and for exotic inputs numpy
        cannot hold (ints beyond 64 bits — always out of range, but the
        error must name the offender).
        """
        n = len(units)
        if n >= 32:
            try:
                arr = np.asarray(units, dtype=np.int64)
            except (OverflowError, TypeError, ValueError):
                pass
            else:
                bad = (arr < -(1 << 31)) | (arr >= (1 << 32))
                if bad.any():
                    offender = int(arr[int(np.argmax(bad))])
                    raise BytecodeError(
                        f"code unit {offender} out of 32-bit range"
                    )
                return (arr & _UNIT_MASK).tolist()
        out = []
        for u in units:
            if not -(2**31) <= u < 2**32:
                raise BytecodeError(f"code unit {u} out of 32-bit range")
            out.append(u & _UNIT_MASK)
        return out

    def decoded(self):
        """The decode-once instruction stream for this image (cached).

        Returns a :class:`repro.bytecode.decoded.DecodedProgram` built
        on first use; repeated ``VirtualMachine`` constructions and
        restarts on the same image reuse it.
        """
        if self._decoded is None:
            from repro.bytecode.decoded import decode_image

            super().__setattr__("_decoded", decode_image(self.units))
        return self._decoded

    def __len__(self) -> int:
        return len(self.units)

    @property
    def size_bytes(self) -> int:
        """Image size in bytes when mapped."""
        return len(self.units) * CODE_UNIT_BYTES

    def digest(self) -> bytes:
        """SHA-256 of the serialized units (computed once).

        Stored in checkpoint files so a restart can verify it is resuming
        the *same program* the checkpoint was taken from.
        """
        if self._digest is None:
            super().__setattr__("_digest", self._compute_digest())
        return self._digest

    def _compute_digest(self) -> bytes:
        h = hashlib.sha256()
        h.update(struct.pack("<I", self.n_globals))
        h.update(struct.pack(f"<{len(self.units)}I", *self.units))
        for s in self.string_literals:
            h.update(struct.pack("<I", len(s)))
            h.update(s)
        for x in self.float_literals:
            h.update(struct.pack("<d", x))
        return h.digest()

    def signed_unit(self, index: int) -> int:
        """Read a unit as a signed 32-bit value (for immediate operands)."""
        u = self.units[index]
        return u - (1 << 32) if u & (1 << 31) else u

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the portable program format."""
        name_raw = self.name.encode()
        parts = [
            _MAGIC,
            struct.pack("<I", len(name_raw)),
            name_raw,
            struct.pack("<II", self.n_globals, len(self.units)),
            struct.pack(f"<{len(self.units)}I", *self.units),
            struct.pack("<I", len(self.string_literals)),
        ]
        for s in self.string_literals:
            parts.append(struct.pack("<I", len(s)))
            parts.append(s)
        parts.append(struct.pack("<I", len(self.float_literals)))
        parts.append(struct.pack(f"<{len(self.float_literals)}d", *self.float_literals))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CodeImage":
        """Load a serialized program."""
        try:
            return cls._from_bytes(data)
        except struct.error as exc:
            raise BytecodeError(f"truncated byte-code image: {exc}") from None

    @classmethod
    def _from_bytes(cls, data: bytes) -> "CodeImage":
        if data[: len(_MAGIC)] != _MAGIC:
            raise BytecodeError("not a byte-code image (bad magic)")
        off = len(_MAGIC)
        (name_len,) = struct.unpack_from("<I", data, off)
        off += 4
        name = data[off : off + name_len].decode()
        off += name_len
        n_globals, n_units = struct.unpack_from("<II", data, off)
        off += 8
        expected = off + n_units * CODE_UNIT_BYTES
        if len(data) < expected:
            raise BytecodeError("truncated byte-code image")
        units = list(struct.unpack_from(f"<{n_units}I", data, off))
        off = expected
        (n_strs,) = struct.unpack_from("<I", data, off)
        off += 4
        strs: list[bytes] = []
        for _ in range(n_strs):
            (slen,) = struct.unpack_from("<I", data, off)
            off += 4
            strs.append(data[off : off + slen])
            off += slen
        (n_floats,) = struct.unpack_from("<I", data, off)
        off += 4
        floats = list(struct.unpack_from(f"<{n_floats}d", data, off))
        return cls(units, name, n_globals, strs, floats)
