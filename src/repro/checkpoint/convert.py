"""Data-representation conversion (paper §3.2.1).

Checkpoints are written in the saving machine's native representation;
conversion happens on restart and only when the architectures differ:

* endianness: decoding the file with the source byte order already
  yields correct *word values*, but string and double payloads are
  byte-oriented, so their words must be repacked for the target's
  in-memory byte order (tag-directed, exactly what the block tags make
  possible);
* word size: every word is re-encoded — immediates preserve their
  numeric value (wrapping with the sign maintained on 64->32, as the
  paper concedes), strings and doubles are re-packed into a different
  number of words, pointers go through the relocation map.
"""

from __future__ import annotations

import numpy as np

from repro.arch.architecture import Architecture, Endianness
from repro.errors import CheckpointFormatError
from repro.memory.values import ValueCodec


def ragged_indices(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat indices of the runs ``[starts[k], starts[k] + lens[k])``.

    The standard repeat/cumsum trick; every ``lens[k]`` must be > 0.
    """
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    if total == lens.size * int(lens[0]) and (lens == lens[0]).all():
        # Equal-sized blocks (cons cells, boxed floats, array rows,
        # strings of one length): one broadcast add.
        return (starts[:, None] + np.arange(int(lens[0]))).reshape(-1)
    steps = np.ones(total, dtype=np.int64)
    cum = np.cumsum(lens)
    steps[0] = starts[0]
    if starts.size > 1:
        steps[cum[:-1]] = starts[1:] - (starts[:-1] + lens[:-1] - 1)
    return np.cumsum(steps)


class ValueConverter:
    """Converts words between a source and a target architecture."""

    def __init__(self, src: Architecture, dst: Architecture) -> None:
        self.src = src
        self.dst = dst
        self.src_values = ValueCodec(src)
        self.dst_values = ValueCodec(dst)

    @property
    def endian_differs(self) -> bool:
        """True when string/double payloads need repacking."""
        return self.src.endianness is not self.dst.endianness

    @property
    def word_size_differs(self) -> bool:
        """True when the heap must be rebuilt block by block."""
        return self.src.bits != self.dst.bits

    @property
    def identity(self) -> bool:
        """True when no conversion at all is needed."""
        return not self.endian_differs and not self.word_size_differs

    # -- scalar conversions ---------------------------------------------------

    def convert_immediate(self, word: int) -> int:
        """Convert a tagged immediate, preserving its numeric value.

        On 64->32 bit the value wraps into the 31-bit range with its
        sign maintained (paper: "in the transition from 64-bit to 32-bit
        some data might be lost ... our conversion mechanism takes care
        to maintain the sign of values").
        """
        if self.src.bits == self.dst.bits:
            return word
        return self.dst_values.val_int(self.src_values.int_val(word))

    def convert_raw(self, word: int) -> int:
        """Convert an opaque word (no-scan payload), sign-extended."""
        if self.src.bits == self.dst.bits:
            return word
        return self.dst.to_unsigned(self.src.to_signed(word))

    # -- batch conversions ----------------------------------------------------

    def convert_raw_array(self, arr: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`convert_raw` over a ``uint64`` array."""
        if self.src.bits == self.dst.bits:
            return arr
        if self.src.bits == 64:  # 64 -> 32: truncate (sign kept mod 2**32)
            return arr & np.uint64(0xFFFFFFFF)
        # 32 -> 64: sign-extend from bit 31.
        return (
            arr.astype(np.uint32).view(np.int32).astype(np.int64).view(np.uint64)
        )

    def convert_immediate_array(self, arr: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`convert_immediate` over a ``uint64`` array.

        ``Val_int(Int_val(w))`` of an odd word is that word's own signed
        value at the new width — the tag bit survives truncation and
        sign extension alike — so this is :meth:`convert_raw_array`.
        Non-immediates in the input are the caller's business.
        """
        return self.convert_raw_array(arr)

    def repack_string_array(self, arr: np.ndarray) -> np.ndarray:
        """Vectorized same-word-size string repack (endian swap).

        The payload's byte *sequence* is the invariant, so with equal
        word sizes each word's bytes simply reverse.  When the word
        size differs the word count changes too:
        :meth:`repack_string_batch`.
        """
        if not self.endian_differs:
            return arr
        if self.src.word_bytes == 8:
            return arr.byteswap()
        return arr.astype(np.uint32).byteswap().astype(np.uint64)

    def string_byte_lengths(
        self,
        last_words: np.ndarray,
        sizes: np.ndarray,
        addrs: np.ndarray | None = None,
    ) -> np.ndarray:
        """Byte lengths of source string blocks of ``sizes`` words, read
        from the pad count in the final byte of each block's last word.

        A pad count no well-formed string can carry (it is always below
        the word size) is a damaged block: :class:`CheckpointFormatError`
        naming the block by ``addrs`` (its source address) when given,
        by its position in the batch otherwise.
        """
        wb = self.src.word_bytes
        shift = 8 * (wb - 1) if self.src.endianness is Endianness.LITTLE else 0
        pad = ((last_words >> np.uint64(shift)) & np.uint64(0xFF)).astype(
            np.int64
        )
        bad = np.flatnonzero(pad >= wb)
        if bad.size:
            k = int(bad[0])
            where = f"#{k} of the batch" if addrs is None else (
                f"at source address {int(addrs[k]):#x}"
            )
            raise CheckpointFormatError(
                f"string block {where} ({int(sizes[k])} words) carries pad "
                f"byte {int(pad[k])}, impossible with {wb}-byte words",
                section="heap",
            )
        return sizes * wb - 1 - pad

    def repack_string_batch(
        self, words: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        """Re-pack string payloads across word sizes.

        The byte *sequence* of each string is the invariant; the word
        values (and here the word counts) change.

        ``words`` holds string payloads back to back, ``sizes[k] >= 1``
        source words each; returns the repacked payloads back to back
        (``blen // dst_word_bytes + 1`` target words each).

        Each block's bytes are copied between the two memory-order byte
        images in 4-byte units: the units covering the data, which
        always fit either block because both reserve a byte past it.
        On the 32-bit side those are all of the block's units, so only
        the 64-bit side is indexed.  Whatever rode along behind the
        data in the last unit is zeroed, then the pad count goes into
        the block's final byte.
        """
        src_wb, dst_wb = self.src.word_bytes, self.dst.word_bytes
        ends = np.cumsum(sizes)
        blen = self.string_byte_lengths(words[ends - 1], sizes)
        nsz = blen // dst_wb + 1
        dst_at = (np.cumsum(nsz) - nsz) * (dst_wb // 4)
        units = blen // 4 + 1
        src = words.astype(self.src.numpy_dtype).view(np.uint32)
        if src_wb == 4:
            out = np.zeros(int(nsz.sum()) * 2, dtype=np.uint32)
            out[ragged_indices(dst_at, units)] = src
        else:
            out = src[ragged_indices((ends - sizes) * 2, units)]
        out_bytes = out.view(np.uint8)
        out_bytes.reshape(-1, 4)[dst_at + blen // 4] *= (
            np.arange(4) < (blen % 4)[:, None]
        )
        out_bytes[4 * dst_at + nsz * dst_wb - 1] = nsz * dst_wb - 1 - blen
        return out.view(self.dst.numpy_dtype).astype(np.uint64)

    def repack_double_array(self, arr: np.ndarray) -> np.ndarray:
        """Vectorized same-word-size double repack (endian swap).

        A 64-bit double word holds the IEEE bit pattern as a value, so
        its cross-endian repack is the identity at the word-value level.
        On 32-bit the pattern spans two words in memory order, so the
        pair's word *values* swap places.
        """
        if not self.endian_differs or self.src.word_bytes == 8:
            return arr
        out = np.empty_like(arr)
        out[0::2] = arr[1::2]
        out[1::2] = arr[0::2]
        return out

    def double_pattern_array(self, arr: np.ndarray) -> np.ndarray:
        """IEEE bit patterns (one ``uint64`` each) of a double payload.

        ``arr`` is the concatenated payload words of same-sized double
        blocks in the *source* representation.
        """
        if self.src.word_bytes == 8:
            return arr
        if self.src.endianness is Endianness.LITTLE:
            lo, hi = arr[0::2], arr[1::2]
        else:
            hi, lo = arr[0::2], arr[1::2]
        return lo | (hi << np.uint64(32))

    def double_words_from_patterns(self, patterns: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`double_pattern_array`, for the *target*."""
        if self.dst.word_bytes == 8:
            return patterns
        lo = patterns & np.uint64(0xFFFFFFFF)
        hi = patterns >> np.uint64(32)
        out = np.empty(patterns.size * 2, dtype=np.uint64)
        if self.dst.endianness is Endianness.LITTLE:
            out[0::2], out[1::2] = lo, hi
        else:
            out[0::2], out[1::2] = hi, lo
        return out
