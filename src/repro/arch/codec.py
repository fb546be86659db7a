"""Vectorized encoding of word arrays to/from native byte streams.

The checkpoint writer dumps whole memory areas; doing that one word at a
time would dominate checkpoint cost in Python, so the codec goes through
numpy: a list of Python ints becomes a numpy array with the architecture's
dtype (which performs the byte swap for big-endian layouts in C) and is
then written with ``tobytes``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arch.architecture import Architecture


class WordCodec:
    """Encode/decode sequences of machine words for one architecture."""

    def __init__(self, arch: Architecture) -> None:
        self.arch = arch
        self._dtype = np.dtype(arch.numpy_dtype)

    def encode(self, words: Sequence[int]) -> bytes:
        """Serialize ``words`` into the architecture's native byte layout."""
        arr = np.asarray(words, dtype=np.uint64) & np.uint64(self.arch.word_mask)
        return arr.astype(self._dtype).tobytes()

    def decode(self, data: bytes) -> list[int]:
        """Deserialize a native byte stream back into a list of words."""
        return self.decode_array(data).tolist()

    def encode_array(self, arr: np.ndarray) -> bytes:
        """Serialize a word array (any unsigned dtype) into native bytes."""
        if arr.dtype == self._dtype:
            return arr.tobytes()
        wide = arr.astype(np.uint64) & np.uint64(self.arch.word_mask)
        return wide.astype(self._dtype).tobytes()

    def decode_array(self, data: bytes) -> np.ndarray:
        """Deserialize a native byte stream into a ``uint64`` array."""
        if len(data) % self.arch.word_bytes:
            raise ValueError(
                f"byte stream length {len(data)} is not a multiple of the "
                f"word size {self.arch.word_bytes}"
            )
        return np.frombuffer(data, dtype=self._dtype).astype(np.uint64)

    def byteswapped(self, data: bytes) -> bytes:
        """Return ``data`` with every word's bytes reversed.

        This is the raw operation behind little<->big endian conversion of
        a dumped memory area; per-tag fix-ups (strings keep their byte
        order) are applied on top by :mod:`repro.checkpoint.convert`.
        """
        arr = np.frombuffer(data, dtype=self._dtype)
        return arr.byteswap().tobytes()
