"""The VM stack (paper §2.1).

Allocated at VM initialization with a small default size (the paper's
OCVM uses 16 KiB) and reallocated at double the size when it fills up.
The stack grows *downward* from ``stack_high`` like OCVM's: ``sp`` starts
at the high end and decreases on push.  Values on the stack are tagged
words plus raw code addresses in return frames, exactly the mix the
restart pointer-fixing pass must classify.
"""

from __future__ import annotations

from repro.arch.architecture import Architecture
from repro.errors import VMRuntimeError
from repro.memory.layout import AddressSpace, AreaKind, MemoryArea

#: Default stack size in words (16 K words, cf. the paper's 16 K default).
DEFAULT_STACK_WORDS = 4 * 1024


class VMStack:
    """A downward-growing VM stack with doubling reallocation."""

    def __init__(
        self,
        space: AddressSpace,
        arch: Architecture,
        base: int,
        n_words: int = DEFAULT_STACK_WORDS,
        label: str = "stack",
        max_words: int = 1 << 24,
        kind: AreaKind = AreaKind.STACK,
    ) -> None:
        self.space = space
        self.arch = arch
        self._wb = arch.word_bytes
        self._wshift = arch.word_bytes.bit_length() - 1
        self._base = base
        self.max_words = max_words
        self._initial_words = n_words
        self.label = label
        self._bind_area(MemoryArea(kind, base, n_words, arch, label=label))
        space.map(self.area)
        #: Stack pointer: byte address of the current top-of-stack slot.
        self.sp = self.stack_high
        #: Number of resizes performed (exposed for tests/metrics).
        self.realloc_count = 0
        #: Dirty hook for incremental checkpoints: called whenever the
        #: stack is reallocated (its area moves).  Set by the VM.
        self.on_grow = None

    def _bind_area(self, area: MemoryArea) -> None:
        """Install an area and refresh the push/pop fast-path cache.

        Stack areas are always list-backed (never staged), and every
        mutation goes through the same list object, so caching the list
        plus the [low, high) geometry lets push/pop/peek/poke index it
        directly instead of re-locating the area per access.
        """
        self.area = area
        self._words = area.words
        self._low = area.base
        self._high = area.end

    # -- geometry -----------------------------------------------------------

    @property
    def stack_low(self) -> int:
        """Lowest usable byte address (overflow boundary)."""
        return self.area.base

    @property
    def stack_high(self) -> int:
        """One-past-the-top byte address; ``sp == stack_high`` means empty."""
        return self.area.end

    @property
    def used_words(self) -> int:
        """Number of words currently on the stack."""
        return (self.stack_high - self.sp) // self._wb

    @property
    def n_words(self) -> int:
        """Current capacity in words."""
        return self.area.n_words

    # -- operations -----------------------------------------------------------

    def push(self, value: int) -> None:
        """Push one word, growing the stack if necessary."""
        sp = self.sp - self._wb
        if sp < self._low:
            self._grow()
            sp = self.sp - self._wb
        self.sp = sp
        self._words[(sp - self._low) >> self._wshift] = value

    def pop(self) -> int:
        """Pop one word."""
        sp = self.sp
        if sp >= self._high:
            raise VMRuntimeError("VM stack underflow")
        self.sp = sp + self._wb
        return self._words[(sp - self._low) >> self._wshift]

    def popn(self, n: int) -> None:
        """Discard ``n`` words."""
        if self.sp + n * self._wb > self._high:
            raise VMRuntimeError("VM stack underflow")
        self.sp += n * self._wb

    def peek(self, n: int = 0) -> int:
        """Read the word ``n`` slots below the top (0 = top of stack)."""
        addr = self.sp + n * self._wb
        if addr >= self._high:
            raise VMRuntimeError(f"stack peek {n} beyond stack bottom")
        if addr < self._low:
            return self.area.load(addr)  # SegmentationFault, as before
        return self._words[(addr - self._low) >> self._wshift]

    def poke(self, n: int, value: int) -> None:
        """Write the word ``n`` slots below the top."""
        addr = self.sp + n * self._wb
        if addr >= self._high:
            raise VMRuntimeError(f"stack poke {n} beyond stack bottom")
        if addr < self._low:
            self.area.store(addr, value)  # SegmentationFault, as before
            return
        self._words[(addr - self._low) >> self._wshift] = value

    def reserve(self, n: int) -> None:
        """Ensure ``n`` more words can be pushed without reallocation."""
        while self.sp - n * self._wb < self.stack_low:
            self._grow()

    def used_slice(self) -> list[int]:
        """The live words, from top of stack to bottom."""
        first = (self.sp - self.area.base) // self._wb
        return self.area.words[first:]

    def reset(self) -> None:
        """Back to the stack a fresh VM starts with: empty, zeroed, at
        its initial capacity (a restart that reuses this VM refills it
        exactly as it would fill a new one)."""
        self.sp = self.stack_high
        if self.area.n_words != self._initial_words:
            self.replace_capacity(self._initial_words)
        else:
            self._words[:] = [0] * self._initial_words
        self.realloc_count = 0

    # -- growth ------------------------------------------------------------------

    def _grow(self) -> None:
        """Reallocate at double size, preserving contents and re-basing sp.

        Mirrors the paper: "If the stack becomes full, OCVM reallocates a
        new stack with double the size of the old one."  The used region
        keeps its distance from ``stack_high``; the base address does not
        change (the area grows downward in place).
        """
        old_words = self.area.n_words
        new_words = old_words * 2
        if new_words > self.max_words:
            raise VMRuntimeError(f"{self.label} overflow (limit reached)")
        self.replace_capacity(new_words)

    def replace_capacity(self, new_words: int) -> None:
        """Install a new capacity, preserving the used region.

        Also used by restart when the checkpointed stack was larger than
        the freshly initialized one (paper §4.2 step 7).
        """
        used = self.used_slice()
        if new_words < len(used):
            raise VMRuntimeError(
                f"cannot shrink {self.label} below its live contents"
            )
        high = self.stack_high  # invariant: the high end never moves
        self.space.unmap(self.area)
        new_base = high - new_words * self._wb
        if new_base < 0:
            raise VMRuntimeError(f"{self.label} cannot grow further")
        area = MemoryArea(
            self.area.kind, new_base, new_words, self.arch, label=self.label
        )
        # The high end stays put; copy the used region under it.
        for i, w in enumerate(used):
            area.words[new_words - len(used) + i] = w
        self.space.map(area)
        self._bind_area(area)
        self.sp = self.stack_high - len(used) * self._wb
        self.realloc_count += 1
        if self.on_grow is not None:
            self.on_grow()
