"""Root enumeration (paper §2.4.1: "roots — all the mutator's pointers").

The collectors see roots as *slots*: locations holding a value that can
be read and overwritten (a minor collection moves objects, so every root
must be updatable).  Root sources are the interpreter registers, all
thread stacks, the global-data pointer and registered C-global slots;
:class:`MutatorRoots` assembles them for the collectors, which know it
only as a :class:`RootProvider`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Protocol

from repro.memory.layout import MemoryArea

if TYPE_CHECKING:  # pragma: no cover
    from repro.interpreter.interpreter import Interpreter
    from repro.memory.cglobals import CGlobalArea
    from repro.threads.scheduler import Scheduler


class Slot(Protocol):
    """A mutable location holding one VM value."""

    def load(self) -> int:
        """Read the value."""
        ...

    def store(self, value: int) -> None:
        """Overwrite the value."""
        ...


class AttrSlot:
    """A root held in a Python attribute (e.g. the ACCU register)."""

    __slots__ = ("obj", "name")

    def __init__(self, obj: object, name: str) -> None:
        self.obj = obj
        self.name = name

    def load(self) -> int:
        return getattr(self.obj, self.name)

    def store(self, value: int) -> None:
        setattr(self.obj, self.name, value)


class AreaSlot:
    """A root held in a word of a memory area (e.g. a stack slot)."""

    __slots__ = ("area", "index")

    def __init__(self, area: MemoryArea, index: int) -> None:
        self.area = area
        self.index = index

    def load(self) -> int:
        return self.area.words[self.index]

    def store(self, value: int) -> None:
        self.area.words[self.index] = value


class ListSlot:
    """A root held in a Python list cell (used by the channel manager)."""

    __slots__ = ("lst", "index")

    def __init__(self, lst: list[int], index: int) -> None:
        self.lst = lst
        self.index = index

    def load(self) -> int:
        return self.lst[self.index]

    def store(self, value: int) -> None:
        self.lst[self.index] = value


class RootProvider(Protocol):
    """Anything that can enumerate GC root slots."""

    def iter_roots(self) -> Iterator[Slot]:
        """Yield every root slot of the mutator."""
        ...


def stack_slots(area: MemoryArea, sp: int) -> Iterable[AreaSlot]:
    """Slots for the used region of a downward-growing stack.

    Return addresses and saved environments live among the values; the
    collectors filter by pointer classification, exactly as OCVM's stack
    scan does.
    """
    first = (sp - area.base) // (area.word_bytes)
    for i in range(first, len(area.words)):
        yield AreaSlot(area, i)


class MutatorRoots:
    """The root set of one VM, over the parts that hold the roots.

    The collectors keep their root provider for life, and the VM owns
    the collectors: handing them the VM itself would tie the two into a
    reference cycle.  This names exactly what a collection scans — the
    interpreter's registers, the threads and their stacks, the
    registered C globals and the primitives' temporaries.
    """

    def __init__(
        self,
        interp: "Interpreter",
        sched: "Scheduler",
        cglobals: "CGlobalArea",
        temp_roots: list[int],
    ) -> None:
        self.interp = interp
        self.sched = sched
        self.cglobals = cglobals
        self.temp_roots = temp_roots

    def iter_roots(self) -> Iterator[Slot]:
        """Every mutator root: registers, thread state, stacks, globals."""
        interp = self.interp
        yield AttrSlot(interp, "accu")
        yield AttrSlot(interp, "env")
        yield AttrSlot(interp, "global_data")
        current = self.sched.current
        for t in self.sched.threads.values():
            if t is not current:
                yield AttrSlot(t, "accu")
                yield AttrSlot(t, "env")
            if t.blocked_on_is_value:
                yield AttrSlot(t, "blocked_on")
            yield AttrSlot(t, "pending_mutex")
            yield AttrSlot(t, "result")
            yield from stack_slots(t.stack.area, t.stack.sp)
        area = self.cglobals.area
        for idx in self.cglobals.root_indices:
            yield AreaSlot(area, idx)
        for i in range(len(self.temp_roots)):
            yield ListSlot(self.temp_roots, i)
