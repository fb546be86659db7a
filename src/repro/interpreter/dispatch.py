"""The fast dispatch tier: operand-bound handler closures.

The reference loop (kept verbatim in
:meth:`repro.interpreter.interpreter.Interpreter._run_reference` as the
differential oracle) pays, per instruction: an opcode fetch, a table
lookup, a bounds test, and one ``_fetch`` attribute chain per operand.
This module compiles the decode-once stream of
:mod:`repro.bytecode.decoded` into per-instruction *closures* with the
operands (and, where possible, fully tagged values) bound at build
time, so the hot loop is ``pc = handler()`` and nothing else.

The pc protocol: a *sealed* closure returns the next canonical
code-unit index (usually a bind-time constant), so the hot path never
touches the ``Interpreter.pc`` attribute at all.  Closures that
delegate to reference handlers position ``pc`` on their operands
first and return whatever the handler left in it, which keeps complex
control flow (calls, raises, thread switches, the C_CALL yield
rewind) reference-identical by construction.  *Stateful* entries
(``counts[i] == 0``: batched kernels and escape slots) communicate
through the live ``pc``/``instructions``/``_countdown`` fields
instead — the loop writes them back before the call, and the entry
accounts for what it executes with ``Interpreter._advance``, never
past ``Interpreter._limit``.

Three layers, all preserving canonical code-unit ``pc`` semantics:

* **Singles** — one closure per instruction start.  Ops without a
  specialized factory get the generic reference-handler wrapper.
* **Superinstructions** — fused closures for the planned hot groups.
  The group members keep their individual entries, so branches, trap
  returns and restored checkpoints landing *inside* a fused region
  execute the canonical singles.
* **Batched loop kernels** — counted loops over global int refs run N
  iterations per dispatch with numpy, bounded by the preemption
  countdown so quantum ticks and pending checkpoints keep firing at
  loop back-edges, and by the instruction budget so a slice ends on
  its exact instruction.  Any surprise (non-int cell, aliased refs,
  value near the boxed-int range, a budget that ends mid-iteration)
  falls back to single-step execution, whose semantics are exact.

Every slot that is not a decodable instruction start carries an
*escape* closure that performs one reference-style fetch/dispatch, so
even misaligned jumps behave exactly as the reference loop would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.bytecode.decoded import (
    CountedLoopPlan,
    DecodedInstruction,
    FUSIBLE_INNER,
    StrideLoopPlan,
)
from repro.bytecode.opcodes import Op
from repro.errors import BytecodeError, MemoryError_

if TYPE_CHECKING:  # pragma: no cover
    from repro.interpreter.interpreter import Interpreter

__all__ = ["FastCode", "build_fast_code"]

#: Universal tagged constants (identical on every architecture; see
#: :class:`repro.memory.values.ValueCodec`).
_VAL_FALSE = 1   # == val_unit
_VAL_TRUE = 3

#: Hard cap on a single kernel batch (bounds numpy temporaries; the
#: preemption countdown is normally the binding limit).
_MAX_BATCH = 1 << 16


class FastCode:
    """The bound program: one closure and one canonical count per slot.

    ``counts[i]`` is the number of canonical instructions dispatching
    slot ``i`` represents (1 for singles, group size for
    superinstructions); 0 marks a *stateful* entry (batched kernel,
    escape slot, unbound slot) that does its own accounting against
    the live interpreter fields and leaves the next pc in
    ``Interpreter.pc`` instead of returning it.
    """

    __slots__ = ("handlers", "counts")

    def __init__(self, handlers: list, counts: list[int]) -> None:
        self.handlers = handlers
        self.counts = counts


# ---------------------------------------------------------------------------
# Single-instruction closure factories
# ---------------------------------------------------------------------------
#
# Each factory returns a closure for one decoded instruction.  With
# ``nxt`` given, the closure is sealed — it returns the next canonical
# pc; with ``nxt=None`` it is a group inner: no pc involvement at all.


def _f_check_signals(I, e, nxt):
    if nxt is None:
        def h():
            return None
    else:
        def h():
            return nxt
    return h


def _f_acc(I, e, nxt):
    n = e.raw[0]
    if nxt is None:
        def h():
            I.accu = I.stack.peek(n)
    else:
        def h():
            I.accu = I.stack.peek(n)
            return nxt
    return h


def _f_push(I, e, nxt):
    if nxt is None:
        def h():
            I.stack.push(I.accu)
    else:
        def h():
            I.stack.push(I.accu)
            return nxt
    return h


def _f_pushacc(I, e, nxt):
    n = e.raw[0]
    if nxt is None:
        def h():
            s = I.stack
            s.push(I.accu)
            I.accu = s.peek(n)
    else:
        def h():
            s = I.stack
            s.push(I.accu)
            I.accu = s.peek(n)
            return nxt
    return h


def _f_pop(I, e, nxt):
    n = e.raw[0]
    if nxt is None:
        def h():
            I.stack.popn(n)
    else:
        def h():
            I.stack.popn(n)
            return nxt
    return h


def _f_assign(I, e, nxt):
    n = e.raw[0]
    if nxt is None:
        def h():
            I.stack.poke(n, I.accu)
            I.accu = _VAL_FALSE
    else:
        def h():
            I.stack.poke(n, I.accu)
            I.accu = _VAL_FALSE
            return nxt
    return h


def _f_envacc(I, e, nxt):
    n = e.raw[0]
    mem = I._mem
    if nxt is None:
        def h():
            I.accu = mem.field(I.env, n)
    else:
        def h():
            I.accu = mem.field(I.env, n)
            return nxt
    return h


def _f_pushenvacc(I, e, nxt):
    n = e.raw[0]
    mem = I._mem
    if nxt is None:
        def h():
            I.stack.push(I.accu)
            I.accu = mem.field(I.env, n)
    else:
        def h():
            I.stack.push(I.accu)
            I.accu = mem.field(I.env, n)
            return nxt
    return h


def _f_offsetclosure0(I, e, nxt):
    if nxt is None:
        def h():
            I.accu = I.env
    else:
        def h():
            I.accu = I.env
            return nxt
    return h


def _f_constint(I, e, nxt):
    val = I._values.val_int(e.signed(0))  # tagged once, at build time
    if nxt is None:
        def h():
            I.accu = val
    else:
        def h():
            I.accu = val
            return nxt
    return h


def _f_pushconstint(I, e, nxt):
    val = I._values.val_int(e.signed(0))
    if nxt is None:
        def h():
            I.stack.push(I.accu)
            I.accu = val
    else:
        def h():
            I.stack.push(I.accu)
            I.accu = val
            return nxt
    return h


def _f_atom(I, e, nxt):
    t = e.raw[0]
    atoms = I._mem.atoms
    if nxt is None:
        def h():
            I.accu = atoms.atom(t)
    else:
        def h():
            I.accu = atoms.atom(t)
            return nxt
    return h


def _f_pushatom(I, e, nxt):
    t = e.raw[0]
    atoms = I._mem.atoms
    if nxt is None:
        def h():
            I.stack.push(I.accu)
            I.accu = atoms.atom(t)
    else:
        def h():
            I.stack.push(I.accu)
            I.accu = atoms.atom(t)
            return nxt
    return h


def _f_getglobal(I, e, nxt):
    n = e.raw[0]
    mem = I._mem
    if nxt is None:
        def h():
            I.accu = mem.field(I.global_data, n)
    else:
        def h():
            I.accu = mem.field(I.global_data, n)
            return nxt
    return h


def _f_pushgetglobal(I, e, nxt):
    n = e.raw[0]
    mem = I._mem
    if nxt is None:
        def h():
            I.stack.push(I.accu)
            I.accu = mem.field(I.global_data, n)
    else:
        def h():
            I.stack.push(I.accu)
            I.accu = mem.field(I.global_data, n)
            return nxt
    return h


def _f_setglobal(I, e, nxt):
    n = e.raw[0]
    mem = I._mem
    if nxt is None:
        def h():
            mem.set_field(I.global_data, n, I.accu)
            I.accu = _VAL_FALSE
    else:
        def h():
            mem.set_field(I.global_data, n, I.accu)
            I.accu = _VAL_FALSE
            return nxt
    return h


def _f_getfield(I, e, nxt):
    n = e.raw[0]
    mem = I._mem
    if nxt is None:
        def h():
            I.accu = mem.field(I.accu, n)
    else:
        def h():
            I.accu = mem.field(I.accu, n)
            return nxt
    return h


def _f_setfield(I, e, nxt):
    n = e.raw[0]
    mem = I._mem
    if nxt is None:
        def h():
            mem.set_field(I.accu, n, I.stack.pop())
            I.accu = _VAL_FALSE
    else:
        def h():
            mem.set_field(I.accu, n, I.stack.pop())
            I.accu = _VAL_FALSE
            return nxt
    return h


def _f_vectlength(I, e, nxt):
    mem = I._mem
    v = I._values
    if nxt is None:
        def h():
            I.accu = v.val_int(mem.size_of(I.accu))
    else:
        def h():
            I.accu = v.val_int(mem.size_of(I.accu))
            return nxt
    return h


def _f_isint(I, e, nxt):
    if nxt is None:
        def h():
            I.accu = _VAL_TRUE if I.accu & 1 else _VAL_FALSE
    else:
        def h():
            I.accu = _VAL_TRUE if I.accu & 1 else _VAL_FALSE
            return nxt
    return h


def _f_boolnot(I, e, nxt):
    if nxt is None:
        def h():
            I.accu = _VAL_TRUE if I.accu == _VAL_FALSE else _VAL_FALSE
    else:
        def h():
            I.accu = _VAL_TRUE if I.accu == _VAL_FALSE else _VAL_FALSE
            return nxt
    return h


def _f_negint(I, e, nxt):
    v = I._values
    if nxt is None:
        def h():
            I.accu = v.val_int(-v.int_val(I.accu))
    else:
        def h():
            I.accu = v.val_int(-v.int_val(I.accu))
            return nxt
    return h


def _f_offsetint(I, e, nxt):
    k = e.signed(0)
    v = I._values
    if nxt is None:
        def h():
            I.accu = v.val_int(v.int_val(I.accu) + k)
    else:
        def h():
            I.accu = v.val_int(v.int_val(I.accu) + k)
            return nxt
    return h


def _arith(pyop):
    def factory(I, e, nxt):
        v = I._values
        if nxt is None:
            def h():
                I.accu = v.val_int(
                    pyop(v.int_val(I.accu), v.int_val(I.stack.pop()))
                )
        else:
            def h():
                I.accu = v.val_int(
                    pyop(v.int_val(I.accu), v.int_val(I.stack.pop()))
                )
                return nxt
        return h
    return factory


def _rawbit(pyop):
    def factory(I, e, nxt):
        if nxt is None:
            def h():
                I.accu = pyop(I.accu, I.stack.pop())
        else:
            def h():
                I.accu = pyop(I.accu, I.stack.pop())
                return nxt
        return h
    return factory


def _cmp(pyop):
    def factory(I, e, nxt):
        v = I._values
        if nxt is None:
            def h():
                I.accu = (
                    _VAL_TRUE
                    if pyop(v.int_val(I.accu), v.int_val(I.stack.pop()))
                    else _VAL_FALSE
                )
        else:
            def h():
                I.accu = (
                    _VAL_TRUE
                    if pyop(v.int_val(I.accu), v.int_val(I.stack.pop()))
                    else _VAL_FALSE
                )
                return nxt
        return h
    return factory


def _raweq(pyop):
    def factory(I, e, nxt):
        if nxt is None:
            def h():
                I.accu = (
                    _VAL_TRUE if pyop(I.accu, I.stack.pop()) else _VAL_FALSE
                )
        else:
            def h():
                I.accu = (
                    _VAL_TRUE if pyop(I.accu, I.stack.pop()) else _VAL_FALSE
                )
                return nxt
        return h
    return factory


def _f_lslint(I, e, nxt):
    v = I._values
    mask = I._shift_mask
    if nxt is None:
        def h():
            k = v.int_val(I.stack.pop()) & mask
            I.accu = v.val_int(v.int_val(I.accu) << k)
    else:
        def h():
            k = v.int_val(I.stack.pop()) & mask
            I.accu = v.val_int(v.int_val(I.accu) << k)
            return nxt
    return h


def _f_lsrint(I, e, nxt):
    v = I._values
    mask = I._shift_mask
    wmask = I._word_mask
    if nxt is None:
        def h():
            k = v.int_val(I.stack.pop()) & mask
            I.accu = ((I.accu & wmask) >> k) | 1
    else:
        def h():
            k = v.int_val(I.stack.pop()) & mask
            I.accu = ((I.accu & wmask) >> k) | 1
            return nxt
    return h


def _f_asrint(I, e, nxt):
    v = I._values
    mask = I._shift_mask
    asr = I._mem.arch.asr
    if nxt is None:
        def h():
            k = v.int_val(I.stack.pop()) & mask
            I.accu = asr(I.accu, k) | 1
    else:
        def h():
            k = v.int_val(I.stack.pop()) & mask
            I.accu = asr(I.accu, k) | 1
            return nxt
    return h


def _f_makeblock(I, e, nxt):
    size, tag = e.raw[0], e.raw[1]
    mem = I._mem
    if size == 0:
        atoms = mem.atoms
        if nxt is None:
            def h():
                I.accu = atoms.atom(tag)
        else:
            def h():
                I.accu = atoms.atom(tag)
                return nxt
        return h

    def body():
        block = mem.alloc(size, tag)
        # Read accu only after the allocation: a GC may have moved it.
        mem.init_field(block, 0, I.accu)
        pop = I.stack.pop
        for i in range(1, size):
            mem.init_field(block, i, pop())
        I.accu = block

    if nxt is None:
        h = body
    else:
        def h():
            body()
            return nxt
    return h


def _f_strlit(I, e, nxt):
    data = I._code.string_literals[e.raw[0]]
    mem = I._mem
    if nxt is None:
        def h():
            I.accu = mem.make_string(data)
    else:
        def h():
            I.accu = mem.make_string(data)
            return nxt
    return h


def _f_floatlit(I, e, nxt):
    x = I._code.float_literals[e.raw[0]]
    mem = I._mem
    if nxt is None:
        def h():
            I.accu = mem.make_float(x)
    else:
        def h():
            I.accu = mem.make_float(x)
            return nxt
    return h


# Tail-only closures: ops that transfer control (APPLY) or may raise a
# catchable VM exception (GETVECTITEM/SETVECTITEM).  They are in
# FUSIBLE_TAIL but not FUSIBLE_INNER — by the time they run, every
# earlier group member has committed, so the raise path observes
# canonical state.  On the raise path they position ``pc`` exactly
# where the reference wrapper would have left it before delegating to
# ``raise_runtime``, then return whatever pc ``do_raise`` produced.

def _f_apply(I, e, nxt):
    n1 = e.raw[0] - 1
    mem = I._mem
    after = e.next

    def h():
        closure = I.accu
        I.extra_args = n1
        I.pc = after  # reference-identical state if the address is bad
        target = I.code_index(mem.field(closure, 0))
        I.env = closure
        return target
    return h


def _f_getvectitem(I, e, nxt):
    mem = I._mem
    v = I._values
    after = e.next

    def h():
        index = v.int_val(I.stack.pop())
        block = I.accu
        if 0 <= index < mem.size_of(block):
            I.accu = mem.field(block, index)
            return after
        I.pc = after
        I.raise_runtime("Invalid_argument: index out of bounds")
        return I.pc
    return h


def _f_setvectitem(I, e, nxt):
    mem = I._mem
    v = I._values
    after = e.next

    def h():
        s = I.stack
        index = v.int_val(s.pop())
        value = s.pop()
        block = I.accu
        if 0 <= index < mem.size_of(block):
            mem.set_field(block, index, value)
            I.accu = _VAL_FALSE
            return after
        I.pc = after
        I.raise_runtime("Invalid_argument: index out of bounds")
        return I.pc
    return h


# Branch closures (return whichever successor they choose; group-tail
# capable).

def _f_branch(I, e, nxt):
    t = e.targets[0]

    def h():
        return t
    return h


def _f_branchif(I, e, nxt):
    t = e.targets[0]
    f = e.next

    def h():
        return f if I.accu == _VAL_FALSE else t
    return h


def _f_branchifnot(I, e, nxt):
    t = e.targets[0]
    f = e.next

    def h():
        return t if I.accu == _VAL_FALSE else f
    return h


FACTORIES = {
    int(Op.CHECK_SIGNALS): _f_check_signals,
    int(Op.ACC): _f_acc,
    int(Op.PUSH): _f_push,
    int(Op.PUSHACC): _f_pushacc,
    int(Op.POP): _f_pop,
    int(Op.ASSIGN): _f_assign,
    int(Op.ENVACC): _f_envacc,
    int(Op.PUSHENVACC): _f_pushenvacc,
    int(Op.OFFSETCLOSURE0): _f_offsetclosure0,
    int(Op.CONSTINT): _f_constint,
    int(Op.PUSHCONSTINT): _f_pushconstint,
    int(Op.ATOM): _f_atom,
    int(Op.PUSHATOM): _f_pushatom,
    int(Op.GETGLOBAL): _f_getglobal,
    int(Op.PUSHGETGLOBAL): _f_pushgetglobal,
    int(Op.SETGLOBAL): _f_setglobal,
    int(Op.GETFIELD): _f_getfield,
    int(Op.SETFIELD): _f_setfield,
    int(Op.VECTLENGTH): _f_vectlength,
    int(Op.ISINT): _f_isint,
    int(Op.BOOLNOT): _f_boolnot,
    int(Op.NEGINT): _f_negint,
    int(Op.OFFSETINT): _f_offsetint,
    int(Op.ADDINT): _arith(lambda a, b: a + b),
    int(Op.SUBINT): _arith(lambda a, b: a - b),
    int(Op.MULINT): _arith(lambda a, b: a * b),
    int(Op.ANDINT): _rawbit(lambda a, b: a & b),
    int(Op.ORINT): _rawbit(lambda a, b: a | b),
    int(Op.XORINT): _rawbit(lambda a, b: (a ^ b) | 1),
    int(Op.LSLINT): _f_lslint,
    int(Op.LSRINT): _f_lsrint,
    int(Op.ASRINT): _f_asrint,
    int(Op.EQ): _raweq(lambda a, b: a == b),
    int(Op.NEQ): _raweq(lambda a, b: a != b),
    int(Op.LTINT): _cmp(lambda a, b: a < b),
    int(Op.LEINT): _cmp(lambda a, b: a <= b),
    int(Op.GTINT): _cmp(lambda a, b: a > b),
    int(Op.GEINT): _cmp(lambda a, b: a >= b),
    int(Op.MAKEBLOCK): _f_makeblock,
    int(Op.STRLIT): _f_strlit,
    int(Op.FLOATLIT): _f_floatlit,
    int(Op.BRANCH): _f_branch,
    int(Op.BRANCHIF): _f_branchif,
    int(Op.BRANCHIFNOT): _f_branchifnot,
    int(Op.APPLY): _f_apply,
    int(Op.GETVECTITEM): _f_getvectitem,
    int(Op.SETVECTITEM): _f_setvectitem,
}


def _make_generic(I: "Interpreter", e: DecodedInstruction):
    """Reference-handler wrapper: positions pc on the operands,
    delegates, and returns whatever pc the handler produced — so
    complex ops (calls, raises, thread switches, C_CALL's yield
    rewind) stay reference-equivalent by construction."""
    method = getattr(I, "_op_" + Op(e.op).name.lower())
    pos = e.index + 1

    def h():
        I.pc = pos
        method()
        return I.pc
    return h


def _make_escape(I: "Interpreter"):
    """One reference-style fetch/decode/dispatch step at ``I.pc``.

    Installed (as a stateful, count-0 entry) at every slot that is not
    a decodable instruction start, so execution that lands there
    (misaligned jump, junk image) behaves exactly as the reference
    loop would — including the guarded illegal-opcode error and the
    per-instruction countdown/tick bookkeeping.
    """
    def h():
        I._advance(1)
        pc = I.pc
        op = I._units[pc]
        I.pc = pc + 1
        table = I._HANDLERS
        handler = table[op] if 0 <= op < len(table) else None
        if handler is None:
            raise BytecodeError(f"illegal opcode {op} at {pc}")
        handler(I)
    return h


def _make_single(I: "Interpreter", e: DecodedInstruction):
    factory = FACTORIES.get(e.op)
    if factory is None:
        return _make_generic(I, e)
    return factory(I, e, e.next)


# ---------------------------------------------------------------------------
# Superinstruction binding
# ---------------------------------------------------------------------------


def _make_fused(I: "Interpreter", members: list[DecodedInstruction]):
    """Compose a group into one closure, or None if not bindable."""
    special = _SPECIAL_FUSED.get(tuple(m.op for m in members))
    if special is not None:
        return special(I, members)
    parts = []
    for m in members[:-1]:
        if m.op not in FUSIBLE_INNER:
            return None
        factory = FACTORIES.get(m.op)
        if factory is None:
            return None
        parts.append(factory(I, m, None))
    tail = members[-1]
    factory = FACTORIES.get(tail.op)
    if factory is None:
        return None
    parts.append(factory(I, tail, tail.next))
    if len(parts) == 2:
        a, b = parts

        def h():
            a()
            return b()
        return h
    if len(parts) == 3:
        a, b, c = parts

        def h():
            a()
            b()
            return c()
        return h
    return None


# Hand-specialized superinstructions for the flagship patterns (no
# intermediate closure calls at all).

def _sf_constint_push_getglobal(I, members):
    val = I._values.val_int(members[0].signed(0))
    n = members[2].raw[0]
    nxt = members[2].next
    mem = I._mem

    def h():
        I.stack.push(val)  # CONSTINT overwrote accu, PUSH pushed it
        I.accu = mem.field(I.global_data, n)
        return nxt
    return h


def _sf_acc_offsetint_assign(I, members):
    n = members[0].raw[0]
    k = members[1].signed(0)
    m = members[2].raw[0]
    nxt = members[2].next
    v = I._values

    def h():
        s = I.stack
        s.poke(m, v.val_int(v.int_val(s.peek(n)) + k))
        I.accu = _VAL_FALSE
        return nxt
    return h


def _sf_getfield_cmp_branch(cmp_op, branch_op):
    int_cmps = {
        int(Op.LTINT): lambda a, b: a < b,
        int(Op.LEINT): lambda a, b: a <= b,
        int(Op.GTINT): lambda a, b: a > b,
        int(Op.GEINT): lambda a, b: a >= b,
    }
    raw_cmps = {
        int(Op.EQ): lambda a, b: a == b,
        int(Op.NEQ): lambda a, b: a != b,
    }
    taken_when_true = branch_op == int(Op.BRANCHIF)

    def build(I, members):
        n = members[0].raw[0]
        t = members[2].targets[0]
        f = members[2].next
        if not taken_when_true:
            t, f = f, t  # now t = the "condition true" successor
        mem = I._mem
        v = I._values
        if cmp_op in raw_cmps:
            op = raw_cmps[cmp_op]

            def h():
                if op(mem.field(I.accu, n), I.stack.pop()):
                    I.accu = _VAL_TRUE
                    return t
                I.accu = _VAL_FALSE
                return f
        else:
            op = int_cmps[cmp_op]

            def h():
                if op(v.int_val(mem.field(I.accu, n)),
                      v.int_val(I.stack.pop())):
                    I.accu = _VAL_TRUE
                    return t
                I.accu = _VAL_FALSE
                return f
        return h
    return build


_SPECIAL_FUSED = {
    (int(Op.CONSTINT), int(Op.PUSH), int(Op.GETGLOBAL)):
        _sf_constint_push_getglobal,
    (int(Op.ACC), int(Op.OFFSETINT), int(Op.ASSIGN)):
        _sf_acc_offsetint_assign,
}
for _c in (Op.EQ, Op.NEQ, Op.LTINT, Op.LEINT, Op.GTINT, Op.GEINT):
    for _b in (Op.BRANCHIF, Op.BRANCHIFNOT):
        _SPECIAL_FUSED[(int(Op.GETFIELD), int(_c), int(_b))] = (
            _sf_getfield_cmp_branch(int(_c), int(_b))
        )


# ---------------------------------------------------------------------------
# Batched counted-loop kernels
# ---------------------------------------------------------------------------


def _iterations_left(c0: int, bound: int, cmp_op: int, step: int):
    """Full iterations until the condition fails; None if unbounded."""
    if cmp_op == int(Op.LTINT):
        if c0 >= bound:
            return 0
        return (bound - c0 + step - 1) // step if step > 0 else None
    if cmp_op == int(Op.LEINT):
        if c0 > bound:
            return 0
        return (bound - c0) // step + 1 if step > 0 else None
    if cmp_op == int(Op.GTINT):
        if c0 <= bound:
            return 0
        return (c0 - bound + (-step) - 1) // (-step) if step < 0 else None
    if cmp_op == int(Op.GEINT):
        if c0 < bound:
            return 0
        return (c0 - bound) // (-step) + 1 if step < 0 else None
    raise AssertionError(f"unexpected loop comparison {cmp_op}")


class _BatchAbort(Exception):
    """Internal: this batch cannot be proven safe; single-step instead."""


def _batch_size(I: "Interpreter", total, iter_count: int) -> int:
    """Full iterations one kernel dispatch may run (``total`` > 0 left).

    Up to the preemption countdown's worth — at least one, so quantum
    ticks keep firing at loop back-edges — and never past the loop's
    end or the instruction budget: a slice must end on its exact
    instruction, so when the budget ends inside the next iteration the
    batch aborts and the singles run up to it.
    """
    m = I._countdown // iter_count or 1
    if total is not None and total < m:
        m = total
    if m > _MAX_BATCH:
        m = _MAX_BATCH
    if I.instructions + m * iter_count > I._limit:
        m = (I._limit - I.instructions) // iter_count
        if m == 0:
            raise _BatchAbort()
    return m


def _make_loop_edges(I: "Interpreter", plan):
    """The two unbatched ways through a kernel's loop head."""
    fallthrough = plan.head + 1  # CHECK_SIGNALS is one unit
    cond_count = plan.cond_count

    def fallback():
        # Execute just the CHECK_SIGNALS no-op; the singles take over
        # and control returns here at the next back-edge.
        I._advance(1)
        I.pc = fallthrough

    def exit_pass():
        # Final, failing pass of the condition.
        if I._limit - I.instructions < cond_count:
            return fallback()
        I._advance(cond_count)
        I.accu = _VAL_FALSE
        I.pc = plan.exit

    return fallback, exit_pass


def _make_kernel(I: "Interpreter", plan: CountedLoopPlan):
    """Bind a counted-loop plan into a batched kernel closure.

    The kernel sits at the loop head (its CHECK_SIGNALS safe point) and
    runs ``m`` full iterations per dispatch, where ``m`` is bounded by
    the remaining preemption countdown and instruction budget
    (:func:`_batch_size`) — so thread quanta, periodic checkpoint
    polls and pending events observe the canonical instruction stream
    at iteration granularity, and slices end exactly.  All accounting
    is in canonical instruction counts; a checkpoint between batches
    is bit-identical to the reference tier's state at the same head
    boundary.
    """
    mem = I._mem
    v = I._values
    iter_count = plan.iter_count
    fallback, exit_pass = _make_loop_edges(I, plan)

    def read_int_cell(gd, g):
        ref = mem.field(gd, g)
        if ref & 1:
            raise _BatchAbort()
        cell = mem.field(ref, 0)
        if not cell & 1:
            raise _BatchAbort()
        return ref, v.int_val(cell)

    def kernel():
        gd = I.global_data
        try:
            counter_ref, c0 = read_int_cell(gd, plan.counter)
            if plan.bound_global is not None:
                bound_ref, bound = read_int_cell(gd, plan.bound_global)
            else:
                bound_ref, bound = None, plan.bound_const
            total = _iterations_left(c0, bound, plan.cmp_op, plan.step)
            if total == 0:
                return exit_pass()
            m = _batch_size(I, total, iter_count)
            # Resolve every cell up front; abort on aliasing (two
            # globals naming one ref would interleave reads/writes in
            # ways the closed forms below do not model).
            cells = {plan.counter: (counter_ref, c0)}
            for u in plan.updates:
                if u.target not in cells:
                    cells[u.target] = read_int_cell(gd, u.target)
                if u.operand_kind == "ref" and u.operand_value not in cells:
                    cells[u.operand_value] = read_int_cell(
                        gd, u.operand_value
                    )
            addrs = [cells[u.target][0] for u in plan.updates]
            if bound_ref is not None:
                addrs.append(bound_ref)
            if len(set(addrs)) != len(addrs):
                raise _BatchAbort()
            target_addrs = {cells[u.target][0] for u in plan.updates}
            for u in plan.updates:
                if (
                    u.operand_kind == "ref"
                    and u.operand_value != plan.counter
                    and cells[u.operand_value][0] in target_addrs
                ):
                    raise _BatchAbort()
            # Overflow pre-check so int64 numpy math is exact.
            magnitude = abs(c0) + abs(plan.step) * (m + 1)
            if magnitude >= (1 << 62):
                raise _BatchAbort()
            for u in plan.updates:
                ov = (
                    abs(u.operand_value)
                    if u.operand_kind == "const"
                    else abs(cells[u.operand_value][1]) + magnitude
                )
                s0 = abs(cells[u.target][1])
                if s0 + (ov + 1) * (m + 1) >= (1 << 62):
                    raise _BatchAbort()
            # Per-iteration deltas, exact intermediate-value bounds.
            t_axis = np.arange(m, dtype=np.int64)
            finals = {}
            counter_bumped = False
            min_int, max_int = v.min_int, v.max_int
            for u in plan.updates:
                if u.target == plan.counter:
                    delta = np.full(m, plan.step, dtype=np.int64)
                    counter_bumped = True
                elif u.operand_kind == "const":
                    delta = np.full(
                        m, u.sign * u.operand_value, dtype=np.int64
                    )
                elif u.operand_value == plan.counter:
                    vals = c0 + plan.step * t_axis
                    if counter_bumped:
                        vals = vals + plan.step
                    delta = u.sign * vals
                else:
                    delta = np.full(
                        m,
                        u.sign * cells[u.operand_value][1],
                        dtype=np.int64,
                    )
                running = np.cumsum(delta) + cells[u.target][1]
                if (
                    int(running.min()) < min_int
                    or int(running.max()) > max_int
                ):
                    raise _BatchAbort()
                finals[u.target] = int(running[-1])
            # The condition also re-reads the counter each iteration;
            # its trajectory is covered by the counter's own cumsum.
        except _BatchAbort:
            return fallback()
        # Commit: one tagged store per updated cell.
        for g, final in finals.items():
            mem.set_field(cells[g][0], 0, v.val_int(final))
        I._advance(m * iter_count)
        I.accu = _VAL_FALSE  # val_unit: the last body SETFIELD's result
        I.pc = plan.head

    return kernel


# ---------------------------------------------------------------------------
# Batched array-stride loop kernels
# ---------------------------------------------------------------------------


def _loop_invariant(e) -> bool:
    """True if the expression tree ``e`` never reads the loop counter."""
    if e == ("slot", 0):
        return False
    return all(_loop_invariant(x) for x in e[1:] if isinstance(x, tuple))


def _make_stride_kernel(I: "Interpreter", plan: StrideLoopPlan):
    """Bind an array-stride loop plan into a numpy-batched kernel.

    The plan's ``store`` tree is evaluated over the whole batch at
    once: counter-strided reads become a contiguous slice of the
    backing chunk (one ``numpy`` conversion for ``m`` iterations),
    row-pointer gathers one address-space load per element, and the
    arithmetic vectorizes.  Two store shapes are recognized:

    * **reduction** — ``c.(j) <- c.(j) + term`` with a loop-invariant
      cell (matmul's dot-product inner loop): the cell is read once,
      the term vector is accumulated with an exact closed form, and one
      barriered store commits the result;
    * **stride map/fill** — ``dst.(i) <- expr``: values are computed
      vectorized and committed through ``set_field`` so GC write
      barriers and incremental-checkpoint dirty tracking observe every
      write.

    Safety mirrors the counted-loop kernel: untagged operands, bounds
    violations, representation overflow, aliasing between read and
    written blocks, or any memory fault during the (side-effect-free)
    evaluation phase abort the batch and fall back to single-step
    execution, whose semantics are exact.  Checkpoint integrity errors
    from lazily-restored chunks propagate — a fallback replay could
    not reproduce them.
    """
    mem = I._mem
    v = I._values
    space = mem.space
    arch = mem.arch
    wb = arch.word_bytes
    bits = arch.bits
    mask = arch.word_mask
    to_signed = arch.to_signed
    min_int, max_int = v.min_int, v.max_int
    iter_count = plan.iter_count
    step = plan.step
    _, s_arr, s_idx, s_val = plan.store

    if bits == 64:
        def vec_words(seq):
            return np.array(seq, dtype=np.uint64).view(np.int64)
    else:
        half = 1 << (bits - 1)
        full = 1 << bits

        def vec_words(seq):
            a = np.asarray(seq, dtype=np.int64)
            return np.where(a >= half, a - full, a)

    # Reduction shape: the stored cell is loop-invariant and the value
    # is that same cell plus/minus a term (ADDINT commutes; SUBINT only
    # with the cell on the left).
    red_term = None
    red_sign = 0
    if (
        isinstance(s_val, tuple) and s_val[0] == "bin"
        and _loop_invariant(s_arr) and _loop_invariant(s_idx)
    ):
        cell = ("elem", s_arr, s_idx)
        op, lhs, rhs = s_val[1], s_val[2], s_val[3]
        if op == int(Op.ADDINT) and lhs == cell:
            red_sign, red_term = 1, rhs
        elif op == int(Op.ADDINT) and rhs == cell:
            red_sign, red_term = 1, lhs
        elif op == int(Op.SUBINT) and lhs == cell:
            red_sign, red_term = -1, rhs

    fallback, exit_pass = _make_loop_edges(I, plan)

    def kernel():
        stack = I.stack
        try:
            cw = stack.peek(0)
            bw = stack.peek(1)
            if not (cw & 1) or not (bw & 1):
                raise _BatchAbort()
            c0 = v.int_val(cw)
            bound = v.int_val(bw)
            total = _iterations_left(c0, bound, plan.cmp_op, step)
            if total == 0:
                return exit_pass()
            m = _batch_size(I, total, iter_count)
            if abs(c0) + abs(step) * (m + 1) >= (1 << 62):
                raise _BatchAbort()
            ks = c0 + step * np.arange(m, dtype=np.int64)
            counter_words = (ks << 1) | 1
            gd = I.global_data
            gd_signed = to_signed(gd)
            read_blocks = set()    # block addresses the batch read
            scalar_reads = set()   # exact cell addresses of scalar loads
            forbidden = None       # reduction cell: loads may not touch

            # All values are *signed* machine words: scalars as Python
            # ints, per-iteration vectors as int64 arrays.  int_val is
            # then an arithmetic shift, on either representation.

            def load_cell(addr):
                if addr == forbidden:
                    raise _BatchAbort()
                scalar_reads.add(addr)
                return to_signed(space.load(addr))

            def gather(block, idx_vec):
                # One fixed block, vector of indices: slice the backing
                # words once, then fancy-index.
                if block & 1 or block < 0:
                    raise _BatchAbort()
                read_blocks.add(block)
                size = mem.size_of(block)
                lo = int(idx_vec.min())
                hi = int(idx_vec.max())
                if lo < 0 or hi >= size:
                    raise _BatchAbort()
                lo_addr = block + lo * wb
                if forbidden is not None and (
                    lo_addr <= forbidden <= block + hi * wb
                ):
                    raise _BatchAbort()
                window = hi - lo + 1
                if window <= 4 * len(idx_vec) + 64:
                    area = space.find(block)
                    base = (lo_addr - area.base) // wb
                    seg = vec_words(area.words[base: base + window])
                    return seg[idx_vec - lo]
                load = space.load
                return vec_words(
                    [load(block + int(i) * wb) for i in idx_vec]
                )

            def gather_rows(blocks_vec, idx):
                # Vector of row pointers (e.g. a matrix spine slice):
                # one load per element, headers cached per block.
                if (blocks_vec & 1).any() or (blocks_vec < 0).any():
                    raise _BatchAbort()
                load = space.load
                size_of = mem.size_of
                sizes: dict = {}
                scalar_idx = not isinstance(idx, np.ndarray)
                out = []
                for t in range(len(blocks_vec)):
                    b = int(blocks_vec[t])
                    ix = idx if scalar_idx else int(idx[t])
                    sz = sizes.get(b)
                    if sz is None:
                        sz = size_of(b)
                        sizes[b] = sz
                        read_blocks.add(b)
                    if not 0 <= ix < sz:
                        raise _BatchAbort()
                    addr = b + ix * wb
                    if addr == forbidden:
                        raise _BatchAbort()
                    out.append(load(addr))
                return vec_words(out)

            def as_index(val):
                if isinstance(val, np.ndarray):
                    if not (val & 1).all():
                        raise _BatchAbort()
                    return val >> 1
                if not val & 1:
                    raise _BatchAbort()
                return val >> 1

            def binop(op, a, b):
                av = isinstance(a, np.ndarray)
                bv = isinstance(b, np.ndarray)
                if (not (a & 1).all() if av else not a & 1):
                    raise _BatchAbort()
                if (not (b & 1).all() if bv else not b & 1):
                    raise _BatchAbort()
                ia = a >> 1
                ib = b >> 1
                if op == int(Op.MULINT):
                    # Conservative magnitude bound keeps int64 exact.
                    ma = int(np.abs(ia).max()) if av else abs(ia)
                    mb = int(np.abs(ib).max()) if bv else abs(ib)
                    if ma * mb > max_int:
                        raise _BatchAbort()
                    r = ia * ib
                elif op == int(Op.ADDINT):
                    r = ia + ib
                else:
                    r = ia - ib
                if isinstance(r, np.ndarray):
                    if int(r.min()) < min_int or int(r.max()) > max_int:
                        raise _BatchAbort()
                elif not min_int <= r <= max_int:
                    raise _BatchAbort()
                return (r << 1) | 1

            def ev(e):
                kind = e[0]
                if kind == "slot":
                    n = e[1]
                    if n == 0:
                        return counter_words
                    return to_signed(stack.peek(n))
                if kind == "const":
                    k = e[1]
                    if not min_int <= k <= max_int:
                        raise _BatchAbort()
                    return (k << 1) | 1
                if kind == "global":
                    read_blocks.add(gd_signed)
                    return load_cell(gd + e[1] * wb)
                if kind == "bin":
                    return binop(e[1], ev(e[2]), ev(e[3]))
                arr = ev(e[1])
                idx = as_index(ev(e[2]))
                if isinstance(arr, np.ndarray):
                    return gather_rows(arr, idx)
                if isinstance(idx, np.ndarray):
                    return gather(arr, idx)
                if arr & 1 or arr < 0:
                    raise _BatchAbort()
                read_blocks.add(arr)
                if not 0 <= idx < mem.size_of(arr):
                    raise _BatchAbort()
                return load_cell(arr + idx * wb)

            if red_term is not None:
                arr = ev(s_arr)
                ix = as_index(ev(s_idx))
                if isinstance(arr, np.ndarray) or isinstance(
                    ix, np.ndarray
                ):
                    raise _BatchAbort()
                if arr & 1 or arr < 0:
                    raise _BatchAbort()
                if not 0 <= ix < mem.size_of(arr):
                    raise _BatchAbort()
                cell_addr = arr + ix * wb
                if cell_addr in scalar_reads:
                    raise _BatchAbort()
                cur_w = to_signed(space.load(cell_addr))
                if not cur_w & 1:
                    raise _BatchAbort()
                forbidden = cell_addr
                term = ev(red_term)
                if not isinstance(term, np.ndarray):
                    term = np.full(m, term, dtype=np.int64)
                if not (term & 1).all():
                    raise _BatchAbort()
                tv = term >> 1
                c_init = cur_w >> 1
                peak = int(np.abs(tv).max())
                if abs(c_init) + (peak + 1) * (m + 1) >= (1 << 62):
                    raise _BatchAbort()
                # Exact per-iteration trajectory: every intermediate
                # value the reference loop would store must fit.
                running = c_init + np.cumsum(red_sign * tv)
                if (
                    int(running.min()) < min_int
                    or int(running.max()) > max_int
                ):
                    raise _BatchAbort()
                mem.set_field(arr, ix, v.val_int(int(running[-1])))
            else:
                arr = ev(s_arr)
                if isinstance(arr, np.ndarray) or arr & 1 or arr < 0:
                    raise _BatchAbort()
                value = ev(s_val)
                ix = as_index(ev(s_idx))
                size = mem.size_of(arr)
                # The batch read everything before writing anything; a
                # written block that was also read would let later
                # iterations observe stale values.
                if arr in read_blocks:
                    raise _BatchAbort()
                set_field = mem.set_field
                if isinstance(ix, np.ndarray):
                    if int(ix.min()) < 0 or int(ix.max()) >= size:
                        raise _BatchAbort()
                    if isinstance(value, np.ndarray):
                        for t in range(m):
                            set_field(
                                arr, int(ix[t]), int(value[t]) & mask
                            )
                    else:
                        w = value & mask
                        for t in range(m):
                            set_field(arr, int(ix[t]), w)
                else:
                    if not 0 <= ix < size:
                        raise _BatchAbort()
                    w = (
                        int(value[-1])
                        if isinstance(value, np.ndarray)
                        else value
                    ) & mask
                    set_field(arr, ix, w)
            counter_final = c0 + m * step
        except (_BatchAbort, IndexError, MemoryError_):
            return fallback()
        finally:
            # ``ev`` is recursive, so it refers to itself: unhook it, or
            # every batch leaves a cycle behind that holds this frame's
            # arrays — and, through ``mem``, the whole heap.
            ev = None
        # Commit the counter and the canonical accounting.
        stack.poke(0, v.val_int(counter_final))
        I._advance(m * iter_count)
        I.accu = _VAL_FALSE  # val_unit: the trailing ASSIGN's result
        I.pc = plan.head

    return kernel


# ---------------------------------------------------------------------------
# Program binding
# ---------------------------------------------------------------------------


def build_fast_code(
    I: "Interpreter",
    fusion: bool = True,
    kernels: bool = True,
) -> FastCode:
    """Bind the image's decoded stream to this interpreter.

    Slots are bound *lazily*: every position starts as a shared
    stateful entry that, when execution first reaches it, builds the
    real closure for that slot (kernel, superinstruction, single, or
    escape) and installs it for the loop to dispatch.  Binding cost is
    therefore proportional to the code actually executed, not to image
    size — short programs pay for a handful of slots, long-running
    ones amortize everything.

    ``fusion`` / ``kernels`` exist for differential testing: with both
    off the fast tier is pure operand-bound single dispatch.
    """
    decoded = I._code.decoded()
    n = decoded.n_units
    entries = decoded.entries
    group_at = {}
    if fusion:
        for g in decoded.groups:
            group_at[g.start] = g
    kernel_at = {}
    if kernels:
        for plan in decoded.loops:
            kernel_at[plan.head] = plan
    escape = _make_escape(I)

    def bind_slot(fast, i):
        handlers = fast.handlers
        plan = kernel_at.get(i)
        if plan is not None:
            if isinstance(plan, CountedLoopPlan):
                handlers[i] = _make_kernel(I, plan)
            else:
                handlers[i] = _make_stride_kernel(I, plan)
            return
        e = entries[i]
        if e is None:
            handlers[i] = escape
            return
        g = group_at.get(i)
        if g is not None:
            fused = _make_fused(I, [entries[j] for j in g.members])
            if fused is not None:
                handlers[i] = fused
                fast.counts[i] = g.count
                return
        handlers[i] = _make_single(I, e)
        fast.counts[i] = 1

    def lazy():
        # A stateful entry that executes nothing: pc stays put, and the
        # loop dispatches the freshly bound slot on its next turn.  The
        # table is reached through the VM that keeps it — this closure
        # sits in it, and closing over it would make it a cycle.
        bind_slot(I.vm.fast_code, I.pc)

    # Unbound slots take the stateful path (count 0).
    return FastCode([lazy] * n, [0] * n)
