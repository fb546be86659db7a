"""Tests for the byte-code layer: images, assembler, disassembler."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.bytecode import (
    Assembler,
    CodeImage,
    Op,
    OPERAND_COUNTS,
    disassemble,
)
from repro.errors import BytecodeError


class TestCodeImage:
    def test_serialize_roundtrip(self):
        img = CodeImage([int(Op.CONSTINT), 5, int(Op.STOP)], "t", 3,
                        [b"lit", b""], [1.5, -2.0])
        img2 = CodeImage.from_bytes(img.to_bytes())
        assert img2.units == img.units
        assert img2.name == "t"
        assert img2.n_globals == 3
        assert img2.string_literals == [b"lit", b""]
        assert img2.float_literals == [1.5, -2.0]
        assert img2.digest() == img.digest()

    def test_digest_covers_everything(self):
        base = CodeImage([0], "x", 1, [b"a"], [1.0])
        assert base.digest() != CodeImage([1], "x", 1, [b"a"], [1.0]).digest()
        assert base.digest() != CodeImage([0], "x", 2, [b"a"], [1.0]).digest()
        assert base.digest() != CodeImage([0], "x", 1, [b"b"], [1.0]).digest()
        assert base.digest() != CodeImage([0], "x", 1, [b"a"], [2.0]).digest()
        # The name is informational only.
        assert base.digest() == CodeImage([0], "y", 1, [b"a"], [1.0]).digest()

    def test_digest_is_computed_once_and_the_image_is_immutable(
            self, monkeypatch):
        img = CodeImage([int(Op.CONSTINT), 5, int(Op.STOP)], "t", 3,
                        [b"lit"], [1.5])
        first = img.digest()
        # The cached digest is the one a fresh image computes.
        assert first == CodeImage(list(img.units), "t", 3, [b"lit"],
                                  [1.5]).digest()
        calls = []
        compute = CodeImage._compute_digest
        monkeypatch.setattr(
            CodeImage, "_compute_digest",
            lambda self: calls.append(1) or compute(self),
        )
        assert img.digest() is first and img.digest() is first
        assert calls == []
        assert isinstance(img.units, tuple)
        with pytest.raises(TypeError):
            img.units[0] = int(Op.STOP)
        for name, value in (("units", [0]), ("n_globals", 4),
                            ("string_literals", [b"x"]), ("name", "u")):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(img, name, value)
        assert img.digest() == first

    def test_signed_unit(self):
        img = CodeImage([-5, 5])
        assert img.signed_unit(0) == -5
        assert img.signed_unit(1) == 5

    def test_bad_magic(self):
        with pytest.raises(BytecodeError):
            CodeImage.from_bytes(b"NOPE" + b"\x00" * 20)

    def test_truncated(self):
        data = CodeImage([1, 2, 3]).to_bytes()
        with pytest.raises(BytecodeError):
            CodeImage.from_bytes(data[: len(data) // 2])

    def test_unit_range_checked(self):
        with pytest.raises(BytecodeError):
            CodeImage([2**32])

    @given(st.lists(st.integers(-(2**31), 2**32 - 1), max_size=50))
    def test_roundtrip_property(self, units):
        img = CodeImage(units)
        assert CodeImage.from_bytes(img.to_bytes()).units == img.units


class TestAssembler:
    def test_label_forward_and_backward(self):
        a = Assembler()
        start = a.label()
        a.place(start)
        fwd = a.label()
        a.emit(Op.BRANCH, fwd)
        a.emit(Op.BRANCH, start)
        a.place(fwd)
        a.emit(Op.STOP)
        img = a.assemble()
        # First BRANCH: operand at unit 1, target 4 -> offset 3.
        assert img.signed_unit(1) == 3
        # Second BRANCH: operand at unit 3, target 0 -> offset -3.
        assert img.signed_unit(3) == -3

    def test_undefined_label(self):
        a = Assembler()
        a.emit(Op.BRANCH, a.label())
        with pytest.raises(BytecodeError):
            a.assemble()

    def test_double_place(self):
        a = Assembler()
        lab = a.label()
        a.place(lab)
        with pytest.raises(BytecodeError):
            a.place(lab)

    def test_operand_count_enforced(self):
        a = Assembler()
        with pytest.raises(BytecodeError):
            a.emit(Op.CONSTINT)
        with pytest.raises(BytecodeError):
            a.emit(Op.PUSH, 1)

    def test_label_only_in_branch_slot(self):
        a = Assembler()
        with pytest.raises(BytecodeError):
            a.emit(Op.CONSTINT, a.label())
        # CLOSURE's second operand is the branch slot, not the first.
        with pytest.raises(BytecodeError):
            a.emit(Op.CLOSURE, a.label(), 0)

    def test_literal_interning(self):
        a = Assembler()
        assert a.string_literal(b"x") == a.string_literal(b"x") == 0
        assert a.string_literal(b"y") == 1
        assert a.float_literal(1.5) == a.float_literal(1.5) == 0
        assert a.float_literal(float("nan")) == a.float_literal(float("nan"))

    def test_every_opcode_has_operand_count(self):
        for op in Op:
            assert op in OPERAND_COUNTS


class TestDisassembler:
    def test_every_emittable_opcode_disassembles(self):
        a = Assembler()
        lab = a.label()
        a.place(lab)
        for op in Op:
            argc = OPERAND_COUNTS[op]
            if op in (Op.BRANCH, Op.BRANCHIF, Op.BRANCHIFNOT, Op.PUSH_RETADDR):
                a.emit(op, lab)
            elif op is Op.CLOSURE:
                a.emit(op, 0, lab)
            else:
                a.emit(op, *([0] * argc))
        text = disassemble(a.assemble())
        for op in Op:
            assert op.name in text

    def test_unknown_opcode(self):
        with pytest.raises(BytecodeError):
            disassemble(CodeImage([9999]))

    def test_truncated_operand(self):
        with pytest.raises(BytecodeError):
            disassemble(CodeImage([int(Op.CONSTINT)]))
