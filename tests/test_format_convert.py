"""Unit tests for the checkpoint format framing, value conversion and
address mapping internals."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.arch import ARCH_32_BE, ARCH_32_LE, ARCH_64_BE, ARCH_64_LE
from repro.checkpoint.convert import ValueConverter
from repro.checkpoint.format import SectionReader, SectionWriter
from repro.memory.floats import FloatCodec
from repro.memory.strings import StringCodec
from repro.memory.values import ValueCodec
from tests import oracle


class TestSectionFraming:
    @pytest.mark.parametrize("arch", [ARCH_32_LE, ARCH_32_BE, ARCH_64_LE])
    def test_scalar_roundtrip(self, arch):
        w = SectionWriter(arch)
        w.u8(7)
        w.u32(123456)
        w.u64(2**40)
        w.i64(-99)
        w.str_lp("héllo")
        w.bytes_lp(b"\x00\x01")
        w.word(arch.word_mask)
        w.words([1, 2, 3, arch.word_mask])
        r = SectionReader(w.getvalue(), arch)
        assert r.u8() == 7
        assert r.u32() == 123456
        assert r.u64() == 2**40
        assert r.i64() == -99
        assert r.str_lp() == "héllo"
        assert r.bytes_lp() == b"\x00\x01"
        assert r.word() == arch.word_mask
        assert r.words() == [1, 2, 3, arch.word_mask]

    def test_truncation_detected(self):
        w = SectionWriter(ARCH_32_LE)
        w.u64(5)
        data = w.getvalue()[:-2]
        r = SectionReader(data, ARCH_32_LE)
        from repro.errors import CheckpointFormatError

        with pytest.raises(CheckpointFormatError):
            r.u64()

    def test_words_are_native_layout(self):
        le = SectionWriter(ARCH_32_LE)
        le.words([0x11223344])
        be = SectionWriter(ARCH_32_BE)
        be.words([0x11223344])
        # Same length header (LE), different payload order.
        assert le.getvalue()[:8] == be.getvalue()[:8]
        assert le.getvalue()[8:] == be.getvalue()[8:][::-1]


class TestValueConverter:
    def test_identity_when_same_arch(self):
        c = ValueConverter(ARCH_32_LE, ARCH_32_LE)
        assert c.identity
        assert c.convert_immediate(0x55) == 0x55
        assert c.convert_raw(0x55) == 0x55

    def test_flags(self):
        assert ValueConverter(ARCH_32_LE, ARCH_32_BE).endian_differs
        assert ValueConverter(ARCH_32_LE, ARCH_64_LE).word_size_differs
        both = ValueConverter(ARCH_32_LE, ARCH_64_BE)
        assert both.endian_differs and both.word_size_differs

    @given(st.integers(-(2**30), 2**30 - 1))
    def test_widening_preserves_ints(self, n):
        c = ValueConverter(ARCH_32_LE, ARCH_64_LE)
        v32 = ValueCodec(ARCH_32_LE)
        v64 = ValueCodec(ARCH_64_LE)
        assert v64.int_val(c.convert_immediate(v32.val_int(n))) == n

    @given(st.integers(-(2**30), 2**30 - 1))
    def test_narrow_widen_roundtrip(self, n):
        """32 -> 64 -> 32 is the identity for representable ints."""
        up = ValueConverter(ARCH_32_LE, ARCH_64_LE)
        down = ValueConverter(ARCH_64_LE, ARCH_32_LE)
        v32 = ValueCodec(ARCH_32_LE)
        w = v32.val_int(n)
        assert down.convert_immediate(up.convert_immediate(w)) == w

    def test_narrowing_wraps_with_sign(self):
        c = ValueConverter(ARCH_64_LE, ARCH_32_LE)
        v64 = ValueCodec(ARCH_64_LE)
        v32 = ValueCodec(ARCH_32_LE)
        big = 5_000_000_000
        narrowed = v32.int_val(c.convert_immediate(v64.val_int(big)))
        assert narrowed == v32.int_val(v32.val_int(big))  # same wrap rule

    @given(st.binary(max_size=64))
    def test_string_repack_all_pairs(self, data):
        archs = [ARCH_32_LE, ARCH_32_BE, ARCH_64_LE, ARCH_64_BE]
        for src in archs:
            words = StringCodec(src).encode(data)
            for dst in archs:
                c = ValueConverter(src, dst)
                assert (
                    StringCodec(dst).decode(oracle.repack_string(c, words))
                    == data
                )

    @given(st.floats(allow_nan=False))
    def test_double_repack_all_pairs(self, x):
        archs = [ARCH_32_LE, ARCH_32_BE, ARCH_64_LE, ARCH_64_BE]
        for src in archs:
            words = FloatCodec(src).encode(x)
            for dst in archs:
                c = ValueConverter(src, dst)
                assert (
                    FloatCodec(dst).decode(oracle.repack_double(c, words)) == x
                )

    def test_string_target_words(self):
        c = ValueConverter(ARCH_32_LE, ARCH_64_LE)
        words = StringCodec(ARCH_32_LE).encode(b"x" * 10)
        assert len(oracle.repack_string(c, words)) == 10 // 8 + 1
        out = c.repack_string_batch(
            np.asarray(words, dtype=np.uint64), np.asarray([len(words)])
        )
        assert out.size == 10 // 8 + 1

    def test_double_target_words(self):
        words = FloatCodec(ARCH_32_LE).encode(1.5)
        up = ValueConverter(ARCH_32_LE, ARCH_64_LE)
        down = ValueConverter(ARCH_64_LE, ARCH_32_LE)
        assert len(oracle.repack_double(up, words)) == 1
        assert len(oracle.repack_double(down, [0])) == 2

    def test_convert_raw_sign_extends(self):
        c = ValueConverter(ARCH_32_LE, ARCH_64_LE)
        assert c.convert_raw(0xFFFFFFFF) == 0xFFFFFFFFFFFFFFFF  # -1
        assert c.convert_raw(0x7FFFFFFF) == 0x7FFFFFFF


class TestEndianFileRoundtrip:
    def test_le_to_be_to_le_checkpoint_identity(self, tmp_path):
        """LE -> BE -> LE migration reproduces the original output
        (the convert-twice path is self-inverse on live data)."""
        from repro import (
            VirtualMachine,
            VMConfig,
            compile_source,
            get_platform,
            restart_vm,
        )

        src = """
        let s = "roundtrip";;
        let f = 1.25;;
        let l = [1; 2; 3];;
        checkpoint ();;
        checkpoint ();;
        let rec sum x = match x with [] -> 0 | h :: t -> h + sum t;;
        print_string s; print_float f; print_int (sum l)
        """
        code = compile_source(src)
        path = str(tmp_path / "rt.hckp")
        cfg = VMConfig(chkpt_filename=path, chkpt_mode="blocking")
        vm = VirtualMachine(get_platform("rodrigo"), code, cfg)
        expected = vm.run(max_instructions=1_000_000).stdout
        # Hop to big-endian (converts), checkpoint again there, hop back.
        vm_be, _ = restart_vm(get_platform("csd"), code, path, cfg)
        assert vm_be.run(max_instructions=1_000_000).stdout == expected
        vm_le, _ = restart_vm(get_platform("rodrigo"), code, path, cfg)
        assert vm_le.run(max_instructions=1_000_000).stdout == expected
