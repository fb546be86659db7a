"""Format v3: per-section CRCs, integrity trailer, back-compat."""

from __future__ import annotations

import io
import zlib

import pytest

from repro import PLATFORMS, VirtualMachine, VMConfig, compile_source, get_platform
from repro.checkpoint.format import (
    CHECKPOINT_MAGIC_V1,
    CHECKPOINT_MAGIC_V2,
    CHECKPOINT_MAGIC_V3,
    TRAILER_MAGIC,
    read_checkpoint,
    read_section_table,
)
from repro.checkpoint.inspect import describe_snapshot, inspect_snapshot
from repro.checkpoint.reader import restart_vm
from repro.errors import CheckpointFormatError, CheckpointIntegrityError
from tests import oracle

RODRIGO = get_platform("rodrigo")

PROGRAM = """
let rec build n acc = if n = 0 then acc else build (n - 1) (n :: acc);;
let rec sum l = match l with [] -> 0 | h :: t -> h + sum t;;
let data = build 40 [];;
let s = "tag:" ^ string_of_int (sum data);;
let f = 0.5;;
checkpoint ();;
print_string s;;
print_float (f +. f);;
print_newline ();;
"""


def expected_output() -> bytes:
    code = compile_source(PROGRAM)
    vm = VirtualMachine(
        RODRIGO, code, VMConfig(chkpt_state="disable"), stdout=io.BytesIO()
    )
    result = vm.run(max_instructions=20_000_000)
    assert result.status == "stopped"
    return result.stdout


def make_checkpoint(tmp_path, fmt: int = 3, platform=RODRIGO) -> tuple[str, bytes]:
    path = str(tmp_path / f"v{fmt}.hckp")
    code = compile_source(PROGRAM)
    vm = VirtualMachine(
        platform,
        code,
        VMConfig(chkpt_filename=path, chkpt_mode="blocking"),
        stdout=io.BytesIO(),
    )
    result = vm.run(max_instructions=20_000_000)
    assert result.status == "stopped" and vm.checkpoints_taken == 1
    if fmt != 3:  # no writer emits these any more; readers must keep up
        oracle.restamp(path, path, version=fmt)
    with open(path, "rb") as f:
        return path, f.read()


def run_restarted(path: str, platform=RODRIGO) -> bytes:
    code = compile_source(PROGRAM)
    vm, _stats = restart_vm(
        platform, code, path, VMConfig(chkpt_state="disable"),
        stdout=io.BytesIO(),
    )
    result = vm.run(max_instructions=20_000_000)
    assert result.status == "stopped"
    return result.stdout


class TestV3Layout:
    def test_default_format_is_v3(self, tmp_path):
        _, data = make_checkpoint(tmp_path)
        assert data[:6] == CHECKPOINT_MAGIC_V3
        assert TRAILER_MAGIC in data

    def test_section_table_readable(self, tmp_path):
        _, data = make_checkpoint(tmp_path)
        table = read_section_table(data)
        assert table is not None and len(table) >= 3
        names = [s.name for s in table]
        assert "heap" in names
        # Entries tile the body contiguously and each CRC matches.
        for s in table:
            assert s.length >= 0
            assert zlib.crc32(data[s.offset : s.end]) == s.crc32

    @pytest.mark.parametrize("target", ["rodrigo", "csd", "sp2148", "ultra64"])
    def test_round_trip_restores(self, tmp_path, target):
        path, _ = make_checkpoint(tmp_path)
        out = run_restarted(path, platform=get_platform(target))
        assert out == expected_output()

    def test_inspect_reports_sections(self, tmp_path):
        path, _ = make_checkpoint(tmp_path)
        snap = read_checkpoint(path)
        desc = describe_snapshot(snap)
        assert desc["integrity_verified"] is True
        assert any(s["name"] == "heap" for s in desc["sections"])
        report = inspect_snapshot(snap)
        assert "integrity trailer" in report.render()


class TestV3Detection:
    def test_bitflip_names_section_and_offsets(self, tmp_path):
        path, data = make_checkpoint(tmp_path)
        table = read_section_table(data)
        heap = next(s for s in table if s.name == "heap")
        buf = bytearray(data)
        buf[heap.offset + heap.length // 2] ^= 0x01
        with open(path, "wb") as f:
            f.write(bytes(buf))
        with pytest.raises(CheckpointFormatError) as exc:
            read_checkpoint(path)
        msg = str(exc.value)
        assert "heap" in msg
        assert str(heap.offset) in msg
        assert exc.value.path == path

    def test_integrity_error_carries_crcs(self, tmp_path):
        path, data = make_checkpoint(tmp_path)
        table = read_section_table(data)
        target = max(table, key=lambda s: s.length)
        buf = bytearray(data)
        buf[target.offset] ^= 0xFF
        with open(path, "wb") as f:
            f.write(bytes(buf))
        with pytest.raises(CheckpointIntegrityError) as exc:
            read_checkpoint(path)
        assert exc.value.expected != exc.value.actual

    def test_damaged_trailer_detected(self, tmp_path):
        path, data = make_checkpoint(tmp_path)
        at = data.rindex(TRAILER_MAGIC)
        buf = bytearray(data)
        buf[at + len(TRAILER_MAGIC) + 4] ^= 0x10  # inside the table body
        with open(path, "wb") as f:
            f.write(bytes(buf))
        with pytest.raises(CheckpointFormatError):
            read_checkpoint(path)

    def test_undecodable_section_name_is_typed(self, tmp_path):
        """A table row whose name is no longer UTF-8 is a damaged
        trailer like any other — never a raw decode error, which no
        generation fallback would catch."""
        path, data = make_checkpoint(tmp_path)
        name_at = data.rindex(TRAILER_MAGIC) + len(TRAILER_MAGIC) + 4 + 4
        buf = bytearray(data)
        buf[name_at] = 0xC3  # a lead byte followed by ASCII
        with open(path, "wb") as f:
            f.write(bytes(buf))
        with pytest.raises(CheckpointIntegrityError) as exc:
            read_checkpoint(path)
        assert exc.value.section == "trailer"

    def test_mutation_counts_toward_integrity_metric(self, tmp_path):
        from repro.metrics import INTEGRITY

        path, data = make_checkpoint(tmp_path)
        buf = bytearray(data)
        buf[len(buf) // 2] ^= 0xFF
        with open(path, "wb") as f:
            f.write(bytes(buf))
        before = INTEGRITY.integrity_failures
        with pytest.raises(CheckpointFormatError):
            read_checkpoint(path)
        assert INTEGRITY.integrity_failures == before + 1


class TestEscapeHatchAndBackCompat:
    @pytest.mark.parametrize(
        "fmt,magic",
        [(1, CHECKPOINT_MAGIC_V1), (2, CHECKPOINT_MAGIC_V2)],
    )
    def test_older_formats_still_written_and_restored(
        self, tmp_path, fmt, magic
    ):
        path, data = make_checkpoint(tmp_path, fmt=fmt)
        assert data[:6] == magic
        assert TRAILER_MAGIC not in data
        assert read_section_table(data) is None
        assert run_restarted(path) == expected_output()

    def test_v2_cross_arch_restore(self, tmp_path):
        path, _ = make_checkpoint(tmp_path, fmt=2, platform=PLATFORMS["ultra64"])
        out = run_restarted(path, platform=PLATFORMS["rodrigo"])
        assert out == expected_output()

    def test_older_formats_not_integrity_verified(self, tmp_path):
        path, _ = make_checkpoint(tmp_path, fmt=2)
        snap = read_checkpoint(path)
        desc = describe_snapshot(snap)
        assert desc["integrity_verified"] is False

    def test_format_env_parsing(self):
        # The format is not a knob: writers emit the newest profile.
        assert VMConfig.from_env({"CHKPT_FORMAT": "v2"}) == VMConfig()
        assert VMConfig.from_env({"CHKPT_RETAIN": "2"}).chkpt_retain == 2
