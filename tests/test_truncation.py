"""Truncation hardening: a checkpoint cut anywhere raises a typed error.

Sweeps real checkpoint files of every format version, cutting them at
every section boundary and at sampled interior offsets.  The reader must
always raise a :class:`~repro.errors.RestartError` subclass that names
the file — never a raw ``struct.error``, ``IndexError`` or similar.
"""

from __future__ import annotations

import io

import pytest

from repro import VirtualMachine, VMConfig, compile_source, get_platform
from repro.checkpoint.format import read_checkpoint, read_section_table
from repro.errors import CheckpointFormatError, RestartError
from tests.oracle import restamp

RODRIGO = get_platform("rodrigo")

PROGRAM = """
let rec build n acc = if n = 0 then acc else build (n - 1) (n :: acc);;
let data = build 30 [];;
let s = "hello truncation";;
checkpoint ();;
print_string s;;
"""


@pytest.fixture(scope="module", params=[1, 2, 3], ids=["v1", "v2", "v3"])
def checkpoint_bytes(request, tmp_path_factory):
    fmt = request.param
    path = str(tmp_path_factory.mktemp("trunc") / f"v{fmt}.hckp")
    code = compile_source(PROGRAM)
    vm = VirtualMachine(
        RODRIGO,
        code,
        VMConfig(chkpt_filename=path, chkpt_mode="blocking"),
        stdout=io.BytesIO(),
    )
    result = vm.run(max_instructions=20_000_000)
    assert result.status == "stopped" and vm.checkpoints_taken == 1
    if fmt != 3:
        restamp(path, path, version=fmt)
    with open(path, "rb") as f:
        return path, f.read()


def cut_offsets(data: bytes) -> list[int]:
    """Every section boundary (±1 where possible) plus an even sample of
    interior offsets and the whole header region byte-by-byte."""
    offsets = set(range(0, min(24, len(data))))
    table = read_section_table(data)
    for s in table or []:
        for off in (s.offset - 1, s.offset, s.offset + 1, s.end - 1, s.end):
            if 0 <= off < len(data):
                offsets.add(off)
    step = max(1, len(data) // 40)
    offsets.update(range(0, len(data), step))
    offsets.add(len(data) - 1)
    return sorted(offsets)


class TestTruncationSweep:
    def test_every_cut_raises_typed_error(self, tmp_path, checkpoint_bytes):
        path, data = checkpoint_bytes
        cut_path = str(tmp_path / "cut.hckp")
        for off in cut_offsets(data):
            with open(cut_path, "wb") as f:
                f.write(data[:off])
            try:
                read_checkpoint(cut_path)
            except RestartError as e:
                assert cut_path in str(e), (
                    f"cut at {off}: error does not name the file: {e}"
                )
            except Exception as e:  # noqa: BLE001 — the point of the test
                pytest.fail(
                    f"cut at {off}/{len(data)} raised untyped "
                    f"{type(e).__name__}: {e}"
                )
            else:
                pytest.fail(f"cut at {off}/{len(data)} parsed successfully")

    def test_truncation_error_names_section_and_offset(
        self, tmp_path, checkpoint_bytes
    ):
        path, data = checkpoint_bytes
        cut_path = str(tmp_path / "cut.hckp")
        # Cut deep inside the body: past the header, before the end.
        with open(cut_path, "wb") as f:
            f.write(data[: len(data) // 2])
        with pytest.raises(CheckpointFormatError) as exc:
            read_checkpoint(cut_path)
        assert exc.value.path == cut_path
        assert exc.value.section is not None
        assert "format v" in str(exc.value)

    def test_empty_and_tiny_files(self, tmp_path):
        cut_path = str(tmp_path / "tiny.hckp")
        for content in (b"", b"H", b"HCKP", b"HCKP\x03\x00", b"HCKP\x03\x00abc"):
            with open(cut_path, "wb") as f:
                f.write(content)
            with pytest.raises(RestartError):
                read_checkpoint(cut_path)

    def test_appended_garbage_detected(self, tmp_path, checkpoint_bytes):
        path, data = checkpoint_bytes
        cut_path = str(tmp_path / "grown.hckp")
        with open(cut_path, "wb") as f:
            f.write(data + b"\x00" * 64)
        with pytest.raises(RestartError):
            read_checkpoint(cut_path)
