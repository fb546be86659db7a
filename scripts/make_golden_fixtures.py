#!/usr/bin/env python
"""Generate the golden checkpoint fixtures under tests/fixtures/golden/.

The fixtures pin the exact bytes of every format version (v1-v3 fulls,
a v4 delta chain) on every simulated platform.  They were generated
from the pre-schema-registry writer and are the proof obligation of
every refactor since: the current code must reproduce them bit for bit
(tests/test_schema.py compares).  The writer emits v3 fulls and v4
deltas only; the v1/v2 files are the v3 capture re-stamped, and the
index-less ``full_v3_scalar.hckp`` comes from the word-at-a-time oracle
writer under ``tests/oracle`` — the files the retired ``--format`` and
``--no-vectorize`` writers produced.

Regenerate (only when the format itself legitimately changes) with:

    PYTHONPATH=src python scripts/make_golden_fixtures.py

The programs write only to stdout, so the checkpoint bytes carry no
host-specific paths and the fixtures are reproducible everywhere.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(REPO, "src"), REPO]

from repro.arch.platforms import PLATFORMS  # noqa: E402
from repro.minilang import compile_source  # noqa: E402
from repro.vm import VMConfig, VirtualMachine  # noqa: E402
from tests import oracle  # noqa: E402

#: One checkpoint mid-computation; the state spans a cons list, an
#: array, a string, a float, and a closure-carrying deep stack.
FULL_PROGRAM = """
let rec build n acc = if n = 0 then acc else build (n - 1) (n :: acc);;
let rec sum l = match l with [] -> 0 | h :: t -> h + sum t;;
let data = build 40 [];;
let arr = Array.make 8 0;;
let () = for i = 0 to 7 do arr.(i) <- i * 7 done;;
let tag = "g:" ^ string_of_int (sum data);;
let f = 2.25;;
checkpoint ();;
print_string tag;;
print_string " a=";;
print_int (arr.(2) + arr.(6));;
print_string " f=";;
print_float (f *. 2.0);;
print_newline ();;
"""

#: Three checkpoints with small mutations in between: under
#: ``chkpt_incremental`` with ``retain=2`` the head is a depth-2 delta,
#: ``.1`` a depth-1 delta and ``.2`` the full base.
DELTA_PROGRAM = """
let rec build n acc = if n = 0 then acc else build (n - 1) (n :: acc);;
let keep = build 60 [];;
let rec sum l = match l with [] -> 0 | h :: t -> h + sum t;;
let arr = Array.make 12 0;;
let () = for i = 0 to 11 do arr.(i) <- i * 5 done;;
checkpoint ();;
let () = for i = 0 to 11 do arr.(i) <- arr.(i) + 1 done;;
print_int arr.(3);;
print_string ";";;
checkpoint ();;
let () = for i = 0 to 11 do arr.(i) <- arr.(i) + 2 done;;
print_int arr.(9);;
print_string ";";;
checkpoint ();;
print_int (sum keep + arr.(5));;
print_newline ();;
"""

#: Older full-checkpoint format versions readers must keep restoring.
OLD_VERSIONS = (1, 2)


def run_full(platform_name: str, path: str, scalar: bool = False) -> bytes:
    """Run FULL_PROGRAM with one blocking checkpoint; returns stdout."""
    code = compile_source(FULL_PROGRAM)
    vm = VirtualMachine(
        PLATFORMS[platform_name],
        code,
        VMConfig(chkpt_filename=path, chkpt_mode="blocking"),
    )
    if scalar:
        vm.perform_checkpoint = functools.partial(
            oracle.write_checkpoint, vm, path
        )
    result = vm.run(max_instructions=20_000_000)
    assert result.status == "stopped" and vm.checkpoints_taken == 1
    return result.stdout


def run_delta_chain(platform_name: str, path: str) -> bytes:
    """Run DELTA_PROGRAM building a delta chain at ``path``; stdout."""
    code = compile_source(DELTA_PROGRAM)
    vm = VirtualMachine(
        PLATFORMS[platform_name],
        code,
        VMConfig(
            chkpt_filename=path,
            chkpt_mode="blocking",
            chkpt_retain=2,
            chkpt_incremental=True,
        ),
    )
    result = vm.run(max_instructions=20_000_000)
    assert result.status == "stopped" and vm.checkpoints_taken == 3
    return result.stdout


def generate(root: str) -> dict:
    """Write every fixture under ``root``; returns the manifest dict."""
    manifest: dict = {"programs": {"full": FULL_PROGRAM, "delta": DELTA_PROGRAM},
                      "platforms": {}}
    for name in sorted(PLATFORMS):
        pdir = os.path.join(root, name)
        os.makedirs(pdir, exist_ok=True)
        entry: dict = {"files": {}, "stdout": {}}
        v3 = os.path.join(pdir, "full_v3.hckp")
        entry["stdout"]["full"] = run_full(name, v3).decode()
        entry["files"]["full_v3.hckp"] = _sha(v3)
        for version in OLD_VERSIONS:
            path = os.path.join(pdir, f"full_v{version}.hckp")
            oracle.restamp(v3, path, version)
            entry["files"][f"full_v{version}.hckp"] = _sha(path)
        # The word-at-a-time writer (no block-extent index, list-backed
        # capture) must also stay byte-stable.
        path = os.path.join(pdir, "full_v3_scalar.hckp")
        run_full(name, path, scalar=True)
        entry["files"]["full_v3_scalar.hckp"] = _sha(path)
        head = os.path.join(pdir, "delta.hckp")
        out = run_delta_chain(name, head)
        for fname in ("delta.hckp", "delta.hckp.1", "delta.hckp.2"):
            entry["files"][fname] = _sha(os.path.join(pdir, fname))
        entry["stdout"]["delta"] = out.decode()
        manifest["platforms"][name] = entry
    return manifest


def _sha(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main() -> int:
    root = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "..", "tests", "fixtures", "golden",
    )
    root = os.path.normpath(root)
    manifest = generate(root)
    with open(os.path.join(root, "MANIFEST.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    n = sum(len(e["files"]) for e in manifest["platforms"].values())
    print(f"wrote {n} fixture file(s) under {root}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
