#!/usr/bin/env python
"""Fail if hand-rolled format-version ladders reappear outside the schema.

The whole point of the section-codec registry is that exactly one place
— ``src/repro/checkpoint/schema/`` — knows what each format version
means.  Anywhere else, code must branch on profile capabilities
(``profile.integrity_trailer``, ``profile.delta`` ...) obtained from
:class:`repro.checkpoint.schema.FormatProfile`, never on the version
number itself.  This lint keeps it that way: it greps the source tree
for comparisons between a version-ish name and an integer literal and
exits non-zero when it finds one outside the schema package.

A second check guards the section-handle refactor the same way: the
whole-body parse/verify primitives (``_parse_checkpoint``,
``_parse_body`` ...) are implementation details
of :class:`repro.checkpoint.schema.SnapshotSource` and the format
module that hosts them.  Every other consumer must go through
``SnapshotSource`` / ``read_checkpoint`` so reads stay section-scoped
and the lazy accounting stays truthful — a direct call anywhere else
fails the lint.

Run from the repo root::

    python scripts/check_no_version_ladders.py

Exit status 0 = clean, 1 = ladders found (each printed as
``path:line: offending source``).
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOWED = SRC / "repro" / "checkpoint" / "schema"

_CMP = r"(?:==|!=|<=|>=|<|>)"
_NAME = r"(?:format_version|version)"
# name <op> literal, or literal <op> name — either spelling of a ladder.
LADDER = re.compile(
    rf"\b{_NAME}\s*{_CMP}\s*\d|\b\d\s*{_CMP}\s*{_NAME}\b"
)


#: Whole-body parse/verify primitives private to the schema package and
#: the format module.  Callers elsewhere must use SnapshotSource (or the
#: read_checkpoint / load_snapshot_chain wrappers built on it).
WHOLE_BODY = re.compile(
    r"\b(?:_parse_checkpoint|_parse_body|_locate_parse_end)\s*\("
)

#: Files allowed to call the whole-body primitives: the schema package
#: (SnapshotSource's delegation paths) and the format module that
#: defines them.
WHOLE_BODY_ALLOWED = (SRC / "repro" / "checkpoint" / "format.py",)


def find_ladders() -> list[tuple[pathlib.Path, int, str]]:
    hits: list[tuple[pathlib.Path, int, str]] = []
    for path in sorted(SRC.rglob("*.py")):
        if ALLOWED in path.parents:
            continue
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        ):
            code = line.split("#", 1)[0]
            if LADDER.search(code):
                hits.append((path, lineno, line.strip()))
    return hits


def find_whole_body_reads() -> list[tuple[pathlib.Path, int, str]]:
    hits: list[tuple[pathlib.Path, int, str]] = []
    for path in sorted(SRC.rglob("*.py")):
        if ALLOWED in path.parents or path in WHOLE_BODY_ALLOWED:
            continue
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        ):
            code = line.split("#", 1)[0]
            if WHOLE_BODY.search(code):
                hits.append((path, lineno, line.strip()))
    return hits


def main() -> int:
    hits = find_ladders()
    for path, lineno, line in hits:
        rel = path.relative_to(ROOT)
        print(f"{rel}:{lineno}: version ladder outside checkpoint/schema: "
              f"{line}")
    body_hits = find_whole_body_reads()
    for path, lineno, line in body_hits:
        rel = path.relative_to(ROOT)
        print(f"{rel}:{lineno}: whole-body parse outside checkpoint/schema: "
              f"{line}")
    status = 0
    if hits:
        print(f"\n{len(hits)} version comparison(s) found. Branch on "
              f"FormatProfile capabilities instead.", file=sys.stderr)
        status = 1
    if body_hits:
        print(f"\n{len(body_hits)} direct whole-body read(s) found. Go "
              f"through SnapshotSource instead.", file=sys.stderr)
        status = 1
    if status == 0:
        print("no version ladders or whole-body reads outside "
              "src/repro/checkpoint/schema — OK")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
