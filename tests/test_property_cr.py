"""Property-based end-to-end test of the C/R invariant.

For randomly generated MiniML programs with a checkpoint inserted at a
random position, and for every (origin, target) platform combination
drawn: the output of the run that was checkpointed equals the output of
the uninterrupted run, and the restarted run reproduces it exactly —
even across endianness and word-size changes.

(Outputs here are small, so the stdout buffer never flushes before the
checkpoint; buffered output travels with the checkpoint and the
restarted run therefore replays the *full* output.)

The same random programs, cut at random instruction counts into a
sequence of incremental generations, drive the warm standby: after
every generation its resident VM — folded in place or restored afresh —
equals a cold restore and the word-at-a-time oracle's restore of the
standby's own chain (``tests/test_standby_inplace.py`` holds the
deterministic cases and the :class:`Replica` driver).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    VirtualMachine,
    VMConfig,
    compile_source,
    get_platform,
    restart_vm,
)
from tests.test_standby_inplace import Replica, reference_run

PLATFORM_NAMES = ["rodrigo", "csd", "sp2148", "ultra64"]

#: Statement templates over the fixed global state; {k}/{i}/{j} are
#: filled with small random ints.
STATEMENTS = [
    "r := !r + {k}",
    "r := !r * 2 + {i}",
    "arr.({i}) <- !r + arr.({j})",
    "arr.({i}) <- arr.({i}) + {k}",
    "lst := {k} :: !lst",
    "lst := (match !lst with [] -> [{i}] | h :: t -> (h + {j}) :: t)",
    "fl := !fl *. 1.5",
    "fl := !fl +. float_of_int !r",
    "s := !s ^ \"{c}\"",
    "s := string_of_int ({k}) ^ !s",
    "let tmp = Array.make {arrn} ({k}) in r := !r + tmp.({i} mod {arrn})",
    "if !r mod 2 = 0 then r := !r + 1 else arr.(0) <- arr.(0) + 1",
    "for q = 1 to {i} + 1 do r := !r + q done",
    "buf.[{i} + {arrn}] <- '{c}'",
]

PRELUDE = """
let r = ref 0;;
let arr = Array.make 8 0;;
let lst = ref [];;
let fl = ref 1.5;;
let s = ref "a";;
let buf = String.make 14 'b';;
"""

DIGEST = """
let rec suml l = match l with [] -> 0 | h :: t -> h + suml t;;
print_int !r;;
print_string " [";;
for i = 0 to 7 do begin print_int arr.(i); print_string ";" end done;;
print_string "] ";;
print_int (suml !lst);;
print_string (" " ^ !s ^ " " ^ buf ^ " ");;
print_float !fl
"""


def random_statements(draw, n: int) -> list[str]:
    stmts = []
    for _ in range(n):
        template = draw(st.sampled_from(STATEMENTS))
        stmt = template.format(
            k=draw(st.integers(-50, 50)),
            i=draw(st.integers(0, 7)),
            j=draw(st.integers(0, 7)),
            c=draw(st.sampled_from("xyz")),
            arrn=draw(st.integers(1, 6)),
        )
        stmts.append(stmt)
    return stmts


@st.composite
def program_with_checkpoint(draw):
    n = draw(st.integers(2, 10))
    stmts = random_statements(draw, n)
    cut = draw(st.integers(0, n))
    body = ";;\n".join(stmts[:cut] + ["checkpoint ()"] + stmts[cut:])
    origin = draw(st.sampled_from(PLATFORM_NAMES))
    target = draw(st.sampled_from(PLATFORM_NAMES))
    return PRELUDE + body + ";;\n" + DIGEST, origin, target


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(program_with_checkpoint())
def test_checkpoint_restart_is_transparent(tmp_path_factory, case):
    src, origin_name, target_name = case
    tmp = tmp_path_factory.mktemp("prop")
    path = str(tmp / "prop.hckp")
    code = compile_source(src)

    # Reference: uninterrupted run on the origin platform.
    ref_vm = VirtualMachine(
        get_platform(origin_name), code, VMConfig(chkpt_state="disable")
    )
    ref = ref_vm.run(max_instructions=5_000_000)
    assert ref.status == "stopped"

    # Checkpointed run on the origin platform.
    vm = VirtualMachine(
        get_platform(origin_name),
        code,
        VMConfig(chkpt_filename=path, chkpt_mode="blocking"),
    )
    first = vm.run(max_instructions=5_000_000)
    assert first.status == "stopped"
    assert first.stdout == ref.stdout  # checkpointing never perturbs output
    assert vm.checkpoints_taken == 1

    # Restart on the target platform: identical output.
    vm2, _ = restart_vm(get_platform(target_name), code, path)
    second = vm2.run(max_instructions=5_000_000)
    assert second.status == "stopped"
    assert second.stdout == ref.stdout
    vm2.mem.heap.check_integrity()


@st.composite
def program_with_generations(draw):
    """A longer random program, the instruction counts at which its
    primary checkpoints, the dirty-region size, the periodic-full
    cadence (0: none), and the platforms."""
    stmts = random_statements(draw, draw(st.integers(4, 16)))
    budgets = draw(st.lists(st.integers(3, 90), min_size=2, max_size=8))
    region_words = draw(st.sampled_from([16, 128, 1024]))
    full_every = draw(st.sampled_from([0, 2, 3]))
    origin = draw(st.sampled_from(PLATFORM_NAMES))
    target = draw(st.sampled_from(PLATFORM_NAMES))
    src = PRELUDE + ";;\n".join(stmts) + ";;\n" + DIGEST
    return src, budgets, region_words, full_every, origin, target


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(program_with_generations())
def test_standby_resident_vm_equals_cold_restart(tmp_path_factory, case):
    src, budgets, region_words, full_every, origin, target = case
    code = compile_source(src)
    rep = Replica(
        code, origin, target, tmp_path_factory.mktemp("standby"),
        primary={"chkpt_region_words": region_words,
                 "chkpt_full_every": full_every},
    )
    for budget in budgets:
        if rep.ship(budget) is None:
            break
        rep.check()
    if rep.last is not None:
        rep.finish(reference_run(code, origin))
