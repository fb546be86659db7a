"""The corruption-matrix fuzz harness (CI job + ``repro faults fuzz``).

A full checkpoint is a delta chain of one, so there is one matrix: one
incremental chain per origin platform, damaged one link at a time and
restored with generation fallback on every target platform.  The
damage is the seeded mutation plan (split between the head, a v4
delta, and the chain's full base, so both profiles' sections are under
mutation) plus four link scenarios: a control, a corrupt base, a
corrupt middle delta, and a valid but *wrong* file swapped into the
head's parent slot.

The invariant, checked by one function for every case: while a healthy
generation exists, the fallback restore never raises; its output is
bit-identical to the baseline of the generation it restored; and a
swapped-in parent is never accepted as the head's.  Anything else (an
uncaught exception, a hang, or a restore that "succeeds" with wrong
output) is a harness failure, reported per case.
"""

from __future__ import annotations

import io
import random
import tempfile
from typing import Callable, Optional

from repro.arch.platforms import PLATFORMS, Platform
from repro.checkpoint.commit import generation_chain
from repro.checkpoint.format import read_section_table
from repro.checkpoint.reader import restart_vm, restart_vm_with_fallback
from repro.checkpoint.schema import FormatProfile
from repro.errors import RestartError
from repro.faults.injectors import Mutation, apply_mutation, plan_mutations
from repro.minilang import compile_source
from repro.vm import VMConfig, VirtualMachine

#: One platform per architecture class (32/64 bits x little/big endian);
#: the pairs of these four cover every conversion the restart path has.
ARCH_REPRESENTATIVES = ("rodrigo", "csd", "sp2148", "ultra64")

#: Six checkpoints under ``chkpt_incremental`` with ``full_every=3`` and
#: ``retain=5`` leave :data:`CHAIN_SHAPE` on disk.  The state spans heap
#: (list, array, string, boxed float), a closure over a mutable cell,
#: and a deep stack: the head is taken 40 frames down a recursion.
FUZZ_PROGRAM = """
let rec build n acc = if n = 0 then acc else build (n - 1) (n :: acc);;
let rec sum l = match l with [] -> 0 | h :: t -> h + sum t;;
let data = build 120 [];;
let arr = Array.make 16 0;;
let () = for i = 0 to 15 do arr.(i) <- i * 3 done;;
let tag = "s:" ^ string_of_int (sum data);;
let f = 1.5;;
let tick = let c = ref 0 in fun () -> begin c := !c + 1; !c end;;
let bump k = for i = 0 to 15 do arr.(i) <- arr.(i) + k done;;
checkpoint ();;
bump 1;;
print_int (arr.(5) + tick ());;
print_string ";";;
checkpoint ();;
bump 2;;
print_string tag;;
print_string ";";;
checkpoint ();;
bump 3;;
print_int (arr.(11) + tick ());;
print_string ";";;
checkpoint ();;
bump 4;;
print_float (f *. 4.0);;
print_string ";";;
checkpoint ();;
let rec deep n =
  if n = 0 then begin bump 5; checkpoint (); arr.(2) + tick () end
  else n + deep (n - 1);;
print_int (deep 40 + sum data);;
print_newline ();;
"""

#: The chain the program leaves, newest first (True = v4 delta): head =
#: delta (depth 2), ``.1`` = delta (depth 1), ``.2`` = FULL, ``.3`` =
#: delta (2), ``.4`` = delta (1), ``.5`` = FULL.  Damage to the head's
#: chain always leaves ``.3`` -> ``.5`` healthy to fall back to.
CHAIN_SHAPE = (True, True, False, True, True, False)
HEAD, MIDDLE, BASE = 0, 1, 2

#: The links the mutation plan alternates between: (link, name, kind).
_MUTATED_LINKS = ((HEAD, "head", "delta"), (BASE, "base", "full"))

#: The link scenarios every pair runs besides its planned mutations.
LINK_SCENARIOS = ("control", "corrupt-base", "corrupt-middle", "swap-parent")


def _run_restarted(
    platform: Platform, code, path: str, fallback: bool
) -> tuple[bytes, str]:
    """Restore at ``path`` (walking generations iff ``fallback``) and run
    to completion; returns (stdout, restored file path)."""
    out = io.BytesIO()
    restore = restart_vm_with_fallback if fallback else restart_vm
    # Restarted runs re-execute any later ``checkpoint ()`` calls; those
    # must not overwrite the files under test.
    vm, stats = restore(
        platform, code, path, VMConfig(chkpt_state="disable"), stdout=out
    )
    result = vm.run(max_instructions=20_000_000)
    if result.status != "stopped":
        raise RestartError(f"restarted VM did not stop: {result.status}")
    return result.stdout, stats.restored_path


def _build_chain(origin: str, code, path: str) -> list[bytes]:
    """Run the program on ``origin``; the generations' bytes, newest first."""
    vm = VirtualMachine(
        PLATFORMS[origin],
        code,
        VMConfig(
            chkpt_filename=path,
            chkpt_mode="blocking",
            chkpt_retain=5,
            chkpt_incremental=True,
            chkpt_full_every=3,
        ),
        stdout=io.BytesIO(),
    )
    result = vm.run(max_instructions=20_000_000)
    assert result.status == "stopped" and vm.checkpoints_taken == 6
    pristine = []
    for g in generation_chain(path):
        with open(g, "rb") as f:
            pristine.append(f.read())
    magic = FormatProfile.delta_profile().magic
    kinds = tuple(data[: len(magic)] == magic for data in pristine)
    assert kinds == CHAIN_SHAPE, f"{origin}: unexpected chain shape {kinds}"
    return pristine


def _flip_bytes(data: bytes, rng: random.Random) -> bytes:
    """XOR three random bytes of ``data`` with random non-zero values."""
    buf = bytearray(data)
    for _ in range(3):
        buf[rng.randrange(len(buf))] ^= rng.randrange(1, 256)
    return bytes(buf)


def _scenario(
    name: str, pristine: list[bytes], rng: random.Random
) -> tuple[int, bytes, Optional[str]]:
    """One link scenario: (damaged link, its bytes, expected winner)."""
    if name == "control":
        return HEAD, pristine[HEAD], "head"
    if name == "swap-parent":
        # A valid FULL file with the wrong identity: only the parent-SHA
        # binding can tell, and the fallback then restores it as itself.
        return MIDDLE, pristine[BASE], "fallback"
    link = BASE if name == "corrupt-base" else MIDDLE
    return link, _flip_bytes(pristine[link], rng), None


def fuzz_matrix(
    seed: int = 2002,
    mutations: int = 200,
    platforms: Optional[list[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run the corruption matrix; returns a JSON-able report.

    ``mutations`` is the total budget, spread round-robin across all
    ordered (origin, target) platform pairs and alternating between the
    head and the full base, so every conversion path sees early and late
    entries of both links' plans.  Every pair also runs each of
    :data:`LINK_SCENARIOS` once.
    """
    names = list(platforms or ARCH_REPRESENTATIVES)
    for n in names:
        if n not in PLATFORMS:
            raise ValueError(f"unknown platform {n!r}")
    code = compile_source(FUZZ_PROGRAM)
    pairs = [(o, t) for o in names for t in names]
    report: dict = {
        "seed": seed,
        "pairs": len(pairs),
        "mutations": 0,
        "mutated_links": {"delta": 0, "full": 0},
        "scenarios": dict.fromkeys(LINK_SCENARIOS, 0),
        "outcomes": {"clean_restore": 0, "detected_and_recovered": 0},
        "failures": [],
        "ok": True,
    }
    per_pair = -(-mutations // len(pairs))

    with tempfile.TemporaryDirectory() as td:
        chains = {o: _build_chain(o, code, f"{td}/{o}.hckp") for o in names}
        for pair_idx, (origin, target) in enumerate(pairs):
            pristine = chains[origin]
            gens = generation_chain(f"{td}/{origin}.hckp")
            baselines = [
                _run_restarted(PLATFORMS[target], code, g, fallback=False)[0]
                for g in gens
            ]
            cases: list[tuple[str, int, bytes, Optional[str]]] = []
            plans = {
                link: iter(
                    plan_mutations(
                        len(pristine[link]),
                        seed=(seed * 1000 + pair_idx) * 2 + k,
                        count=per_pair,
                        section_table=read_section_table(pristine[link]),
                    )
                )
                for k, (link, _name, _kind) in enumerate(_MUTATED_LINKS)
            }
            for _ in range(min(per_pair, mutations - report["mutations"])):
                link, name, kind = _MUTATED_LINKS[report["mutations"] % 2]
                m: Mutation = next(plans[link])
                report["mutations"] += 1
                report["mutated_links"][kind] += 1
                cases.append((
                    f"{name}: {m.describe()}",
                    link, apply_mutation(pristine[link], m), None,
                ))
            for si, scenario in enumerate(LINK_SCENARIOS):
                report["scenarios"][scenario] += 1
                rng = random.Random(seed * 1000 + pair_idx * 10 + si)
                cases.append((scenario, *_scenario(scenario, pristine, rng)))
            for label, link, damaged, expect in cases:
                _check(
                    report, f"{origin}->{target}", label, PLATFORMS[target],
                    code, gens, pristine, baselines, link, damaged, expect,
                )
            if progress is not None:
                progress(
                    f"{origin}->{target}: {report['mutations']} mutation(s), "
                    f"{len(report['failures'])} failure(s)"
                )

    report["ok"] = not report["failures"]
    return report


def _check(
    report: dict,
    pair: str,
    label: str,
    target: Platform,
    code,
    gens: list[str],
    pristine: list[bytes],
    baselines: list[bytes],
    link: int,
    damaged: bytes,
    expect: Optional[str],
) -> None:
    """Put ``damaged`` at generation ``link``, restore the head with
    fallback, and check the invariant.

    ``expect`` pins which generation must win: ``"head"`` (the control),
    ``"fallback"`` (a swapped-in parent must be rejected), or ``None``
    (a mutation may be a no-op on the parsed image).  The expected
    output is the baseline of the bytes the winning slot holds, so a
    valid file swapped into another slot is judged as itself.
    """
    with open(gens[link], "wb") as f:
        f.write(damaged)
    problem = None
    try:
        out, restored = _run_restarted(target, code, gens[HEAD], fallback=True)
    except RestartError as e:
        problem = f"fallback chain exhausted despite healthy generations: {e}"
    except Exception as e:  # noqa: BLE001 — the invariant bans these
        problem = f"uncaught {type(e).__name__}: {e}"
    else:
        g = gens.index(restored)
        held = damaged if g == link else pristine[g]
        expected = baselines[pristine.index(held) if held in pristine else g]
        if g == HEAD and expect == "fallback":
            problem = "a swapped-in parent was accepted as the head's"
        elif g != HEAD and expect == "head":
            problem = "control restore was not a clean head restore"
        elif out != expected:
            problem = f"restore from {restored} did not match its baseline"
    finally:
        with open(gens[link], "wb") as f:
            f.write(pristine[link])
    if problem is not None:
        report["failures"].append(
            {"pair": pair, "case": label, "problem": problem}
        )
    elif g == HEAD:
        report["outcomes"]["clean_restore"] += 1
    else:
        report["outcomes"]["detected_and_recovered"] += 1
