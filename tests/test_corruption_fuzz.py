"""The corruption-matrix invariant, in-suite (CI runs the full matrix).

Every seeded mutation of a delta chain's head or full base must produce
either a clean restore (bit-identical output) or a typed detection
followed by a successful fallback to a retained generation — never an
uncaught exception, never silently wrong output.
"""

from __future__ import annotations

import pytest

from repro.faults import fuzz_matrix
from repro.faults.injectors import (
    Mutation,
    apply_mutation,
    mutate_bytes,
    plan_mutations,
)


class TestMutationPrimitives:
    def test_plan_is_deterministic(self):
        a = plan_mutations(10_000, seed=42, count=20)
        b = plan_mutations(10_000, seed=42, count=20)
        assert a == b
        c = plan_mutations(10_000, seed=43, count=20)
        assert a != c

    def test_plan_mixes_kinds(self):
        plan = plan_mutations(10_000, seed=1, count=100)
        kinds = {m.kind for m in plan}
        assert kinds == {"truncate", "bitflip"}

    def test_truncate(self):
        assert apply_mutation(b"abcdef", Mutation("truncate", 3)) == b"abc"

    def test_bitflip_is_involution(self):
        data = bytes(range(64))
        m = Mutation("bitflip", 10, bit=5)
        once = apply_mutation(data, m)
        assert once != data
        assert apply_mutation(once, m) == data

    def test_section_swap(self):
        data = b"AAAABBBBCCCC"
        m = Mutation("section-swap", 0, length=4, other=8)
        assert apply_mutation(data, m) == b"CCCCBBBBAAAA"
        assert apply_mutation(data, m) != data

    def test_input_never_mutated(self):
        data = bytes(100)
        for m in plan_mutations(len(data), seed=3, count=10):
            apply_mutation(data, m)
        assert data == bytes(100)

    def test_mutate_bytes_convenience(self):
        out = mutate_bytes(b"\x00" * 500, seed=9, count=5)
        assert len(out) == 5
        assert all(o != b"\x00" * 500 for o in out)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            apply_mutation(b"xy", Mutation("scramble", 0))


class TestFuzzMatrix:
    def test_invariant_holds_on_sampled_matrix(self):
        report = fuzz_matrix(
            seed=7, mutations=24, platforms=["rodrigo", "sp2148"]
        )
        assert report["ok"], report["failures"]
        assert report["mutations"] == 24
        assert report["mutated_links"] == {"delta": 12, "full": 12}
        assert report["pairs"] == 4
        outcomes = report["outcomes"]
        assert sum(outcomes.values()) == 24 + sum(
            report["scenarios"].values()
        )
        # With a CRC-trailed chain, essentially every mutation is
        # detected and a retained generation takes over.
        assert outcomes["detected_and_recovered"] > 0

    def test_report_is_deterministic(self):
        a = fuzz_matrix(seed=11, mutations=6, platforms=["rodrigo"])
        b = fuzz_matrix(seed=11, mutations=6, platforms=["rodrigo"])
        assert a == b

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError):
            fuzz_matrix(seed=1, mutations=1, platforms=["vax780"])

    def test_cross_endian_pair_with_section_swaps(self):
        """Big-endian origin, little-endian target — plus enough budget
        that the plan includes section swaps."""
        report = fuzz_matrix(
            seed=5, mutations=10, platforms=["ultra64", "rodrigo"]
        )
        assert report["ok"], report["failures"]
