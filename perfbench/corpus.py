"""Seeded benchmark inputs: never-seen program variants and training sets.

Every input is derived from the workload seed alone.  Test programs are
variants of the twelve SPEC stand-in profiles built as
``mutate_profile(profile, variant_seed) -> generate_source -> compile_pair``,
so the translator sees programs whose exact instruction mix it was never
trained on (the paper's held-out evaluation).  Each program carries the
reference interpreter's final architectural snapshot, computed once during
set-up; every timed operation is checked against it with
:func:`repro.difftest.oracle.diff_snapshots`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.dbt.block import BlockMap
from repro.dbt.guest_interp import GuestInterpreter
from repro.difftest.oracle import assemble_program, diff_snapshots
from repro.isa.arm.assembler import disassemble
from repro.lang import CompiledPair, compile_pair
from repro.workloads import (
    BENCHMARK_NAMES,
    PROFILE_BY_NAME,
    compiled_benchmark,
    generate_source,
    mutate_profile,
)


@dataclass(frozen=True)
class Program:
    """One test program plus everything needed to check a run of it."""

    name: str
    pair: CompiledPair
    #: reference interpreter's final architectural snapshot (the oracle).
    reference: dict
    #: basic blocks in the program's block map (code-cache entries per stage).
    blocks: int

    @property
    def unit(self):
        return self.pair.guest

    def assembly(self) -> List[str]:
        """Guest program as assembly lines (the service's ``program`` form)."""
        return disassemble(self.pair.guest.instructions).split("\n")

    def mismatch(self, snapshot: dict) -> Optional[str]:
        """Why *snapshot* differs from the reference, or None when it matches."""
        divergence = diff_snapshots(self.reference, snapshot)
        return None if divergence is None else str(divergence)


def variant_seed(seed: int, round_index: int, profile_index: int) -> int:
    """Distinct mutation seed per (workload seed, round, profile)."""
    return (seed * 1_000_003 + round_index * 101 + profile_index) & 0x7FFFFFFF


def variant_pair(name: str, vseed: int, repeat_scale: int = 1) -> CompiledPair:
    """Compile one never-seen variant of the stand-in profile *name*."""
    profile = mutate_profile(PROFILE_BY_NAME[name], vseed)
    if repeat_scale != 1:
        profile = replace(profile, repeats=profile.repeats * repeat_scale)
    return compile_pair(profile.name, generate_source(profile), pic=profile.pic)


def make_program(pair: CompiledPair) -> Program:
    reference = GuestInterpreter(pair.guest).run(count_sites=False)
    return Program(
        name=pair.name,
        pair=pair,
        reference=reference.architectural_snapshot(),
        blocks=len(BlockMap(pair.guest).blocks),
    )


def program_rounds(
    seed: int, rounds: int, repeat_scale: int = 1
) -> List[List[Program]]:
    """``rounds`` lists holding one fresh variant of every stand-in profile."""
    return [
        [
            make_program(variant_pair(name, variant_seed(seed, r, i), repeat_scale))
            for i, name in enumerate(BENCHMARK_NAMES)
        ]
        for r in range(rounds)
    ]


def round_trips(program: Program) -> bool:
    """Does the program survive disassembly -> assembly with its reference?"""
    unit = assemble_program(program.assembly())
    snapshot = GuestInterpreter(unit).run(count_sites=False).architectural_snapshot()
    return snapshot == program.reference


def training_sets(
    seed: int, count: int, low: int = 2, high: int = 6
) -> List[Tuple[Tuple[str, int], ...]]:
    """``count`` small training sets of (profile, variant seed) members.

    Variant seed 0 stands for the unmodified SPEC stand-in; the others are
    seeded variants.  Set ``k`` has ``low + k mod (high - low + 1)`` pairs,
    the paper's "less training data" regime.  The sets walk the stand-in
    profiles in order, so every seed learns the same sizes of the same
    profiles: seeds change the programs, not how much is learned.
    """
    sets = []
    start = 0
    for k in range(count):
        rng = random.Random(seed * 7919 + k)
        size = low + k % (high - low + 1)
        names = [BENCHMARK_NAMES[(start + j) % len(BENCHMARK_NAMES)] for j in range(size)]
        start += size
        sets.append(
            tuple(
                (name, 0 if rng.random() < 0.5 else rng.randrange(1, 1 << 30))
                for name in names
            )
        )
    return sets


def training_pair(name: str, vseed: int) -> CompiledPair:
    if vseed == 0:
        return compiled_benchmark(name)
    return variant_pair(name, vseed)
