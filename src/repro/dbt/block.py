"""Guest basic-block discovery.

Blocks are built over the *real* (label-free) instruction index space.
Leaders are: function entries, every label target, and every instruction
following a branch or a call.  A block ends at its terminator branch or just
before the next leader.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from repro.errors import ExecutionError
from repro.isa.arm.opcodes import ARM
from repro.lang.program import CompiledUnit


@dataclass(frozen=True)
class Block:
    """A guest basic block: instruction indices [start, end)."""

    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start


class BlockMap:
    """All blocks of a compiled unit, indexed by start address.

    The map keeps each block's bounds as plain ints (a dict of ints is not
    tracked by the cyclic collector) and builds :class:`Block` values on
    request: an engine's map lives as long as the engine and looks each
    block up once.  ``blocks`` is built on first read (the serving layer
    walks it per request; an engine never reads it).
    """

    def __init__(self, unit: CompiledUnit) -> None:
        self.unit = unit
        instructions = unit.real_instructions
        n = len(instructions)
        leaders = {0} | set(unit.labels.values())
        for i, insn in enumerate(instructions):
            defn = ARM.defn(insn)
            if defn.is_branch and i + 1 < n:
                leaders.add(i + 1)
        ordered = sorted(index for index in leaders if index < n)
        self._ends: Dict[int, int] = dict(zip(ordered, ordered[1:] + [n]))

    @cached_property
    def blocks(self) -> List[Block]:
        """Every block, in address order."""
        return [Block(start, end) for start, end in self._ends.items()]

    def block_at(self, index: int) -> Block:
        end = self._ends.get(index)
        if end is None:
            raise ExecutionError(f"no basic block starts at guest PC {index * 4:#x}")
        return Block(index, end)

    def instructions(self, block: Block) -> Tuple:
        return self.unit.real_instructions[block.start : block.end]

    def live_in_flags(self) -> frozenset:
        """Flags read before being set in any block (cross-block flag use).

        The mini compiler keeps flags block-local, so this is normally
        empty; the translator uses it as a safety net for hand-written
        guest code that carries flags across block boundaries.
        """
        live = set()
        instructions = self.unit.real_instructions
        for start, end in self._ends.items():
            written = set()
            for insn in instructions[start:end]:
                defn = ARM.defn(insn)
                live |= defn.flags_read - written
                written |= defn.flags_set
        return frozenset(live)
