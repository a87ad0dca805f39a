"""Basic-block partitioning of npir programs.

Blocks are maximal straight-line instruction runs: a *leader* is the entry
instruction, any branch target, and any instruction following a branch.
Blocks carry their successor/predecessor block ids, so graph algorithms can
work at block granularity when instruction granularity is overkill.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.ir.program import Program


@dataclass
class BasicBlock:
    """A half-open instruction range ``[start, end)`` of one program."""

    bid: int
    start: int
    end: int
    succs: Tuple[int, ...] = ()
    preds: Tuple[int, ...] = ()

    def __len__(self) -> int:
        return self.end - self.start

    def indices(self) -> range:
        return range(self.start, self.end)

    @property
    def last(self) -> int:
        return self.end - 1


def build_blocks(program: Program) -> List[BasicBlock]:
    """Partition ``program`` into basic blocks with wired-up edges."""
    n = len(program.instrs)
    leaders = {0}
    for i, instr in enumerate(program.instrs):
        if instr.spec.is_branch:
            leaders.add(program.resolve(instr.target.name))
            if i + 1 < n:
                leaders.add(i + 1)
        elif instr.spec.is_halt and i + 1 < n:
            leaders.add(i + 1)
    ordered = sorted(leaders)
    blocks: List[BasicBlock] = []
    block_of: Dict[int, int] = {}
    for bid, start in enumerate(ordered):
        end = ordered[bid + 1] if bid + 1 < len(ordered) else n
        blocks.append(BasicBlock(bid=bid, start=start, end=end))
        block_of[start] = bid

    preds: List[List[int]] = [[] for _ in blocks]
    for block in blocks:
        succ_ids = tuple(
            block_of[s] for s in program.successors(block.last)
        )
        block.succs = succ_ids
        for s in succ_ids:
            preds[s].append(block.bid)
    for block in blocks:
        block.preds = tuple(preds[block.bid])
    return blocks
