"""Color -> physical-register assignment across one PU's threads.

The register file of ``Nreg`` physical registers is laid out as::

    [ thread0 private | thread1 private | ... | globally shared | unused ]

Thread ``i``'s private colors ``0 .. PR_i - 1`` map into its private
window; shared colors ``PR_i .. PR_i + SR_i - 1`` map into the one
globally shared window of ``SGR = max_i SR_i`` registers, *identically
for every thread* -- that is exactly what makes them shared.  The safety
obligation (values in the shared window are dead at every CSB of their
thread) is guaranteed by the allocator and re-checked dynamically by the
simulator's paranoid mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.inter import InterThreadResult
from repro.errors import AllocationError
from repro.ir.operands import PhysReg


@dataclass
class ThreadRegisterMap:
    """Physical mapping for one thread."""

    private_base: int
    pr: int
    sr: int
    shared_base: int

    def phys(self, color: int) -> PhysReg:
        if color < 0 or color >= self.pr + self.sr:
            raise AllocationError(
                f"color {color} outside palette (pr={self.pr}, sr={self.sr})"
            )
        if color < self.pr:
            return PhysReg(self.private_base + color)
        return PhysReg(self.shared_base + (color - self.pr))

    def private_registers(self) -> Tuple[int, int]:
        """Half-open physical index range of this thread's private window."""
        return (self.private_base, self.private_base + self.pr)


@dataclass
class RegisterAssignment:
    """Physical layout for all threads of one PU."""

    maps: List[ThreadRegisterMap]
    shared_base: int
    sgr: int
    nreg: int

    def shared_registers(self) -> Tuple[int, int]:
        return (self.shared_base, self.shared_base + self.sgr)


def assign_physical(result: InterThreadResult) -> RegisterAssignment:
    """Lay out private windows and the shared window for a PU."""
    total_private = result.total_private
    sgr = result.sgr
    if total_private + sgr > result.nreg:
        raise AllocationError(
            f"allocation needs {total_private} private + {sgr} shared "
            f"registers, more than Nreg={result.nreg}"
        )
    maps: List[ThreadRegisterMap] = []
    base = 0
    shared_base = total_private
    for t in result.threads:
        maps.append(
            ThreadRegisterMap(
                private_base=base,
                pr=t.pr,
                sr=t.sr,
                shared_base=shared_base,
            )
        )
        base += t.pr
    return RegisterAssignment(
        maps=maps, shared_base=shared_base, sgr=sgr, nreg=result.nreg
    )
