"""Operand value types for npir instructions.

Operands are small immutable value objects:

* :class:`VirtualReg` -- a named virtual register (``%sum``), as written
  in the kernels and consumed by the register allocator.
* :class:`PhysReg` -- a physical register (``$r7``) in the micro-engine's
  shared general-purpose register file.
* :class:`Imm` -- a 32-bit immediate constant (values are wrapped modulo
  2**32 at construction so arithmetic in the simulator stays closed).
* :class:`Label` -- a branch target by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

MASK32 = 0xFFFFFFFF


@dataclass(frozen=True, order=True)
class VirtualReg:
    """A named virtual register, e.g. ``%sum``.

    Registers key the allocator's hottest dicts and sort orders, so the
    hash and string form are computed once at construction.  Both cache
    the exact values the generated methods would produce -- hash-bucket
    and ``str``-sort orders (and therefore every allocator decision)
    are unchanged.
    """

    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name,)))
        object.__setattr__(self, "_str", f"%{self.name}")

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self._str


@dataclass(frozen=True, order=True)
class PhysReg:
    """A physical GPR by index, e.g. ``$r7``.

    Hash and string form are precomputed like :class:`VirtualReg`'s.
    """

    index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.index,)))
        object.__setattr__(self, "_str", f"$r{self.index}")

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self._str


@dataclass(frozen=True, order=True)
class Imm:
    """A 32-bit immediate constant."""

    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value & MASK32)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, order=True)
class Label:
    """A branch-target label by name."""

    name: str

    def __str__(self) -> str:
        return self.name


#: Any register operand.
Reg = Union[VirtualReg, PhysReg]

#: Any operand.
Operand = Union[VirtualReg, PhysReg, Imm, Label]


def is_reg(op: object) -> bool:
    """True when ``op`` is a (virtual or physical) register operand."""
    return isinstance(op, (VirtualReg, PhysReg))
