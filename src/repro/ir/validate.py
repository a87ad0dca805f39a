"""Structural validation of npir programs.

:func:`validate_program` checks the rules every later pass assumes:

* all branch targets resolve to an in-range instruction;
* no label points outside the instruction list;
* control flow cannot fall off the end of the program;
* register operands are uniformly virtual or uniformly physical (a mixed
  program would confuse the allocator and the simulator);
* every virtual register is defined on every path before each use
  (a dataflow check, so uninitialised reads never reach the simulator).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ValidationError
from repro.ir.operands import PhysReg, Reg, VirtualReg
from repro.ir.program import Program


def validate_program(program: Program, check_init: bool = True) -> None:
    """Raise :class:`ValidationError` on any structural problem."""
    instrs = program.instrs
    n = len(instrs)
    if n == 0:
        raise ValidationError(f"program {program.name!r} is empty")
    for label, index in program.labels.items():
        if not 0 <= index < n:
            raise ValidationError(
                f"program {program.name!r}: label {label!r} points at "
                f"{index}, outside [0, {n})"
            )
    # Register operands are exactly the D and U roles (the Instruction
    # constructor enforces it), so one scan of the operands finds them.
    has_virtual = has_phys = False
    for instr in instrs:
        if instr.spec.is_branch:
            program.resolve(instr.target.name)  # raises when undefined
        for op in instr.operands:
            if isinstance(op, VirtualReg):
                has_virtual = True
            elif isinstance(op, PhysReg):
                has_phys = True
    last = instrs[-1].spec
    if not (last.is_halt or (last.is_branch and not last.is_cond)):
        raise ValidationError(
            f"program {program.name!r}: control falls off the end "
            f"(last instruction is {instrs[-1].opcode})"
        )
    if has_virtual and has_phys:
        raise ValidationError(
            f"program {program.name!r} mixes virtual and physical registers"
        )

    if check_init and has_virtual:
        _check_defined_before_use(program)


def _check_defined_before_use(program: Program) -> None:
    """Forward may-be-uninitialised analysis over virtual registers.

    Each defined register gets one bit; ``maybe_undef[i]`` is the mask
    of registers possibly uninitialised before instruction ``i``
    (``None`` while ``i`` is unreached).  A register no instruction
    defines is uninitialised wherever it is read.  Only called for a
    program whose registers are all virtual.
    """
    instrs = program.instrs
    bits: Dict[Reg, int] = {}
    kills: List[int] = []
    for instr in instrs:
        m = 0
        for reg in instr.defs:
            bit = bits.get(reg)
            if bit is None:
                bit = bits[reg] = 1 << len(bits)
            m |= bit
        kills.append(m)
    maybe_undef: List[Optional[int]] = [None] * len(instrs)
    maybe_undef[0] = (1 << len(bits)) - 1
    worklist = [0]
    while worklist:
        i = worklist.pop()
        out = maybe_undef[i] & ~kills[i]  # type: ignore[operator]
        for succ in program.successors(i):
            prev = maybe_undef[succ]
            if prev is None:
                maybe_undef[succ] = out
                worklist.append(succ)
            elif out & ~prev:
                maybe_undef[succ] = prev | out
                worklist.append(succ)
    for i, instr in enumerate(instrs):
        state = maybe_undef[i]
        if state is None:
            continue  # unreachable code: nothing to check
        for reg in instr.uses:
            bit = bits.get(reg)
            if bit is None or state & bit:
                raise ValidationError(
                    f"program {program.name!r}: {reg} may be read "
                    f"uninitialised at instruction {i} ({instr.opcode})"
                )
