"""npir: the network-processor intermediate representation.

A small RISC-style assembly language modelled on the Intel IXP micro-engine
instruction set: one-cycle ALU operations over 32-bit registers, explicit
long-latency memory / packet-queue operations that relinquish the processing
unit, and a voluntary ``ctx`` context-switch instruction.

Public surface:

* :mod:`repro.ir.opcodes` -- the instruction set table.
* :mod:`repro.ir.operands` -- ``VirtualReg`` / ``PhysReg`` / ``Imm`` / ``Label``.
* :mod:`repro.ir.instruction` -- the :class:`Instruction` value type.
* :mod:`repro.ir.program` -- :class:`Program`, an ordered instruction list
  with label resolution.
* :mod:`repro.ir.parser` / :mod:`repro.ir.printer` -- text round-trip.
* :mod:`repro.ir.validate` -- structural validation.
"""

from repro.ir.opcodes import Opcode, OpSpec, SPECS
from repro.ir.operands import Imm, Label, PhysReg, Reg, VirtualReg
from repro.ir.instruction import Instruction
from repro.ir.program import Program
from repro.ir.parser import parse_program
from repro.ir.printer import format_instruction, format_program
from repro.ir.validate import validate_program

__all__ = [
    "Opcode",
    "OpSpec",
    "SPECS",
    "Reg",
    "VirtualReg",
    "PhysReg",
    "Imm",
    "Label",
    "Instruction",
    "Program",
    "parse_program",
    "format_instruction",
    "format_program",
    "validate_program",
]
