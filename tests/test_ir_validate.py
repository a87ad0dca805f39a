"""Unit tests for program validation."""

import pytest

from repro.errors import ValidationError
from repro.ir.instruction import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.operands import Imm, Label, PhysReg, VirtualReg
from repro.ir.parser import parse_program
from repro.ir.program import Program
from repro.ir.validate import validate_program


def test_valid_program_passes(mini_kernel):
    validate_program(mini_kernel)


def test_undefined_branch_target():
    p = parse_program("br nowhere_else\nhalt\n", "t")
    p.labels.clear()
    with pytest.raises(ValidationError):
        validate_program(p)


def test_fall_off_the_end():
    p = parse_program("movi %a, 1\nhalt\n", "t")
    p.instrs.pop()  # drop the halt
    with pytest.raises(ValidationError):
        validate_program(p)


def test_conditional_branch_cannot_be_last():
    with pytest.raises(ValidationError):
        validate_program(parse_program("x:\n beqi %a, 0, x\n", "t"), check_init=False)


def test_mixed_register_kinds_rejected():
    p = Program(
        "t",
        [
            Instruction(Opcode.MOVI, (VirtualReg("a"), Imm(1))),
            Instruction(Opcode.MOV, (PhysReg(0), VirtualReg("a"))),
            Instruction(Opcode.HALT, ()),
        ],
    )
    with pytest.raises(ValidationError):
        validate_program(p)


def test_uninitialised_read_rejected():
    p = parse_program("add %a, %b, %b\nhalt\n", "t")
    with pytest.raises(ValidationError):
        validate_program(p)


def test_uninitialised_read_allowed_when_disabled():
    p = parse_program("add %a, %b, %b\nhalt\n", "t")
    validate_program(p, check_init=False)


def test_uninitialised_on_one_path_rejected():
    p = parse_program(
        """
        movi %x, 1
        beqi %x, 0, skip
        movi %a, 2
    skip:
        add %b, %a, %x
        halt
        """,
        "t",
    )
    with pytest.raises(ValidationError):
        validate_program(p)


def test_defined_on_all_paths_accepted():
    p = parse_program(
        """
        movi %x, 1
        beqi %x, 0, other
        movi %a, 2
        br join
    other:
        movi %a, 3
    join:
        add %b, %a, %x
        halt
        """,
        "t",
    )
    validate_program(p)


def test_label_out_of_range():
    p = parse_program("movi %a, 1\nhalt\n", "t")
    p.labels["ghost"] = 99
    with pytest.raises(ValidationError):
        validate_program(p)


# ---------------------------------------------------------------------------
# The bitmask init check against the set-based dataflow

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tests.test_properties import (  # noqa: E402
    branching_program,
    straightline_program,
)


def set_based_uninit_error(program):
    """The first may-be-uninitialised read as a forward dataflow over
    register sets finds it, worded as ``validate_program`` words it;
    ``None`` when every read is initialised on every path."""
    instrs = program.instrs
    maybe_undef = [None] * len(instrs)
    maybe_undef[0] = set(program.virtual_regs())
    worklist = [0]
    while worklist:
        i = worklist.pop()
        out = maybe_undef[i] - set(instrs[i].defs)
        for succ in program.successors(i):
            prev = maybe_undef[succ]
            if prev is None:
                maybe_undef[succ] = set(out)
                worklist.append(succ)
            elif not out <= prev:
                prev |= out
                worklist.append(succ)
    for i, instr in enumerate(instrs):
        state = maybe_undef[i]
        for reg in instr.uses if state is not None else ():
            if reg in state:
                return (
                    f"program {program.name!r}: {reg} may be read "
                    f"uninitialised at instruction {i} ({instr.opcode})"
                )
    return None


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(straightline_program(), branching_program()), st.data())
def test_init_check_matches_set_based_dataflow(text, data):
    # Drop a few non-control lines: a read whose defs were all dropped
    # on some path becomes uninitialised there.
    lines = text.split("\n")
    droppable = [
        i
        for i, line in enumerate(lines)
        if not line.endswith(":")
        and line.split()[0] not in ("br", "beqi", "blti", "halt")
    ]
    drop = data.draw(st.sets(st.sampled_from(droppable), max_size=3))
    kept = "\n".join(line for i, line in enumerate(lines) if i not in drop)
    program = parse_program(kept, "gen")
    expected = set_based_uninit_error(program)
    if expected is None:
        validate_program(program)
    else:
        with pytest.raises(ValidationError) as info:
            validate_program(program)
        assert str(info.value) == expected


def test_init_check_widens_a_join_reached_first_from_a_def():
    # The taken path defines %a and reaches the join first; the
    # fall-through path then widens the join's state with %a.
    p = parse_program(
        """
        movi %x, 1
        beqi %x, 0, other
        br join
    other:
        movi %a, 3
    join:
        add %b, %a, %x
        halt
        """,
        "t",
    )
    expected = set_based_uninit_error(p)
    assert expected == (
        "program 't': %a may be read uninitialised at instruction 4 (add)"
    )
    with pytest.raises(ValidationError) as info:
        validate_program(p)
    assert str(info.value) == expected
