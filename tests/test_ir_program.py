"""Unit tests for the Program container."""

import pytest

from repro.errors import ValidationError
from repro.ir.opcodes import Opcode
from repro.ir.parser import parse_program
from repro.ir.program import Program


def test_successors_fallthrough(straight):
    assert straight.successors(0) == (1,)


def test_successors_halt(straight):
    last = len(straight.instrs) - 1
    assert straight.successors(last) == ()


def test_successors_conditional(fig3_t1):
    # The bnei at index 2 falls through and jumps to L1.
    succs = fig3_t1.successors(2)
    assert 3 in succs
    assert fig3_t1.labels["L1"] in succs


def test_successors_unconditional(fig3_t1):
    br = next(
        i for i, ins in enumerate(fig3_t1.instrs) if ins.opcode is Opcode.BR
    )
    assert fig3_t1.successors(br) == (fig3_t1.labels["L2"],)


def test_resolve_unknown_label(straight):
    with pytest.raises(ValidationError):
        straight.resolve("ghost")


def test_label_queries(mini_kernel):
    idx = mini_kernel.labels["loop"]
    assert mini_kernel.labels_at(idx) == ["loop"]
    assert mini_kernel.labels_at(idx + 1) == []


def test_virtual_and_phys_regs(mini_kernel):
    assert mini_kernel.virtual_regs()
    assert not mini_kernel.phys_regs()


def test_count_opcode(mini_kernel):
    assert mini_kernel.count_opcode(Opcode.HALT) == 1
    assert mini_kernel.count_opcode(Opcode.RECV) == 1


def test_copy_is_structural(mini_kernel):
    clone = mini_kernel.copy()
    clone.instrs.pop()
    clone.labels["extra"] = 0
    assert len(mini_kernel.instrs) == len(clone.instrs) + 1
    assert "extra" not in mini_kernel.labels


def test_iteration_and_len(straight):
    assert len(straight) == len(straight.instrs)
    assert list(straight) == straight.instrs


def test_target_pcs_resolved(mini_kernel):
    targets = mini_kernel.target_pcs()
    assert len(targets) == len(mini_kernel.instrs)
    loop_pc = mini_kernel.labels["loop"]
    resolved = [t for t in targets if t is not None]
    assert loop_pc in resolved
    for pc, target in enumerate(targets):
        instr = mini_kernel.instrs[pc]
        if not instr.spec.is_branch:
            assert target is None
        else:
            assert target == mini_kernel.labels[instr.target.name]


def test_target_pcs_straightline_all_none(straight):
    assert straight.target_pcs() == tuple(
        None for _ in straight.instrs
    )


def test_undefined_label_still_rejected_at_validate():
    # Regression guard: pre-resolving branch targets for the fast
    # engine must not weaken validation of dangling labels.
    from repro.ir.validate import validate_program

    program = parse_program("movi %a, 1\nbr nowhere\nhalt\n", "bad")
    with pytest.raises(ValidationError, match="nowhere"):
        validate_program(program)
    # target_pcs itself stays lazy about dangling labels (None entry);
    # validation above is the front line, decode is the second.
    assert program.target_pcs()[1] is None


def test_undefined_label_rejected_at_decode():
    from repro.errors import ValidationError as VE
    from repro.sim.decode import decode_program

    program = parse_program("br nowhere\nhalt\n", "bad")
    with pytest.raises(VE, match="nowhere"):
        decode_program(program)
