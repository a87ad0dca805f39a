"""Unit tests for the instruction-set table."""

import pytest

from repro.ir.opcodes import D, I, MNEMONICS, Opcode, SPECS, U, spec


def test_every_opcode_has_a_spec():
    assert set(SPECS) == set(Opcode)


def test_mnemonics_round_trip():
    for op in Opcode:
        assert MNEMONICS[op.value] is op


def test_alu_rr_signature():
    s = spec(Opcode.ADD)
    assert s.signature == ("D", "U", "U")
    assert not s.is_csb and not s.is_branch


def test_alu_ri_signature():
    s = spec(Opcode.ADDI)
    assert s.signature == ("D", "U", "I")


def test_memory_ops_are_csbs():
    for op in (Opcode.LOAD, Opcode.STORE, Opcode.RECV, Opcode.SEND):
        assert spec(op).is_memory
        assert spec(op).is_csb


def test_ctx_is_csb_but_not_memory():
    s = spec(Opcode.CTX)
    assert s.is_ctx and s.is_csb and not s.is_memory


def test_branches():
    assert spec(Opcode.BR).is_branch and not spec(Opcode.BR).is_cond
    for op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
               Opcode.BEQI, Opcode.BNEI, Opcode.BLTI, Opcode.BGEI):
        s = spec(op)
        assert s.is_branch and s.is_cond


def test_halt_is_terminal():
    assert spec(Opcode.HALT).is_halt
    assert not spec(Opcode.HALT).is_csb


def test_store_has_no_defs():
    assert spec(Opcode.STORE).signature == (U, U, I)


def test_load_defines_its_destination():
    assert spec(Opcode.LOAD).signature == (D, U, I)
