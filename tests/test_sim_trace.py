"""Tests for execution tracing."""

from repro.ir.parser import parse_program
from repro.sim.machine import Machine


def traced_machine():
    a = parse_program("movi %x, 1\nctx\nmovi %x, 2\nhalt\n", "alpha")
    b = parse_program("movi %y, 9\nctx\nmovi %y, 8\nhalt\n", "beta")
    machine = Machine([a, b], trace=True)
    machine.run()
    return machine


def test_trace_records_every_instruction():
    machine = traced_machine()
    assert len(machine.trace_log) == 8
    tids = {tid for _, tid, _, _ in machine.trace_log}
    assert tids == {0, 1}


def test_trace_cycles_strictly_increase():
    machine = traced_machine()
    cycles = [c for c, *_ in machine.trace_log]
    assert cycles == sorted(cycles)
    assert len(set(cycles)) == len(cycles)
