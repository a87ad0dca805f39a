"""Tests for the statistics counters."""

import math

from repro.ir.parser import parse_program
from repro.sim.machine import Machine
from repro.sim.run import run_reference
from repro.sim.stats import MachineStats, ThreadStats
from tests.conftest import MINI_KERNEL


def test_instruction_classification():
    p = parse_program(
        """
        movi %a, 1
        add %a, %a, %a
        mov %b, %a
        ctx
        store %b, [%a]
        halt
        """,
        "t",
    )
    machine = Machine([p])
    stats = machine.run()
    t = stats.threads[0]
    assert t.instructions == 6
    assert t.alu_ops == 2  # movi + add
    assert t.moves == 1
    assert t.ctx_instrs == 1
    assert t.mem_ops == 1


def test_busy_cycles_accounting():
    p = parse_program("movi %a, 1\nctx\nhalt\n", "t")
    stats = Machine([p]).run()
    t = stats.threads[0]
    # 3 issues + 2 relinquishes (ctx and halt) at 1 cycle each.
    assert t.busy_cycles == 5


def test_machine_utilization_bounds():
    res = run_reference([parse_program(MINI_KERNEL, "k")], packets_per_thread=3)
    assert 0.0 < res.stats.utilization() <= 1.0
    assert res.stats.busy_cycles + res.stats.idle_cycles == res.stats.cycles


def test_cycles_per_iteration_zero_without_iterations():
    t = ThreadStats()
    assert t.cycles_per_iteration() == 0.0
    assert t.busy_cycles_per_iteration() == 0.0


def test_cycles_per_iteration_nan_when_unfinished():
    t = ThreadStats(iterations=5, finish_cycle=None)
    assert math.isnan(t.cycles_per_iteration())


def test_unfinished_thread_renders_na():
    from repro.harness.report import text_table

    t = ThreadStats(iterations=5, finish_cycle=None)
    table = text_table(["cyc/iter"], [(t.cycles_per_iteration(),)])
    assert "n/a" in table
    assert "nan" not in table


def test_measured_cpi_preferred():
    t = ThreadStats(busy_cycles=1000, iterations=10, measured_cpi=42.5)
    assert t.busy_cycles_per_iteration() == 42.5


def test_finish_cycle_recorded():
    p = parse_program("movi %a, 1\nhalt\n", "t")
    stats = Machine([p]).run()
    assert stats.threads[0].finish_cycle is not None
