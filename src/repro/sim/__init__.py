"""Cycle-level model of an IXP-style multithreaded processing unit.

The model implements the three architectural facts the paper's evaluation
rests on:

* ALU/branch/move instructions complete in one cycle;
* memory and packet-queue operations take ``mem_latency`` cycles (20 by
  default) during which the issuing thread is blocked and the PU runs
  another ready thread;
* a context switch saves only the PC and costs ``ctx_cost`` cycles (1 by
  default).

Threads are non-preemptable: a thread keeps the PU until it blocks on a
memory operation or executes ``ctx`` voluntarily.

* :mod:`repro.sim.memory` -- flat word-addressed SRAM.
* :mod:`repro.sim.packets` -- deterministic synthetic packet workloads.
* :mod:`repro.sim.stats` -- per-thread and machine counters.
* :mod:`repro.sim.machine` -- the processing-unit simulator, including the
  paranoid register-safety checker.
* :mod:`repro.sim.decode` -- pre-decoding pass for the fast engine.
* :mod:`repro.sim.fast` -- the pre-decoded burst-execution engine.
* :mod:`repro.sim.engine` -- engine selection (``auto``/``fast``/
  ``reference``) shared by the runners and the CLI.
* :mod:`repro.sim.run` -- workload runners and reference-vs-allocated
  equivalence checking.
"""

from repro.sim.memory import Memory
from repro.sim.packets import PacketWorkload, make_workload
from repro.sim.stats import MachineStats, ThreadStats
from repro.sim.machine import Machine, ThreadContext
from repro.sim.decode import DecodedProgram, decode_program
from repro.sim.fast import FastMachine, decode_cached
from repro.sim.engine import ENGINES, create_machine, select_engine
from repro.sim.run import (
    RunResult,
    run_threads,
    run_reference,
    outputs_match,
)

__all__ = [
    "Memory",
    "PacketWorkload",
    "make_workload",
    "ThreadStats",
    "MachineStats",
    "Machine",
    "ThreadContext",
    "DecodedProgram",
    "decode_program",
    "FastMachine",
    "decode_cached",
    "ENGINES",
    "create_machine",
    "select_engine",
    "RunResult",
    "run_threads",
    "run_reference",
    "outputs_match",
]
