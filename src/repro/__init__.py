"""repro: balancing register allocation across threads for a multithreaded
network processor.

A from-scratch reproduction of Zhuang & Pande, PLDI 2004.  The package
contains the complete stack the paper's system needs:

* :mod:`repro.ir` -- the npir assembly language (IXP-style RISC ISA);
* :mod:`repro.cfg` -- CFG, liveness, web renaming, non-switch regions;
* :mod:`repro.igraph` -- GIG/BIG/IIG interference graphs and coloring;
* :mod:`repro.core` -- the paper's allocator: bounds estimation, the
  greedy inter-thread loop, the splitting intra-thread allocator, SRA,
  physical assignment and code rewriting;
* :mod:`repro.baseline` -- the Chaitin-with-spilling comparator;
* :mod:`repro.sim` -- a cycle-level multithreaded micro-engine simulator
  with a dynamic register-safety checker;
* :mod:`repro.suite` -- the 11 packet-processing benchmarks, written
  directly in npir;
* :mod:`repro.harness` -- regenerators for every table and figure of the
  paper's evaluation;
* :mod:`repro.obs`, :mod:`repro.resilience`, :mod:`repro.service` --
  telemetry, fault injection and the degradation ladder, and the HTTP
  allocation service.

Quickstart::

    from repro import allocate_programs, parse_program, run_threads

    thread0 = parse_program(open("t0.npir").read(), "t0")
    thread1 = parse_program(open("t1.npir").read(), "t1")
    out = allocate_programs([thread0, thread1], nreg=128)
    print(out.summary())
    result = run_threads(out.programs, assignment=out.assignment)
"""

from repro.errors import (
    AllocationError,
    AsmSyntaxError,
    ReproError,
    SafetyViolation,
    SimulationError,
    ValidationError,
)
from repro.ir import (
    Instruction,
    Opcode,
    Program,
    format_program,
    parse_program,
    validate_program,
)
from repro.core import (
    AllocationOutcome,
    allocate_programs,
    allocate_symmetric,
    allocate_threads,
    analyze_thread,
    estimate_bounds,
)
from repro.baseline import chaitin_allocate, single_thread_register_count
from repro.sim import (
    Machine,
    outputs_match,
    run_reference,
    run_threads,
)
from repro.suite import BENCHMARKS, load as load_benchmark

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "AsmSyntaxError",
    "ValidationError",
    "AllocationError",
    "SimulationError",
    "SafetyViolation",
    "Opcode",
    "Instruction",
    "Program",
    "parse_program",
    "format_program",
    "validate_program",
    "analyze_thread",
    "estimate_bounds",
    "allocate_programs",
    "allocate_threads",
    "allocate_symmetric",
    "AllocationOutcome",
    "chaitin_allocate",
    "single_thread_register_count",
    "Machine",
    "run_threads",
    "run_reference",
    "outputs_match",
    "BENCHMARKS",
    "load_benchmark",
    "__version__",
]
