"""Workload runners and reference-vs-allocated equivalence checking.

:func:`run_threads` wires a packet workload to every thread and runs the
machine to completion.  The same function serves both the *reference* run
(virtual-register programs, per-thread unbounded register maps -- the
semantics oracle) and the *allocated* run (physical-register programs,
optionally with the paranoid safety checker armed).

:func:`outputs_match` compares the observable behaviour of two runs:
per-thread store traces (address, value, order) and send queues.  The
allocator is semantics-preserving iff these match the reference run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.assign import RegisterAssignment
from repro.ir.program import Program
from repro.sim.engine import AnyMachine, create_machine
from repro.sim.memory import Memory
from repro.sim.packets import PACKET_SCRATCH, make_workload
from repro.sim.stats import MachineStats

#: Word address where thread 0's packet area starts.
PACKET_AREA_BASE = 0x10000
#: Address stride between consecutive threads' packet areas.
PACKET_AREA_STRIDE = 0x40000
#: Spill scratch region [lo, hi): traffic here is allocator-internal and
#: excluded from observable-equivalence comparisons.
SCRATCH_RANGE = (0x8000, PACKET_AREA_BASE)


@dataclass
class RunResult:
    """Everything observable about one machine run."""

    stats: MachineStats
    out_queues: List[List[int]]
    stores: List[List[Tuple[int, int]]]
    machine: AnyMachine

    def cycles(self) -> int:
        return self.stats.cycles

    def thread_cpi(self, tid: int) -> float:
        """Wall cycles per main-loop iteration for one thread."""
        return self.stats.threads[tid].cycles_per_iteration()

    def thread_busy_cpi(self, tid: int) -> float:
        """Service (busy) cycles per main-loop iteration for one thread."""
        return self.stats.threads[tid].busy_cycles_per_iteration()

    def observable_stores(self) -> List[List[Tuple[int, int]]]:
        """Per-thread store traces with spill-scratch traffic removed."""
        lo, hi = SCRATCH_RANGE
        return [
            [(a, v) for a, v in trace if not lo <= a < hi]
            for trace in self.stores
        ]


def run_threads(
    programs: Sequence[Program],
    packets_per_thread: int = 32,
    payload_words: int = 16,
    seed: int = 1,
    vary_size: bool = False,
    nreg: int = 128,
    mem_latency: int = 20,
    ctx_cost: int = 1,
    assignment: Optional[RegisterAssignment] = None,
    max_cycles: int = 50_000_000,
    stop_on_first_halt: bool = False,
    measure_iterations: Optional[int] = None,
    engine: Optional[str] = None,
) -> RunResult:
    """Run ``programs`` (one per thread) over deterministic packet queues.

    Every thread gets its own input queue of ``packets_per_thread``
    packets; thread ``t``'s buffers live at
    ``PACKET_AREA_BASE + t * PACKET_AREA_STRIDE`` so the layout is
    identical between a reference run and an allocated run.

    ``engine`` selects the execution engine (``"auto"``/``"fast"``/
    ``"reference"``, see :mod:`repro.sim.engine`); ``None`` means
    ``"auto"``.  Note that ``engine="fast"`` raises
    :class:`~repro.errors.EngineError` when combined with a paranoid
    ``assignment``.
    """
    memory = Memory()
    machine = create_machine(
        programs,
        engine,
        nreg=nreg,
        mem_latency=mem_latency,
        ctx_cost=ctx_cost,
        memory=memory,
        assignment=assignment,
        measure_iterations=measure_iterations,
    )
    for tid, thread in enumerate(machine.threads):
        workload = make_workload(
            memory,
            base=PACKET_AREA_BASE + tid * PACKET_AREA_STRIDE,
            n_packets=packets_per_thread,
            payload_words=payload_words,
            seed=seed + tid,
            vary_size=vary_size,
        )
        thread.in_queue = list(workload.bases)
    stats = machine.run(
        max_cycles=max_cycles, stop_on_first_halt=stop_on_first_halt
    )
    return RunResult(
        stats=stats,
        out_queues=[list(t.out_queue) for t in machine.threads],
        stores=[list(t.stores) for t in machine.threads],
        machine=machine,
    )


def run_reference(
    programs: Sequence[Program], **kwargs
) -> RunResult:
    """Reference run: virtual-register programs as the semantics oracle."""
    kwargs.pop("assignment", None)
    return run_threads(programs, **kwargs)


def outputs_match(a: RunResult, b: RunResult) -> bool:
    """Observable equivalence of two runs: per-thread send queues and
    store traces, ignoring traffic to the spill scratch region."""
    return (
        a.observable_stores() == b.observable_stores()
        and a.out_queues == b.out_queues
    )


def describe_mismatch(a: RunResult, b: RunResult) -> str:
    """Human-readable first divergence between two runs (for tests)."""
    for tid, (sa, sb) in enumerate(
        zip(a.observable_stores(), b.observable_stores())
    ):
        if sa != sb:
            for k, (ea, eb) in enumerate(zip(sa, sb)):
                if ea != eb:
                    return (
                        f"thread {tid} store #{k}: "
                        f"{ea[0]:#x}<-{ea[1]:#x} vs {eb[0]:#x}<-{eb[1]:#x}"
                    )
            return (
                f"thread {tid}: store counts differ "
                f"({len(sa)} vs {len(sb)})"
            )
    for tid, (qa, qb) in enumerate(zip(a.out_queues, b.out_queues)):
        if qa != qb:
            return f"thread {tid}: send queues differ ({qa} vs {qb})"
    return "runs match"
