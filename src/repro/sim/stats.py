"""Execution counters for the simulator.

``cycles_per_iteration`` is the paper's headline metric: the benchmarks run
forever over packets, so performance is reported as average cycles per main
loop iteration (one ``recv`` that returned a packet = one iteration).
Under multithreading the metric naturally includes contention for the PU,
which is what makes a spilled thread drag its siblings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class ThreadStats:
    """Counters for one hardware thread.

    Two per-iteration cycle metrics exist because threads share the PU:

    * **wall** (``cycles_per_iteration``) -- elapsed machine cycles until
      the thread finished, divided by iterations; includes time other
      threads held the PU.
    * **busy** (``busy_cycles_per_iteration``) -- cycles the thread itself
      consumed (instruction issues plus its context-switch costs); the
      thread's *service time*, which is what the paper's per-thread cycle
      counts correspond to for threads that run forever concurrently.
      Spill code inflates it (extra issues and switches); inserted moves
      inflate it by exactly one cycle each.
    """

    instructions: int = 0
    alu_ops: int = 0
    moves: int = 0
    mem_ops: int = 0
    ctx_instrs: int = 0
    switches: int = 0
    busy_cycles: int = 0
    iterations: int = 0
    finish_cycle: Optional[int] = None
    #: Busy cycles per iteration over a fixed measurement window (set when
    #: the machine was given ``measure_iterations``); free of warmup and
    #: drain effects, this is the steady-state service time.
    measured_cpi: Optional[float] = None

    def cycles_per_iteration(self) -> float:
        """Average wall cycles per completed packet iteration.

        A thread that never completed an iteration reports ``0.0``; a
        thread that iterated but never *finished* (``finish_cycle`` is
        None, e.g. the run stopped on another thread's halt) reports
        ``NaN`` -- its wall time is unknown, and pretending ``0.0`` would
        read as infinitely fast in reports.  Renderers show NaN as
        ``n/a``; guard comparisons with ``math.isnan``.
        """
        if not self.iterations:
            return 0.0
        if self.finish_cycle is None:
            return float("nan")
        return self.finish_cycle / self.iterations

    def busy_cycles_per_iteration(self) -> float:
        """Average consumed (service) cycles per packet iteration.

        Prefers the fixed-window measurement when one was taken.
        """
        if self.measured_cpi is not None:
            return self.measured_cpi
        if not self.iterations:
            return 0.0
        return self.busy_cycles / self.iterations


@dataclass
class MachineStats:
    """Counters for the whole processing unit."""

    cycles: int = 0
    idle_cycles: int = 0
    switch_cycles: int = 0
    threads: List[ThreadStats] = field(default_factory=list)

    @property
    def busy_cycles(self) -> int:
        return self.cycles - self.idle_cycles

    def utilization(self) -> float:
        return self.busy_cycles / self.cycles if self.cycles else 0.0
