"""The processing-unit simulator.

One :class:`Machine` models one micro-engine: up to ``Nthd`` hardware
threads sharing a register file of ``nreg`` physical registers and one
SRAM.  Timing model (the three facts the paper's numbers rest on):

* every instruction costs 1 cycle to issue;
* ``load``/``store``/``recv``/``send`` additionally block the issuing
  thread for :data:`MEM_LATENCY` cycles; the PU switches to the next
  ready thread meanwhile;
* every relinquish of the PU (block, voluntary ``ctx``, halt) costs
  :data:`CTX_COST` switch cycles.

Threads are non-preemptable and scheduled round-robin among ready threads;
blocked threads re-enter the ready queue in deterministic
``(wake_time, tid)`` order.  A ``load``'s destination register is written
when the thread *resumes* (the IXP's transfer-register behaviour -- the
GPR is untouched while other threads run, so the destination is not live
across the CSB).

Programs may use virtual registers (each thread then has a private
unbounded register map -- the *reference mode* used as a semantics oracle)
or physical registers (the shared register file).

**Paranoid mode**: given the :class:`RegisterAssignment` produced by the
allocator, the machine dynamically enforces the paper's safety property --
each thread only touches its private window and the shared window, and a
thread's private window is bit-identical across every span in which other
threads held the PU.  Violations raise :class:`SafetyViolation`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.assign import RegisterAssignment
from repro.errors import SafetyViolation, SimulationError, WatchdogError
from repro.resilience import faults
from repro.ir.instruction import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.operands import Imm, PhysReg, Reg, VirtualReg
from repro.ir.program import Program
from repro.obs import events as obs
from repro.obs import metrics as obs_metrics
from repro.sim.memory import MASK32, Memory
from repro.sim.stats import MachineStats, ThreadStats

#: Cycles a memory or packet-queue operation blocks its thread (the
#: paper's 20-cycle SRAM access), unless a latency region overrides it.
MEM_LATENCY = 20
#: Cycles one context switch costs (the PU saves only the PC).
CTX_COST = 1


class Segment(NamedTuple):
    """One maximal stretch of cycles spent the same way.

    ``kind`` is ``"run"`` (a thread issuing instructions), ``"switch"``
    (context-switch overhead charged to ``tid``), or ``"idle"`` (no ready
    thread; ``tid`` is None).  Half-open ``[start, end)`` in machine
    cycles; a machine's segments tile ``[0, cycles)`` exactly.
    """

    kind: str
    tid: Optional[int]
    start: int
    end: int

    @property
    def cycles(self) -> int:
        return self.end - self.start

_ALU_RR = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: a << (b & 31),
    Opcode.SHR: lambda a, b: a >> (b & 31),
    Opcode.MUL: lambda a, b: a * b,
}
_ALU_RI = {
    Opcode.ADDI: lambda a, b: a + b,
    Opcode.SUBI: lambda a, b: a - b,
    Opcode.ANDI: lambda a, b: a & b,
    Opcode.ORI: lambda a, b: a | b,
    Opcode.XORI: lambda a, b: a ^ b,
    Opcode.SHLI: lambda a, b: a << (b & 31),
    Opcode.SHRI: lambda a, b: a >> (b & 31),
    Opcode.MULI: lambda a, b: a * b,
}
_COND = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: a < b,
    Opcode.BGE: lambda a, b: a >= b,
    Opcode.BEQI: lambda a, b: a == b,
    Opcode.BNEI: lambda a, b: a != b,
    Opcode.BLTI: lambda a, b: a < b,
    Opcode.BGEI: lambda a, b: a >= b,
}


@dataclass
class ThreadContext:
    """One hardware thread's architectural state."""

    tid: int
    program: Program
    pc: int = 0
    vregs: Dict[str, int] = field(default_factory=dict)
    halted: bool = False
    blocked_until: Optional[int] = None
    pending_writeback: List[Tuple[Reg, int]] = field(default_factory=list)
    in_queue: List[int] = field(default_factory=list)
    in_pos: int = 0
    out_queue: List[int] = field(default_factory=list)
    stores: List[Tuple[int, int]] = field(default_factory=list)
    stats: ThreadStats = field(default_factory=ThreadStats)
    private_snapshot: Optional[List[int]] = None
    #: Busy-cycle mark taken at the first successful recv, used for the
    #: fixed-window steady-state measurement.
    busy_mark: Optional[int] = None

    def next_packet(self) -> int:
        if self.in_pos < len(self.in_queue):
            base = self.in_queue[self.in_pos]
            self.in_pos += 1
            return base
        return 0


class Machine:
    """An IXP-style micro-engine with ``nreg`` shared registers."""

    def __init__(
        self,
        programs: Sequence[Program],
        nreg: int = 128,
        memory: Optional[Memory] = None,
        assignment: Optional[RegisterAssignment] = None,
        measure_iterations: Optional[int] = None,
        latency_regions: Optional[Sequence[Tuple[int, int, int]]] = None,
        trace: bool = False,
        timeline: Optional[bool] = None,
    ):
        """``latency_regions`` optionally overrides the memory latency per
        address range: ``(lo, hi, latency)`` applies to accesses with
        ``lo <= addr < hi`` (first match wins).  This models the IXP's
        split between fast SRAM (tables) and slower SDRAM (packet data);
        unmatched addresses use :data:`MEM_LATENCY`.

        ``trace`` records every executed instruction as
        ``(cycle, tid, pc, text)`` in :attr:`trace_log` (debugging aid;
        costs memory proportional to the run).

        ``timeline`` records cycle accounting as run/switch/idle
        :class:`Segment` objects in :attr:`timeline` (see
        :meth:`timeline_accounting`).  The default (None) follows the
        telemetry emitter: recording turns on automatically under an
        active :func:`repro.obs.events.capture` and stays off -- at zero
        per-cycle cost -- otherwise."""
        if not programs:
            raise SimulationError("machine needs at least one thread")
        self.nreg = nreg
        self.mem_latency = MEM_LATENCY
        self.ctx_cost = CTX_COST
        self.measure_iterations = measure_iterations
        self.latency_regions = list(latency_regions or ())
        self.trace_log: Optional[List[Tuple[int, int, int, str]]] = (
            [] if trace else None
        )
        if timeline is None:
            timeline = obs.enabled()
        self.timeline: Optional[List[Segment]] = [] if timeline else None
        self.memory = memory if memory is not None else Memory()
        self.regfile = [0] * nreg
        self.assignment = assignment
        self.threads = [
            ThreadContext(tid=i, program=p) for i, p in enumerate(programs)
        ]
        self.cycle = 0
        self._idle = 0
        self._switch = 0
        #: Threads that have executed ``halt`` (O(1) stop-on-first-halt
        #: checks instead of an O(threads) scan per scheduling step).
        self._halted_count = 0
        #: Min-heap of ``(wake_cycle, tid)`` for blocked threads; pops in
        #: exactly the deterministic ``(blocked_until, tid)`` wake order.
        self._pending_wake: List[Tuple[int, int]] = []
        #: Per-thread pre-resolved branch targets (label -> int PC done
        #: once here, not on every taken branch).
        self._targets = [t.program.target_pcs() for t in self.threads]

    # ------------------------------------------------------------------
    # Register access (with paranoid ownership checks).
    # ------------------------------------------------------------------
    def _windows(self, tid: int) -> Optional[Tuple[Tuple[int, int], Tuple[int, int]]]:
        if self.assignment is None:
            return None
        m = self.assignment.maps[tid]
        return m.private_registers(), self.assignment.shared_registers()

    def _check_owner(self, tid: int, index: int, access: str) -> None:
        windows = self._windows(tid)
        if windows is None:
            return
        (p0, p1), (s0, s1) = windows
        if p0 <= index < p1 or s0 <= index < s1:
            return
        raise SafetyViolation(
            f"thread {tid} {access} register $r{index} outside its private "
            f"window [{p0}, {p1}) and the shared window [{s0}, {s1})"
        )

    def _read(self, thread: ThreadContext, reg: Reg) -> int:
        if isinstance(reg, PhysReg):
            if not 0 <= reg.index < self.nreg:
                raise SimulationError(f"register {reg} outside file of {self.nreg}")
            self._check_owner(thread.tid, reg.index, "reads")
            return self.regfile[reg.index]
        return thread.vregs.get(reg.name, 0)

    def _write(self, thread: ThreadContext, reg: Reg, value: int) -> None:
        value &= MASK32
        if isinstance(reg, PhysReg):
            if not 0 <= reg.index < self.nreg:
                raise SimulationError(f"register {reg} outside file of {self.nreg}")
            self._check_owner(thread.tid, reg.index, "writes")
            self.regfile[reg.index] = value
        else:
            thread.vregs[reg.name] = value

    # ------------------------------------------------------------------
    # Paranoid private-window integrity.
    # ------------------------------------------------------------------
    def _snapshot_private(self, thread: ThreadContext) -> None:
        windows = self._windows(thread.tid)
        if windows is None:
            return
        (p0, p1), _ = windows
        thread.private_snapshot = self.regfile[p0:p1]

    def _verify_private(self, thread: ThreadContext) -> None:
        windows = self._windows(thread.tid)
        if windows is None or thread.private_snapshot is None:
            return
        (p0, p1), _ = windows
        current = self.regfile[p0:p1]
        if current != thread.private_snapshot:
            diffs = [
                f"$r{p0 + i}"
                for i, (a, b) in enumerate(zip(thread.private_snapshot, current))
                if a != b
            ]
            raise SafetyViolation(
                f"thread {thread.tid} private registers {', '.join(diffs)} "
                f"were clobbered while it was switched out"
            )

    # ------------------------------------------------------------------
    # Cycle-accounting timeline.
    # ------------------------------------------------------------------
    def _mark(self, kind: str, tid: Optional[int], start: int, end: int) -> None:
        """Extend or append a timeline segment covering ``[start, end)``."""
        tl = self.timeline
        if tl is None or end <= start:
            return
        if tl:
            last = tl[-1]
            if last.kind == kind and last.tid == tid and last.end == start:
                tl[-1] = Segment(kind, tid, last.start, end)
                return
        tl.append(Segment(kind, tid, start, end))

    def timeline_accounting(self) -> Dict[str, Any]:
        """Where every machine cycle went, from the recorded timeline.

        Returns a JSON-ready dict: total ``cycles``, global ``idle``
        cycles, per-thread ``run`` / ``switch`` cycle totals (summing,
        with idle, to ``cycles``), and ``switch_histogram`` -- the
        context-switch histogram, i.e. how many uninterrupted run
        segments had each length in cycles.
        """
        if self.timeline is None:
            raise SimulationError(
                "machine was not created with timeline recording "
                "(pass timeline=True or run under obs.events.capture())"
            )
        per: Dict[int, Dict[str, Any]] = {
            t.tid: {
                "tid": t.tid,
                "name": t.program.name,
                "run": 0,
                "switch": 0,
            }
            for t in self.threads
        }
        idle = 0
        run_lengths: Dict[int, int] = {}
        for seg in self.timeline:
            if seg.kind == "idle":
                idle += seg.cycles
                continue
            per[seg.tid][seg.kind] += seg.cycles  # type: ignore[index]
            if seg.kind == "run":
                run_lengths[seg.cycles] = run_lengths.get(seg.cycles, 0) + 1
        return {
            "cycles": self.cycle,
            "idle": idle,
            "threads": [per[t.tid] for t in self.threads],
            "switch_histogram": {
                str(k): v for k, v in sorted(run_lengths.items())
            },
        }

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run(
        self,
        max_cycles: int = 50_000_000,
        stop_on_first_halt: bool = False,
    ) -> MachineStats:
        """Run until every thread halts (or ``max_cycles`` elapses).

        ``stop_on_first_halt`` stops as soon as any thread halts: with
        equal per-thread workloads this samples the steady state, before
        the machine starts draining and latency hiding degenerates.
        """
        ready: List[int] = [t.tid for t in self.threads]
        current: Optional[ThreadContext] = None
        while True:
            if stop_on_first_halt and self._halted_count:
                break
            if self.cycle > max_cycles:
                raise WatchdogError(
                    f"exceeded {max_cycles} cycles; runaway program?"
                )
            if current is None:
                self._wake(ready)
                if ready:
                    current = self.threads[ready.pop(0)]
                    self._verify_private(current)
                    if current.pending_writeback:
                        writebacks = current.pending_writeback
                        current.pending_writeback = []
                        for reg, value in writebacks:
                            self._write(current, reg, value)
                else:
                    if not self._pending_wake:
                        break  # everything halted
                    target = self._pending_wake[0][0]
                    self._idle += max(target - self.cycle, 0)
                    if self.timeline is not None:
                        self._mark(
                            "idle", None, self.cycle, max(target, self.cycle)
                        )
                    self.cycle = max(target, self.cycle)
                continue
            current = self._step(current, ready)
        stats = MachineStats(
            cycles=self.cycle,
            idle_cycles=self._idle,
            switch_cycles=self._switch,
            threads=[t.stats for t in self.threads],
        )
        em = obs.get_emitter()
        if em.enabled and self.timeline is not None:
            acct = self.timeline_accounting()
            em.emit("sim.accounting", **acct)
            reg = obs_metrics.registry()
            reg.counter("sim.runs").inc()
            reg.counter("sim.runs", engine="reference").inc()
            reg.counter("sim.cycles").inc(stats.cycles)
            reg.counter("sim.cycles", engine="reference").inc(stats.cycles)
            reg.counter("sim.idle_cycles").inc(stats.idle_cycles)
            reg.counter("sim.switch_cycles").inc(stats.switch_cycles)
            for t in self.threads:
                labels = {
                    "thread": t.tid,
                    "kernel": t.program.name,
                    "engine": "reference",
                }
                ts = t.stats
                reg.counter("sim.thread.busy_cycles", **labels).inc(
                    ts.busy_cycles
                )
                reg.counter("sim.thread.instructions", **labels).inc(
                    ts.instructions
                )
                reg.counter("sim.thread.iterations", **labels).inc(
                    ts.iterations
                )
                reg.counter("sim.thread.switches", **labels).inc(ts.switches)
            for seg in self.timeline:
                em.emit(
                    "sim.segment",
                    kind=seg.kind,
                    tid=seg.tid,
                    start=seg.start,
                    end=seg.end,
                )
        return stats

    def _wake(self, ready: List[int]) -> None:
        pending = self._pending_wake
        while pending and pending[0][0] <= self.cycle:
            _, tid = heapq.heappop(pending)
            self.threads[tid].blocked_until = None
            ready.append(tid)

    def _relinquish(self, thread: ThreadContext) -> None:
        self._snapshot_private(thread)
        if faults.active() is not None:
            self._fire_bitflip(thread)
        if self.timeline is not None:
            self._mark(
                "switch", thread.tid, self.cycle, self.cycle + self.ctx_cost
            )
        self.cycle += self.ctx_cost
        self._switch += self.ctx_cost
        thread.stats.switches += 1
        thread.stats.busy_cycles += self.ctx_cost

    def _step(
        self, thread: ThreadContext, ready: List[int]
    ) -> Optional[ThreadContext]:
        """Execute one instruction; return the thread still holding the PU
        (or None after a relinquish)."""
        program = thread.program
        if thread.pc >= len(program.instrs):
            raise SimulationError(
                f"thread {thread.tid} ran off the end of {program.name!r}"
            )
        instr = program.instrs[thread.pc]
        op = instr.opcode
        self.cycle += 1
        if self.timeline is not None:
            self._mark("run", thread.tid, self.cycle - 1, self.cycle)
        thread.stats.instructions += 1
        thread.stats.busy_cycles += 1
        if self.trace_log is not None:
            self.trace_log.append(
                (self.cycle, thread.tid, thread.pc, str(instr))
            )
        next_pc = thread.pc + 1

        if op in _ALU_RR:
            d, a, b = instr.operands
            self._write(
                thread, d, _ALU_RR[op](self._read(thread, a), self._read(thread, b))
            )
            thread.stats.alu_ops += 1
        elif op in _ALU_RI:
            d, a, imm = instr.operands
            self._write(
                thread, d, _ALU_RI[op](self._read(thread, a), imm.value)
            )
            thread.stats.alu_ops += 1
        elif op is Opcode.MOV:
            d, s = instr.operands
            self._write(thread, d, self._read(thread, s))
            thread.stats.moves += 1
        elif op is Opcode.MOVI:
            d, imm = instr.operands
            self._write(thread, d, imm.value)
            thread.stats.alu_ops += 1
        elif op is Opcode.NOP:
            pass
        elif op is Opcode.BR:
            target = self._targets[thread.tid][thread.pc]
            if target is None:
                target = program.resolve(instr.target.name)
            next_pc = target
        elif op in _COND:
            a, b, _ = instr.operands
            bval = b.value if isinstance(b, Imm) else self._read(thread, b)
            if _COND[op](self._read(thread, a), bval):
                target = self._targets[thread.tid][thread.pc]
                if target is None:
                    target = program.resolve(instr.target.name)
                next_pc = target
        elif op is Opcode.LOAD:
            d, base, off = instr.operands
            addr = (self._read(thread, base) + off.value) & MASK32
            thread.pending_writeback = [(d, self.memory.read(addr))]
            thread.pc = next_pc
            return self._block(thread, addr)
        elif op is Opcode.LOADQ:
            d0, d1, d2, d3, base, off = instr.operands
            addr = (self._read(thread, base) + off.value) & MASK32
            thread.pending_writeback = [
                (d, self.memory.read((addr + k) & MASK32))
                for k, d in enumerate((d0, d1, d2, d3))
            ]
            thread.pc = next_pc
            return self._block(thread, addr)
        elif op is Opcode.STORE:
            s, base, off = instr.operands
            addr = (self._read(thread, base) + off.value) & MASK32
            value = self._read(thread, s)
            self.memory.write(addr, value)
            thread.stores.append((addr, value))
            thread.pc = next_pc
            return self._block(thread, addr)
        elif op is Opcode.STOREQ:
            s0, s1, s2, s3, base, off = instr.operands
            addr = (self._read(thread, base) + off.value) & MASK32
            for k, s in enumerate((s0, s1, s2, s3)):
                value = self._read(thread, s)
                self.memory.write((addr + k) & MASK32, value)
                thread.stores.append(((addr + k) & MASK32, value))
            thread.pc = next_pc
            return self._block(thread, addr)
        elif op is Opcode.RECV:
            (d,) = instr.operands
            base = thread.next_packet()
            if base:
                thread.stats.iterations += 1
                self._measure_mark(thread)
            thread.pending_writeback = [(d, base)]
            thread.pc = next_pc
            return self._block(thread)
        elif op is Opcode.SEND:
            (s,) = instr.operands
            thread.out_queue.append(self._read(thread, s))
            thread.pc = next_pc
            return self._block(thread)
        elif op is Opcode.CTX:
            thread.stats.ctx_instrs += 1
            thread.pc = next_pc
            ready.append(thread.tid)
            self._relinquish(thread)
            return None
        elif op is Opcode.HALT:
            thread.halted = True
            self._halted_count += 1
            thread.stats.finish_cycle = self.cycle
            self._relinquish(thread)
            return None
        else:  # pragma: no cover - exhaustive over the ISA
            raise SimulationError(f"unhandled opcode {op}")

        thread.pc = next_pc
        return thread

    def _fire_bitflip(self, thread: ThreadContext) -> None:
        """``sim.bitflip`` fault site: flip one random bit of one random
        physical register at a context-switch boundary.  Fired *after*
        :meth:`_snapshot_private`, so a flip landing in the relinquishing
        thread's own private window is exactly the clobbering that
        paranoid mode's :meth:`_verify_private` exists to catch."""
        spec = faults.fire("sim.bitflip", tid=thread.tid, cycle=self.cycle)
        if spec is None:
            return
        plan = faults.active()
        if plan is None or self.nreg <= 0:  # pragma: no cover - raced disarm
            return
        index = plan.rng.randrange(self.nreg)
        bit = plan.rng.randrange(32)
        self.regfile[index] ^= 1 << bit

    def _measure_mark(self, thread: ThreadContext) -> None:
        """Fixed-window measurement: the window opens at the first
        successful recv and closes at recv number ``measure_iterations +
        1``, covering exactly that many complete iterations."""
        k = self.measure_iterations
        if k is None:
            return
        if thread.stats.iterations == 1:
            thread.busy_mark = thread.stats.busy_cycles
        elif thread.stats.iterations == k + 1 and thread.busy_mark is not None:
            span = thread.stats.busy_cycles - thread.busy_mark
            thread.stats.measured_cpi = span / k

    def _latency_for(self, addr: Optional[int]) -> int:
        if addr is not None:
            for lo, hi, latency in self.latency_regions:
                if lo <= addr < hi:
                    return latency
        return self.mem_latency

    def _block(self, thread: ThreadContext, addr: Optional[int] = None) -> None:
        thread.stats.mem_ops += 1
        thread.blocked_until = self.cycle + self._latency_for(addr)
        if faults.active() is not None:
            # ``sim.stuck`` fault site: the wake never arrives (a lost
            # memory grant).  The idle-advance then jumps the clock past
            # ``max_cycles`` and the watchdog fires -- never a hang.
            spec = faults.fire("sim.stuck", tid=thread.tid, cycle=self.cycle)
            if spec is not None:
                thread.blocked_until = self.cycle + faults.STUCK_DELAY
        heapq.heappush(
            self._pending_wake, (thread.blocked_until, thread.tid)
        )
        self._relinquish(thread)
        return None
