"""The pre-decoded fast execution engine.

:class:`FastMachine` is a drop-in replacement for the reference
:class:`~repro.sim.machine.Machine` on the hot benchmarking path.  It
produces **bit-identical** :class:`~repro.sim.stats.MachineStats`
(cycles, idle, switch, every per-thread counter), store traces, send
queues, and memory contents -- the differential suite in
``tests/test_sim_fast.py`` enforces this over the whole benchmark suite
and over hypothesis-generated programs -- while running the inner loop
an order of magnitude faster.  Two ideas carry the speedup:

1. **Pre-decoding** (:mod:`repro.sim.decode`): each program is lowered
   once; at machine construction every decoded instruction is *bound*
   per thread into a zero-argument closure over the actual register
   lists.  Register operands become plain list indexing (virtual
   registers live in a dense per-thread list, physical ones in the
   shared file), ALU/condition ops are pre-selected C-level functions,
   immediates are ints, and branch targets are integer PCs.  No dict
   dispatch, no ``isinstance``, no ``resolve()`` in the loop.

2. **Burst execution**: threads are non-preemptable, so between two
   context-switch boundaries the scheduler has no decisions to make.
   The inner loop runs one thread straight through to its next
   relinquish point -- ``pc = code[pc]()`` per instruction plus a
   runaway-budget decrement -- instead of re-entering the scheduler,
   re-checking trace/timeline/paranoid flags, and re-deriving cycle
   accounting on every instruction.  Cycle and instruction counters are
   settled once per burst; context-switch boundaries are handled by the
   scheduler exactly as the reference engine does.

What it deliberately does **not** do: instruction tracing, run/switch/
idle timeline recording, and the paranoid private-window checker.
Those are observability/verification features of the reference engine;
requesting them together with this engine raises
:class:`~repro.errors.EngineError` (auto-selection in
:mod:`repro.sim.engine` picks the reference engine instead).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import EngineError, SimulationError, WatchdogError
from repro.ir.program import Program
from repro.obs import events as obs
from repro.obs import metrics as obs_metrics
from repro.resilience import faults
from repro.sim import decode as dc
from repro.sim.machine import CTX_COST, MEM_LATENCY, ThreadContext
from repro.sim.memory import MASK32, Memory
from repro.sim.stats import MachineStats

#: Per-thread counter slots.  Closures and the scheduler bump plain
#: list cells (two C-level ops) instead of ThreadStats attributes
#: (attribute get + set each); the totals are flushed into
#: :class:`~repro.sim.stats.ThreadStats` once per run.
#: Layout: [alu_ops, moves, instructions, busy_cycles, mem_ops,
#: ctx_instrs, switches, iterations].
_N_COUNTS = 8

_M = MASK32

#: Engine-private CSB kinds for loads/receives whose destination
#: registers are all thread-private (virtual): the loaded value cannot
#: be observed by any other thread before this thread resumes, so it is
#: applied immediately instead of going through the deferred-writeback
#: list.  Physical destinations keep the deferred path -- they are
#: architecturally shared, and the reference engine makes the value
#: visible only at resume.
_K_LOAD_D = 20
_K_LOADQ_D = 21
_K_RECV_D = 22


# ----------------------------------------------------------------------
# Closure factories.  Each returns a zero-argument callable that
# executes one instruction and returns the next PC.  ``dst``/``a``/``b``
# are (register_list, index) pairs resolved at bind time, ``cnt`` the
# thread's fast counter list.
# ----------------------------------------------------------------------
def _bind_alu_rr(fn, dst, a, b, cnt, npc, M=MASK32):
    df, di = dst
    af, ai = a
    bf, bi = b

    def op():
        df[di] = fn(af[ai], bf[bi]) & M
        cnt[0] += 1
        return npc

    return op


def _bind_alu_ri(fn, dst, a, imm, cnt, npc, M=MASK32):
    df, di = dst
    af, ai = a

    def op():
        df[di] = fn(af[ai], imm) & M
        cnt[0] += 1
        return npc

    return op


def _bind_mov(dst, src, cnt, npc):
    df, di = dst
    sf, si = src

    def op():
        df[di] = sf[si]
        cnt[1] += 1
        return npc

    return op


def _bind_movi(dst, imm, cnt, npc):
    df, di = dst

    def op():
        df[di] = imm
        cnt[0] += 1
        return npc

    return op


def _bind_nop(npc):
    def op():
        return npc

    return op


# ----------------------------------------------------------------------
# Fused straight-line runs.  A maximal stretch of ALU/move instructions
# with no branch, no context-switch boundary, and no jump target in its
# interior is only ever entered at its head, so the whole run collapses
# into ONE dispatched closure: the per-step bodies below carry neither
# counter bumps nor PC returns (the fused wrapper settles both once per
# run), and the scheduler's dispatch loop executes the run as a single
# step whose ``cost`` equals its instruction count.
# ----------------------------------------------------------------------
def _step_alu_rr(fn, dst, a, b, M=MASK32):
    df, di = dst
    af, ai = a
    bf, bi = b

    def step():
        df[di] = fn(af[ai], bf[bi]) & M

    return step


def _step_alu_ri(fn, dst, a, imm, M=MASK32):
    df, di = dst
    af, ai = a

    def step():
        df[di] = fn(af[ai], imm) & M

    return step


def _step_mov(dst, src):
    df, di = dst
    sf, si = src

    def step():
        df[di] = sf[si]

    return step


def _step_movi(dst, imm):
    df, di = dst

    def step():
        df[di] = imm

    return step


def _bind_fused(steps, n_alu, n_mov, cnt, npc):
    steps = tuple(steps)
    if n_mov:

        def op():
            for s in steps:
                s()
            cnt[0] += n_alu
            cnt[1] += n_mov
            return npc

    else:

        def op():
            for s in steps:
                s()
            cnt[0] += n_alu
            return npc

    return op


def _bind_br(target):
    def op():
        return target

    return op


def _bind_cond_rr(fn, a, b, taken, fall):
    af, ai = a
    bf, bi = b

    def op():
        return taken if fn(af[ai], bf[bi]) else fall

    return op


def _bind_cond_ri(fn, a, imm, taken, fall):
    af, ai = a

    def op():
        return taken if fn(af[ai], imm) else fall

    return op


def _bind_bad_reg(message):
    def op():
        raise SimulationError(message)

    return op


class FastMachine:
    """Pre-decoded burst-execution engine; stats-identical to
    :class:`~repro.sim.machine.Machine` (see module docstring).

    Accepts the reference machine's constructor signature so the two
    are interchangeable behind :func:`repro.sim.engine.create_machine`.
    ``trace=True``, ``timeline=True``, and a non-None ``assignment``
    (the paranoid checker) raise :class:`EngineError` -- pick the
    reference engine for those.  ``timeline=None`` (the reference
    engine's "auto" default) is treated as *off*: this engine never
    records timelines, even under an active telemetry capture.
    """

    def __init__(
        self,
        programs: Sequence[Program],
        nreg: int = 128,
        memory: Optional[Memory] = None,
        assignment=None,
        measure_iterations: Optional[int] = None,
        latency_regions: Optional[Sequence[Tuple[int, int, int]]] = None,
        trace: bool = False,
        timeline: Optional[bool] = None,
    ):
        if not programs:
            raise SimulationError("machine needs at least one thread")
        if trace:
            raise EngineError(
                "the fast engine does not record instruction traces; "
                "use the reference engine (engine='reference') for trace=True"
            )
        if timeline:
            raise EngineError(
                "the fast engine does not record run/switch/idle timelines; "
                "use the reference engine (engine='reference') for "
                "timeline=True"
            )
        if assignment is not None:
            raise EngineError(
                "the fast engine does not implement the paranoid "
                "register-safety checker; use the reference engine "
                "(engine='reference') for runs with a RegisterAssignment"
            )
        self.nreg = nreg
        self.mem_latency = MEM_LATENCY
        self.ctx_cost = CTX_COST
        self.measure_iterations = measure_iterations
        self.latency_regions = list(latency_regions or ())
        self.memory = memory if memory is not None else Memory()
        self.regfile = [0] * nreg
        self.assignment = None
        # Interface parity with the reference engine.
        self.trace_log = None
        self.timeline = None
        self.threads = [
            ThreadContext(tid=i, program=p) for i, p in enumerate(programs)
        ]
        self.cycle = 0
        self._idle = 0
        self._switch = 0
        self._decoded = [decode_cached(p) for p in programs]
        self._vfiles: List[List[int]] = [
            [0] * d.n_vregs for d in self._decoded
        ]
        self._counts: List[List[int]] = [
            [0] * _N_COUNTS for _ in programs
        ]
        #: Pending register writebacks per thread, applied when the
        #: thread next holds the PU: lists of (file, index, value).
        self._writebacks: List[Optional[List[Tuple[list, int, int]]]] = [
            None for _ in programs
        ]
        self._code: List[List[Optional[Callable[[], int]]]] = []
        self._csbs: List[List[Optional[Tuple]]] = []
        #: Per-pc instruction cost of one dispatch: 1 everywhere except
        #: at the head of a fused straight-line run, where it is the
        #: run's length (the runaway budget stays instruction-exact).
        self._cost: List[List[int]] = []
        for tid, d in enumerate(self._decoded):
            code, csbs, cost = self._bind_thread(tid, d)
            self._code.append(code)
            self._csbs.append(csbs)
            self._cost.append(cost)

    # ------------------------------------------------------------------
    # Binding: decoded tuples -> per-thread closures / CSB descriptors.
    # ------------------------------------------------------------------
    def _bind_thread(self, tid: int, d: dc.DecodedProgram):
        regfile = self.regfile
        vfile = self._vfiles[tid]
        cnt = self._counts[tid]
        nreg = self.nreg

        def res(ref: dc.RegRef):
            """(is_phys, index) -> (list, index), or None when the
            physical index is outside the register file (executing the
            instruction must raise, exactly like the reference)."""
            is_phys, idx = ref
            if is_phys:
                if not 0 <= idx < nreg:
                    return None
                return (regfile, idx)
            return (vfile, idx)

        code: List[Optional[Callable[[], int]]] = []
        csbs: List[Optional[Tuple]] = []
        #: Per-pc step closure for fusion (None when the pc cannot sit
        #: inside a fused run); NOPs are fusable with no step at all.
        step_at: List[Optional[Callable[[], None]]] = []
        fusable: List[bool] = []

        def bad(idx_refs):
            for is_phys, idx in idx_refs:
                if is_phys and not 0 <= idx < nreg:
                    return _bind_bad_reg(
                        f"register $r{idx} outside file of {nreg}"
                    )
            return None

        for pc, t in enumerate(d.instrs):
            kind = t[0]
            npc = pc + 1
            fn = None
            csb = None
            step = None
            fus = False
            if kind == dc.K_ALU_RR:
                _, f, dr, ar, br = t
                fn = bad((dr, ar, br))
                if fn is None:
                    rd, ra, rb = res(dr), res(ar), res(br)
                    fn = _bind_alu_rr(f, rd, ra, rb, cnt, npc)
                    step = _step_alu_rr(f, rd, ra, rb)
                    fus = True
            elif kind == dc.K_ALU_RI:
                _, f, dr, ar, imm = t
                fn = bad((dr, ar))
                if fn is None:
                    rd, ra = res(dr), res(ar)
                    fn = _bind_alu_ri(f, rd, ra, imm, cnt, npc)
                    step = _step_alu_ri(f, rd, ra, imm)
                    fus = True
            elif kind == dc.K_MOV:
                _, dr, sr = t
                fn = bad((dr, sr))
                if fn is None:
                    rd, rs = res(dr), res(sr)
                    fn = _bind_mov(rd, rs, cnt, npc)
                    step = _step_mov(rd, rs)
                    fus = True
            elif kind == dc.K_MOVI:
                _, dr, imm = t
                fn = bad((dr,))
                if fn is None:
                    rd = res(dr)
                    fn = _bind_movi(rd, imm, cnt, npc)
                    step = _step_movi(rd, imm)
                    fus = True
            elif kind == dc.K_NOP:
                fn = _bind_nop(npc)
                fus = True
            elif kind == dc.K_BR:
                fn = _bind_br(t[1])
            elif kind == dc.K_COND_RR:
                _, f, ar, br, target = t
                fn = bad((ar, br)) or _bind_cond_rr(
                    f, res(ar), res(br), target, npc
                )
            elif kind == dc.K_COND_RI:
                _, f, ar, imm, target = t
                fn = bad((ar,)) or _bind_cond_ri(
                    f, res(ar), imm, target, npc
                )
            elif kind == dc.K_LOAD:
                _, dr, br, off = t
                fn = bad((dr, br))
                if fn is None:
                    (df, di), (bf, bi) = res(dr), res(br)
                    k = _K_LOAD_D if df is vfile else dc.K_LOAD
                    csb = (k, df, di, bf, bi, off)
            elif kind == dc.K_LOADQ:
                _, drs, br, off = t
                fn = bad(drs + (br,))
                if fn is None:
                    rds = tuple(res(r) for r in drs)
                    bf, bi = res(br)
                    k = (
                        _K_LOADQ_D
                        if all(f is vfile for f, _ in rds)
                        else dc.K_LOADQ
                    )
                    csb = (k, rds, bf, bi, off)
            elif kind == dc.K_STORE:
                _, sr, br, off = t
                fn = bad((sr, br))
                if fn is None:
                    (sf, si), (bf, bi) = res(sr), res(br)
                    csb = (dc.K_STORE, sf, si, bf, bi, off)
            elif kind == dc.K_STOREQ:
                _, srs, br, off = t
                fn = bad(srs + (br,))
                if fn is None:
                    bf, bi = res(br)
                    csb = (
                        dc.K_STOREQ,
                        tuple(res(r) for r in srs),
                        bf,
                        bi,
                        off,
                    )
            elif kind == dc.K_RECV:
                _, dr = t
                fn = bad((dr,))
                if fn is None:
                    df, di = res(dr)
                    k = _K_RECV_D if df is vfile else dc.K_RECV
                    csb = (k, df, di)
            elif kind == dc.K_SEND:
                _, sr = t
                fn = bad((sr,))
                if fn is None:
                    sf, si = res(sr)
                    csb = (dc.K_SEND, sf, si)
            elif kind == dc.K_CTX:
                csb = (dc.K_CTX,)
            elif kind == dc.K_HALT:
                csb = (dc.K_HALT,)
            else:  # pragma: no cover - decode() is exhaustive
                raise SimulationError(f"unbound decode kind {kind}")
            if fn is not None:
                # Fast-path instruction (or a bad-register raiser that
                # shadows a CSB: the raise happens before any CSB work,
                # matching the reference read/write checks).
                code.append(fn)
                csbs.append(None)
            else:
                code.append(None)
                csbs.append(csb)
            step_at.append(step)
            fusable.append(fus)
        # Falling off the end must raise, as in the reference engine.
        code.append(None)
        csbs.append((dc.K_OFF_END,))

        # --- fuse maximal straight-line runs --------------------------
        # The dispatch loop only ever *lands* on a pc that is an entry
        # point: thread start, a branch target, the fall-through after a
        # conditional branch, or the resume point after a CSB.  A run of
        # fusable instructions whose interior contains no entry point is
        # always executed from its head, so the head's closure can be
        # replaced by one fused closure covering the whole run (interior
        # pcs keep their individual closures; they are simply never
        # dispatched).
        n = len(d.instrs)
        entries = {0}
        for pc, t in enumerate(d.instrs):
            kind = t[0]
            if kind == dc.K_BR:
                entries.add(t[1])
            elif kind in (dc.K_COND_RR, dc.K_COND_RI):
                entries.add(t[-1])
                entries.add(pc + 1)
            elif kind >= dc.K_FIRST_CSB:
                entries.add(pc + 1)
        cost = [1] * len(code)
        pc = 0
        while pc < n:
            if not fusable[pc]:
                pc += 1
                continue
            end = pc + 1
            while end < n and fusable[end] and end not in entries:
                end += 1
            if end - pc >= 2:
                steps = [s for s in step_at[pc:end] if s is not None]
                n_alu = n_mov = 0
                for q in range(pc, end):
                    k = d.instrs[q][0]
                    if k == dc.K_MOV:
                        n_mov += 1
                    elif k != dc.K_NOP:
                        n_alu += 1
                code[pc] = _bind_fused(steps, n_alu, n_mov, cnt, end)
                cost[pc] = end - pc
            pc = end
        return code, csbs, cost

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def _latency_for(self, addr: Optional[int]) -> int:
        if addr is not None:
            for lo, hi, latency in self.latency_regions:
                if lo <= addr < hi:
                    return latency
        return self.mem_latency

    def _fire_bitflip(self, plan, tid: int, cycle: int) -> None:
        """``sim.bitflip`` fault site at a context-switch boundary:
        flip one random bit of one random physical register (mirrors
        ``Machine._relinquish``)."""
        spec = faults.fire("sim.bitflip", tid=tid, cycle=cycle)
        if spec is None or self.nreg <= 0:
            return
        index = plan.rng.randrange(self.nreg)
        bit = plan.rng.randrange(32)
        self.regfile[index] ^= 1 << bit

    def run(
        self,
        max_cycles: int = 50_000_000,
        stop_on_first_halt: bool = False,
    ) -> MachineStats:
        """Run until every thread halts (or ``max_cycles`` elapses).

        Scheduling, cycle accounting, and the runaway check follow the
        reference engine exactly; see
        :meth:`repro.sim.machine.Machine.run`.
        """
        threads = self.threads
        memory = self.memory
        # The scheduler path inlines Memory.read/.write (same mask and
        # bounds check); Memory is never subclassed in this codebase.
        mwords = memory._words
        msize = memory.size
        mem_latency = self.mem_latency
        regions = self.latency_regions
        ctx_cost = self.ctx_cost
        measure_k = self.measure_iterations
        writebacks = self._writebacks
        all_code = self._code
        all_csbs = self._csbs
        all_cost = self._cost
        all_counts = self._counts
        heappush = heapq.heappush
        heappop = heapq.heappop
        # Fault-injection plan, fetched ONCE per run: the hot loop pays
        # a single local-variable None check per CSB when nothing is
        # armed.  A plan armed mid-run is picked up by the next run().
        plan = faults.active()

        ready = deque(t.tid for t in threads)
        pending: List[Tuple[int, int]] = []
        #: Thread program counters, kept in a plain list during the run
        #: (synced back to ThreadContext.pc at the end).
        pcs = [t.pc for t in threads]
        halted_count = 0
        cycle = self.cycle
        idle = self._idle
        switch = self._switch

        while True:
            if stop_on_first_halt and halted_count:
                break
            if cycle > max_cycles:
                self.cycle = cycle
                raise WatchdogError(
                    f"exceeded {max_cycles} cycles; runaway program?"
                )
            while pending and pending[0][0] <= cycle:
                ready.append(heappop(pending)[1])
            if not ready:
                if not pending:
                    break  # everything halted
                target = pending[0][0]
                idle += target - cycle
                cycle = target
                continue

            tid = ready.popleft()
            thread = threads[tid]
            cnt = all_counts[tid]
            wb = writebacks[tid]
            if wb is not None:
                writebacks[tid] = None
                for file, index, value in wb:
                    file[index] = value & _M

            # --- burst: run to the next context-switch boundary -------
            # ``cost[pc]`` is 1 except at fused-run heads, keeping
            # ``executed`` an exact instruction count.  A fused run may
            # overshoot an exhausted budget by a few instructions; the
            # run is aborted by the same runaway error either way.
            code = all_code[tid]
            cost = all_cost[tid]
            pc = pcs[tid]
            budget = max_cycles - cycle + 1
            start_budget = budget
            while budget > 0:
                f = code[pc]
                if f is None:
                    break
                budget -= cost[pc]
                pc = f()
            executed = start_budget - budget
            pcs[tid] = pc
            if budget <= 0:
                cycle += executed
                cnt[2] += executed  # instructions
                cnt[3] += executed  # busy_cycles
                thread.pc = pc
                self.cycle = cycle
                raise WatchdogError(
                    f"exceeded {max_cycles} cycles; runaway program?"
                )

            # --- context-switch boundary at pc ------------------------
            csb = all_csbs[tid][pc]
            kind = csb[0]
            if kind == dc.K_OFF_END:
                cycle += executed
                cnt[2] += executed
                cnt[3] += executed
                thread.pc = pc
                self.cycle = cycle
                raise SimulationError(
                    f"thread {tid} ran off the end of "
                    f"{thread.program.name!r}"
                )
            issued = executed + 1
            cycle += issued
            cnt[2] += issued  # instructions
            cnt[3] += issued  # busy_cycles
            if kind == _K_LOAD_D:
                # Load into a thread-private register: apply now (see
                # _K_LOAD_D note above), skipping the writeback list.
                _, df, di, bf, bi, off = csb
                addr = (bf[bi] + off) & _M
                if addr >= msize:
                    raise SimulationError(
                        f"address {addr:#x} outside memory of "
                        f"{msize:#x} words"
                    )
                df[di] = mwords.get(addr, 0)
            elif kind == dc.K_STORE:
                _, sf, si, bf, bi, off = csb
                addr = (bf[bi] + off) & _M
                if addr >= msize:
                    raise SimulationError(
                        f"address {addr:#x} outside memory of "
                        f"{msize:#x} words"
                    )
                value = sf[si]
                mwords[addr] = value & _M
                thread.stores.append((addr, value))
            elif kind == _K_RECV_D:
                _, df, di = csb
                addr = None
                base = thread.next_packet()
                if base:
                    cnt[7] += 1  # iterations
                    if measure_k is not None:
                        iters = thread.stats.iterations + cnt[7]
                        busy = thread.stats.busy_cycles + cnt[3]
                        if iters == 1:
                            thread.busy_mark = busy
                        elif (
                            iters == measure_k + 1
                            and thread.busy_mark is not None
                        ):
                            thread.stats.measured_cpi = (
                                busy - thread.busy_mark
                            ) / measure_k
                df[di] = base & _M
            elif kind == dc.K_SEND:
                _, sf, si = csb
                addr = None
                thread.out_queue.append(sf[si])
            elif kind == dc.K_CTX:
                cnt[5] += 1  # ctx_instrs
                pcs[tid] = pc + 1
                ready.append(tid)
                if plan is not None:
                    self._fire_bitflip(plan, tid, cycle)
                cycle += ctx_cost
                switch += ctx_cost
                cnt[6] += 1  # switches
                cnt[3] += ctx_cost
                continue
            elif kind == dc.K_HALT:
                thread.halted = True
                halted_count += 1
                thread.stats.finish_cycle = cycle
                if plan is not None:
                    self._fire_bitflip(plan, tid, cycle)
                cycle += ctx_cost
                switch += ctx_cost
                cnt[6] += 1
                cnt[3] += ctx_cost
                continue
            elif kind == dc.K_LOAD:
                _, df, di, bf, bi, off = csb
                addr = (bf[bi] + off) & _M
                if addr >= msize:
                    raise SimulationError(
                        f"address {addr:#x} outside memory of "
                        f"{msize:#x} words"
                    )
                writebacks[tid] = ((df, di, mwords.get(addr, 0)),)
            elif kind == _K_LOADQ_D or kind == dc.K_LOADQ:
                _, dsts, bf, bi, off = csb
                addr = (bf[bi] + off) & _M
                wb = []
                for k, (df, di) in enumerate(dsts):
                    word = (addr + k) & _M
                    if word >= msize:
                        raise SimulationError(
                            f"address {word:#x} outside memory of "
                            f"{msize:#x} words"
                        )
                    if kind == _K_LOADQ_D:
                        df[di] = mwords.get(word, 0)
                    else:
                        wb.append((df, di, mwords.get(word, 0)))
                if kind == dc.K_LOADQ:
                    writebacks[tid] = wb
            elif kind == dc.K_STOREQ:
                _, srcs, bf, bi, off = csb
                addr = (bf[bi] + off) & _M
                for k, (sf, si) in enumerate(srcs):
                    value = sf[si]
                    word = (addr + k) & _M
                    if word >= msize:
                        raise SimulationError(
                            f"address {word:#x} outside memory of "
                            f"{msize:#x} words"
                        )
                    mwords[word] = value & _M
                    thread.stores.append((word, value))
            else:  # K_RECV with a physical (shared) destination
                _, df, di = csb
                addr = None
                base = thread.next_packet()
                if base:
                    cnt[7] += 1
                    if measure_k is not None:
                        iters = thread.stats.iterations + cnt[7]
                        busy = thread.stats.busy_cycles + cnt[3]
                        if iters == 1:
                            thread.busy_mark = busy
                        elif (
                            iters == measure_k + 1
                            and thread.busy_mark is not None
                        ):
                            thread.stats.measured_cpi = (
                                busy - thread.busy_mark
                            ) / measure_k
                writebacks[tid] = ((df, di, base),)
            cnt[4] += 1  # mem_ops
            if regions:
                latency = mem_latency
                if addr is not None:
                    for lo, hi, lat in regions:
                        if lo <= addr < hi:
                            latency = lat
                            break
                wake_at = cycle + latency
            else:
                wake_at = cycle + mem_latency
            if plan is not None:
                # ``sim.stuck``: the wake never arrives; the idle-advance
                # jumps the clock past ``max_cycles`` and the watchdog
                # fires -- never a hang (mirrors Machine._block).
                if faults.fire("sim.stuck", tid=tid, cycle=cycle) is not None:
                    wake_at = cycle + faults.STUCK_DELAY
                self._fire_bitflip(plan, tid, cycle)
            heappush(pending, (wake_at, tid))
            pcs[tid] = pc + 1
            cycle += ctx_cost
            switch += ctx_cost
            cnt[6] += 1
            cnt[3] += ctx_cost

        self.cycle = cycle
        self._idle = idle
        self._switch = switch
        for thread, pc in zip(threads, pcs):
            thread.pc = pc
            thread.blocked_until = None
        for wake_at, tid in pending:
            threads[tid].blocked_until = wake_at
        for tid, thread in enumerate(threads):
            cnt = self._counts[tid]
            st = thread.stats
            st.alu_ops += cnt[0]
            st.moves += cnt[1]
            st.instructions += cnt[2]
            st.busy_cycles += cnt[3]
            st.mem_ops += cnt[4]
            st.ctx_instrs += cnt[5]
            st.switches += cnt[6]
            st.iterations += cnt[7]
            cnt[:] = [0] * _N_COUNTS
            # Mirror final virtual-register values into the context's
            # vregs dict so post-run inspection works like the
            # reference engine (decoded-but-never-written regs read 0,
            # the same default the reference's dict lookup yields).
            names = self._decoded[tid].vreg_names
            if names:
                thread.vregs.update(zip(names, self._vfiles[tid]))
        em = obs.get_emitter()
        if em.enabled:
            # Mirror the reference engine's run counters (machine.py) so
            # the labeled series compare across engines; totals stay
            # engine-agnostic.
            reg = obs_metrics.registry()
            reg.counter("sim.runs").inc()
            reg.counter("sim.runs", engine="fast").inc()
            reg.counter("sim.cycles").inc(cycle)
            reg.counter("sim.cycles", engine="fast").inc(cycle)
            reg.counter("sim.idle_cycles").inc(idle)
            reg.counter("sim.switch_cycles").inc(switch)
            for thread in threads:
                labels = {
                    "thread": thread.tid,
                    "kernel": thread.program.name,
                    "engine": "fast",
                }
                st = thread.stats
                reg.counter("sim.thread.busy_cycles", **labels).inc(
                    st.busy_cycles
                )
                reg.counter("sim.thread.instructions", **labels).inc(
                    st.instructions
                )
                reg.counter("sim.thread.iterations", **labels).inc(
                    st.iterations
                )
                reg.counter("sim.thread.switches", **labels).inc(st.switches)
        return MachineStats(
            cycles=cycle,
            idle_cycles=idle,
            switch_cycles=switch,
            threads=[t.stats for t in threads],
        )


def decode_cached(program: Program) -> dc.DecodedProgram:
    """Decode ``program``, reusing a cached decode for the same object.

    Programs are mutable (rewriting passes edit them in place), so the
    cache is keyed by object identity *and* a structural fingerprint
    (instruction identities + label table); any edit misses the cache
    and re-decodes.  Multiple machines over the same program -- the
    repeated runs of a benchmark sweep -- then share one decode.
    """
    key = (
        tuple(id(i) for i in program.instrs),
        tuple(sorted(program.labels.items())),
    )
    cached = getattr(program, "_decode_cache", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    decoded = dc.decode_program(program)
    program._decode_cache = (key, decoded)  # type: ignore[attr-defined]
    return decoded
