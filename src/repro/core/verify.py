"""The independent allocation verifier.

:func:`verify_outcome` re-checks an :class:`AllocationOutcome` from
first principles, sharing **no code** with the allocator decisions it
audits: the layout checks are plain arithmetic over the published
register windows, the safety check recomputes liveness of the
*rewritten* programs with the reference set-based worklist (never the
dense kernels), and the semantic check is
a differential run of source vs rewritten programs on the reference
interpreter with the paranoid checker armed.  The oracle runs execute
under :func:`repro.resilience.faults.suspended`, so a chaos scenario
injecting faults into the system under test cannot corrupt the
verifier's ground truth.

The checks, in order:

``layout.windows``
    every thread's private window and the shared window lie inside
    ``[0, Nreg)``, the private windows are pairwise disjoint, and none
    of them overlaps the shared window.
``layout.budget``
    ``sum_i PR_i + SGR <= Nreg`` and ``SGR == max_i SR_i`` -- the
    paper's global requirement, recomputed from the per-thread facts.
``rewrite.complete``
    rewriting left no virtual register behind: every register operand
    of every rewritten program is physical.
``rewrite.ownership``
    every physical register an instruction of thread ``i`` touches is
    inside thread ``i``'s private window or the shared window.
``safety.csb_private``
    the paper's core invariant: every value live across a
    context-switch boundary of thread ``i`` sits in a *private*
    register of thread ``i``.  Liveness is recomputed here with the
    reference implementation; a bug in the dense kernels cannot
    vouch for itself.
``semantics.differential``
    the rewritten programs are observably equivalent to their sources:
    same send queues and (non-scratch) store traces over a shared
    deterministic packet workload, with paranoid mode re-checking
    window ownership dynamically.

A failed check lands in the returned :class:`VerificationReport`;
``strict=True`` (the default) additionally raises
:class:`~repro.errors.VerificationError` naming every failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.pipeline import AllocationOutcome
from repro.errors import VerificationError
from repro.ir.operands import PhysReg, Reg
from repro.obs import events as obs
from repro.obs import metrics as obs_metrics


@dataclass(frozen=True)
class Check:
    """One verifier check: its name, verdict, and failure detail."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class VerificationReport:
    """Everything :func:`verify_outcome` concluded."""

    checks: List[Check]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[Check]:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        lines = ["verification: " + ("PASS" if self.ok else "FAIL")]
        for c in self.checks:
            mark = "ok " if c.ok else "FAIL"
            lines.append(f"  [{mark}] {c.name}" + (f": {c.detail}" if c.detail else ""))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail}
                for c in self.checks
            ],
        }

    def raise_if_failed(self) -> None:
        if self.ok:
            return
        details = "; ".join(
            f"{c.name}: {c.detail or 'failed'}" for c in self.failures
        )
        raise VerificationError(f"allocation verification failed -- {details}")


def _check_windows(outcome: AllocationOutcome) -> Check:
    a = outcome.assignment
    problems: List[str] = []
    s0, s1 = a.shared_registers()
    if not (0 <= s0 <= s1 <= a.nreg):
        problems.append(f"shared window [{s0}, {s1}) outside [0, {a.nreg})")
    windows: List[Tuple[int, int, int]] = []
    for tid, m in enumerate(a.maps):
        p0, p1 = m.private_registers()
        if not (0 <= p0 <= p1 <= a.nreg):
            problems.append(
                f"thread {tid} private window [{p0}, {p1}) "
                f"outside [0, {a.nreg})"
            )
        if p1 > s0 and s1 > p0:
            problems.append(
                f"thread {tid} private window [{p0}, {p1}) overlaps "
                f"shared window [{s0}, {s1})"
            )
        windows.append((p0, p1, tid))
    windows.sort()
    for (a0, a1, ta), (b0, b1, tb) in zip(windows, windows[1:]):
        if b0 < a1:
            problems.append(
                f"private windows of threads {ta} and {tb} overlap: "
                f"[{a0}, {a1}) vs [{b0}, {b1})"
            )
    return Check("layout.windows", not problems, "; ".join(problems))


def _check_budget(outcome: AllocationOutcome) -> Check:
    a = outcome.assignment
    total_private = sum(m.pr for m in a.maps)
    max_sr = max((m.sr for m in a.maps), default=0)
    problems: List[str] = []
    if a.sgr != max_sr:
        problems.append(f"SGR={a.sgr} but max per-thread SR is {max_sr}")
    if total_private + a.sgr > a.nreg:
        problems.append(
            f"sum PR_i + SGR = {total_private} + {a.sgr} exceeds "
            f"Nreg={a.nreg}"
        )
    return Check("layout.budget", not problems, "; ".join(problems))


def _phys_index(reg: Reg) -> int:
    """Physical index of a register operand, or -1 for virtuals."""
    return reg.index if isinstance(reg, PhysReg) else -1


def _check_rewrite(outcome: AllocationOutcome) -> Tuple[Check, Check]:
    a = outcome.assignment
    s0, s1 = a.shared_registers()
    virtuals: List[str] = []
    escapes: List[str] = []
    for tid, program in enumerate(outcome.programs):
        p0, p1 = a.maps[tid].private_registers()
        for pc, instr in enumerate(program.instrs):
            for reg in instr.regs:
                idx = _phys_index(reg)
                if idx < 0:
                    virtuals.append(
                        f"thread {tid} pc {pc}: virtual register {reg}"
                    )
                elif not (p0 <= idx < p1 or s0 <= idx < s1):
                    escapes.append(
                        f"thread {tid} pc {pc}: $r{idx} outside private "
                        f"[{p0}, {p1}) and shared [{s0}, {s1})"
                    )
    return (
        Check("rewrite.complete", not virtuals, "; ".join(virtuals[:4])),
        Check("rewrite.ownership", not escapes, "; ".join(escapes[:4])),
    )


def _check_csb_private(outcome: AllocationOutcome) -> Check:
    # Recompute liveness of the REWRITTEN programs with the reference
    # set-based worklist: the invariant check must not trust the
    # kernels under audit.
    from repro.cfg.liveness import compute_liveness_reference

    a = outcome.assignment
    problems: List[str] = []
    for tid, program in enumerate(outcome.programs):
        p0, p1 = a.maps[tid].private_registers()
        liveness = compute_liveness_reference(program)
        for pc, instr in enumerate(program.instrs):
            if not instr.is_csb:
                continue
            for reg in liveness.live_across_csb(pc):
                idx = _phys_index(reg)
                if not p0 <= idx < p1:
                    problems.append(
                        f"thread {tid} pc {pc} ({instr.opcode.name}): "
                        f"{reg} is live across the CSB but not in the "
                        f"private window [{p0}, {p1})"
                    )
    return Check("safety.csb_private", not problems, "; ".join(problems[:4]))


def _check_semantics(
    outcome: AllocationOutcome, packets_per_thread: int
) -> Check:
    from repro.resilience import faults
    from repro.sim.run import (
        describe_mismatch,
        outputs_match,
        run_reference,
        run_threads,
    )

    nreg = outcome.assignment.nreg
    # The oracle (and the allocated re-run it is compared against) must
    # see the real machine, not the chaos scenario's injected faults.
    with faults.suspended():
        reference = run_reference(
            outcome.source_programs,
            packets_per_thread=packets_per_thread,
            nreg=nreg,
            engine="reference",
        )
        allocated = run_threads(
            outcome.programs,
            packets_per_thread=packets_per_thread,
            nreg=nreg,
            assignment=outcome.assignment,
            engine="reference",
        )
    if outputs_match(reference, allocated):
        return Check("semantics.differential", True)
    return Check(
        "semantics.differential",
        False,
        describe_mismatch(reference, allocated),
    )


def verify_outcome(
    outcome: AllocationOutcome,
    check_semantics: bool = True,
    packets_per_thread: int = 8,
    strict: bool = True,
) -> VerificationReport:
    """Independently re-check ``outcome``; see the module docstring.

    Args:
        outcome: the allocation to audit.
        check_semantics: also run the differential source-vs-rewritten
            simulation (the most expensive check; static checks always
            run).
        packets_per_thread: workload size for the differential runs.
        strict: raise :class:`VerificationError` on any failed check
            (the report is still returned to non-strict callers).
    """
    checks = [_check_windows(outcome), _check_budget(outcome)]
    checks.extend(_check_rewrite(outcome))
    checks.append(_check_csb_private(outcome))
    if check_semantics:
        checks.append(_check_semantics(outcome, packets_per_thread))
    report = VerificationReport(checks=checks)
    em = obs.get_emitter()
    if em.enabled:
        em.emit("verify.outcome", **report.to_dict())
        reg = obs_metrics.registry()
        reg.counter("verify.runs").inc()
        if not report.ok:
            reg.counter("verify.failures").inc()
    if strict:
        report.raise_if_failed()
    return report
