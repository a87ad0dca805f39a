"""Unit tests for the resilience subsystem: fault injection, deadlines,
the degradation ladder, retries, and the simulator watchdogs."""

import pathlib

import pytest

from repro.errors import (
    DeadlineExceeded,
    ReproError,
    SimulationError,
    TransientError,
    WatchdogError,
)
from repro.ir.parser import parse_program
from repro.obs import events
from repro.resilience import faults, guard
from repro.resilience.deadline import Deadline, check
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.sim.fast import FastMachine
from repro.sim.machine import Machine


# ----------------------------------------------------------------------
# Fault injection.
# ----------------------------------------------------------------------
def test_fire_without_plan_is_none():
    assert faults.active() is None
    assert faults.fire("cache.disk") is None


def test_inject_scopes_and_restores():
    spec = FaultSpec("cache.disk")
    with faults.inject(spec) as plan:
        assert faults.active() is plan
        assert faults.fire("cache.disk") is spec
    assert faults.active() is None


def test_after_and_count_schedule_exact_hits():
    spec = FaultSpec("x", after=2, count=2)
    plan = FaultPlan((spec,))
    verdicts = [plan.fire("x") is spec for _ in range(6)]
    assert verdicts == [False, False, True, True, False, False]
    assert [r.hit for r in plan.fired] == [3, 4]


def test_count_zero_disables():
    plan = FaultPlan((FaultSpec("x", count=0),))
    assert all(plan.fire("x") is None for _ in range(4))
    assert not plan.fired


def test_first_eligible_spec_wins():
    a = FaultSpec("x", mode="a", count=1)
    b = FaultSpec("x", mode="b", count=1)
    plan = FaultPlan((a, b))
    assert plan.fire("x") is a
    assert plan.fire("x") is b
    assert [r.mode for r in plan.fired] == ["a", "b"]


def test_probability_is_seed_deterministic():
    def history(seed):
        plan = FaultPlan((FaultSpec("x", prob=0.5, count=100),), seed=seed)
        return [plan.fire("x") is not None for _ in range(40)]

    assert history(7) == history(7)
    assert history(7) != history(8)  # astronomically unlikely to collide
    assert any(history(7)) and not all(history(7))


def test_suspended_disarms_and_restores():
    with faults.inject(FaultSpec("x")) as plan:
        with faults.suspended():
            assert faults.active() is None
            assert faults.fire("x") is None
        assert faults.active() is plan


def test_fired_records_context_and_telemetry():
    with events.capture() as em:
        with faults.inject(FaultSpec("x", mode="boom")) as plan:
            faults.fire("x", tid=3)
    (record,) = plan.fired
    assert record.to_dict() == {"site": "x", "mode": "boom", "hit": 1, "tid": 3}
    assert any(e.name == "fault.injected" for e in em.events)


# ----------------------------------------------------------------------
# Deadlines.
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_deadline_remaining_and_expiry():
    clock = FakeClock()
    d = Deadline.after(5.0, clock=clock)
    assert d.remaining() == pytest.approx(5.0)
    assert not d.expired()
    clock.now += 5.5
    assert d.expired()
    with pytest.raises(DeadlineExceeded) as err:
        d.check("bounds")
    assert err.value.phase == "bounds"
    assert "bounds" in str(err.value)


def test_deadline_check_tolerates_none():
    check(None, "anything")  # must not raise
    clock = FakeClock()
    d = Deadline(0.0, clock=clock)
    clock.now += 0.1
    with pytest.raises(DeadlineExceeded):
        check(d, "p")


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        Deadline(-1.0)


# ----------------------------------------------------------------------
# Degradation ladder.
# ----------------------------------------------------------------------
def test_unknown_rung_rejected():
    with pytest.raises(ValueError, match="unknown degradation rung"):
        guard.record_degradation("made.up", reason="nope")


def test_record_degradation_logs_and_emits():
    with events.capture() as em:
        with guard.watching() as seen:
            rec = guard.record_degradation(
                "cache.disk_to_memory", reason="flaky disk", streak=4
            )
    assert rec in seen
    assert rec.rung == "cache.disk_to_memory"
    assert dict(rec.context)["streak"] == 4
    assert rec in guard.degradations()
    assert any(e.name == "resilience.degrade" for e in em.events)


def test_ladder_documents_every_rung():
    names = {r.name for r in guard.LADDER}
    assert names == {
        "analysis.dense_to_reference",
        "sweep.parallel_to_serial",
        "cache.disk_to_memory",
        "alloc.greedy_to_spill",
        "service.store_to_memory",
        "service.engine_to_reference",
        "service.verify_to_skip",
    }
    for rung in guard.LADDER:
        assert rung.trigger and rung.action


def test_robustness_doc_lists_exactly_the_ladder():
    docs = pathlib.Path(__file__).resolve().parents[1] / "docs"
    text = (docs / "ROBUSTNESS.md").read_text()
    table = text[text.index("| rung | trigger | degraded mode |"):]
    rows = table.split("\n\n", 1)[0].splitlines()[2:]
    documented = [row.split("|")[1].strip().strip("`") for row in rows]
    assert documented == [r.name for r in guard.LADDER]


def test_retry_transient_recovers():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise TransientError("blip")
        return "done"

    assert guard.retry_transient(flaky, attempts=3) == "done"
    assert len(calls) == 3


def test_retry_transient_exhaustion_reraises():
    def always():
        raise TransientError("permanent blip")

    with pytest.raises(TransientError, match="permanent blip"):
        guard.retry_transient(always, attempts=2)


def test_retry_transient_ignores_other_errors():
    calls = []

    def boom():
        calls.append(1)
        raise ValueError("not transient")

    with pytest.raises(ValueError):
        guard.retry_transient(boom, attempts=5)
    assert len(calls) == 1


def test_retry_backoff_sequence():
    sleeps = []

    def always():
        raise TransientError("x")

    with pytest.raises(TransientError):
        guard.retry_transient(
            always, attempts=4, backoff=0.1, sleep=sleeps.append
        )
    assert sleeps == pytest.approx([0.1, 0.2, 0.4])


# ----------------------------------------------------------------------
# Pipeline integration: deadlines and transient-analysis faults.
# ----------------------------------------------------------------------
def _mini():
    from tests.conftest import MINI_KERNEL

    return parse_program(MINI_KERNEL, "mini")


def test_pipeline_deadline_trips():
    from repro.core.pipeline import allocate_programs

    clock = FakeClock()
    d = Deadline(0.0, clock=clock)
    clock.now += 1.0
    with pytest.raises(DeadlineExceeded) as err:
        allocate_programs([_mini()], nreg=16, deadline=d)
    assert err.value.phase == "validate"


def test_pipeline_masks_one_transient_fault():
    from repro.core.cache import scoped
    from repro.core.pipeline import allocate_programs

    with scoped():
        with faults.inject(
            FaultSpec("pipeline.analyze", mode="transient", count=1)
        ) as plan:
            outcome = allocate_programs([_mini()], nreg=16)
    assert plan.fired_at("pipeline.analyze")
    assert outcome.programs  # allocation still completed


def test_pipeline_transient_storm_surfaces_typed():
    from repro.core.cache import scoped
    from repro.core.pipeline import allocate_programs

    with scoped():
        with faults.inject(
            FaultSpec("pipeline.analyze", mode="transient", count=10)
        ):
            with pytest.raises(TransientError):
                allocate_programs([_mini()], nreg=16)


def test_dense_analysis_fault_degrades_to_reference():
    from repro.core.cache import scoped
    from repro.core.pipeline import allocate_programs

    with scoped():
        with guard.watching() as degs:
            with faults.inject(
                FaultSpec("analysis.dense", mode="error", count=1)
            ) as plan:
                outcome = allocate_programs([_mini()], nreg=16)
    assert plan.fired_at("analysis.dense")
    assert any(d.rung == "analysis.dense_to_reference" for d in degs)
    assert outcome.programs
    # Degraded-path analysis must equal a clean reference analysis.
    from repro.core.analysis import analyze_thread

    assert outcome.analyses[0].slots == analyze_thread(_mini()).slots


# ----------------------------------------------------------------------
# Simulator watchdogs and fault sites.
# ----------------------------------------------------------------------
def _spin():
    return parse_program("spin:\n br spin\n", "spin")


@pytest.mark.parametrize("cls", [Machine, FastMachine])
def test_watchdog_fires_on_runaway(cls):
    with pytest.raises(WatchdogError):
        cls([_spin()]).run(max_cycles=2_000)


def test_watchdog_is_a_simulation_error():
    # Existing callers catching SimulationError keep working.
    assert issubclass(WatchdogError, SimulationError)
    assert issubclass(WatchdogError, ReproError)


@pytest.mark.parametrize("cls", [Machine, FastMachine])
def test_stuck_thread_hits_watchdog_not_a_hang(cls):
    program = parse_program(
        "movi %a, 1\nstore %a, [%a + 64]\nhalt\n", "blocker"
    )
    with faults.inject(FaultSpec("sim.stuck", mode="stuck", count=1)) as plan:
        with pytest.raises(WatchdogError):
            cls([program]).run(max_cycles=100_000)
    assert plan.fired_at("sim.stuck")


def test_bitflip_fires_deterministically_on_reference():
    program = parse_program(
        "movi $r0, 5\nstore $r0, [$r0 + 64]\nmovi $r1, 6\nhalt\n", "t"
    )
    def flipped_regs(seed):
        with faults.inject(
            FaultSpec("sim.bitflip", mode="bitflip", count=1), seed=seed
        ) as plan:
            machine = Machine([program], nreg=8)
            machine.run()
        assert plan.fired_at("sim.bitflip")
        return list(machine.regfile)

    assert flipped_regs(3) == flipped_regs(3)
