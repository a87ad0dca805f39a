"""Differential tests: the fast engine is bit-identical to the reference.

The fast engine (:mod:`repro.sim.fast`) has no authority of its own --
its only contract is producing exactly the reference interpreter's
MachineStats, send queues, store traces, memory contents, and final
thread state, just faster.  These tests enforce that contract over the
whole benchmark suite, mixed-kernel machines, every runtime knob
(stop_on_first_halt, measure_iterations, latency_regions), error paths,
and hypothesis-generated programs, plus the engine-selection policy.
"""

from __future__ import annotations

import warnings

import pytest

from repro.errors import EngineError, SimulationError
from repro.ir.parser import parse_program
from repro.ir.validate import validate_program
from repro.obs import events as obs
from repro.sim.engine import (
    _reset_fallback_warnings,
    create_machine,
    get_default_engine,
    select_engine,
    set_default_engine,
)
from repro.sim.fast import FastMachine
from repro.sim.machine import Machine
from repro.sim.memory import Memory
from repro.sim.packets import make_workload
from repro.sim.run import (
    PACKET_AREA_BASE,
    PACKET_AREA_STRIDE,
    run_threads,
)
from repro.suite.registry import BENCHMARKS, load
from tests.conftest import MINI_KERNEL


def _setup_workloads(machine, packets):
    for tid, thread in enumerate(machine.threads):
        workload = make_workload(
            machine.memory,
            base=PACKET_AREA_BASE + tid * PACKET_AREA_STRIDE,
            n_packets=packets,
            payload_words=16,
            seed=1 + tid,
        )
        thread.in_queue = list(workload.bases)


def run_both(programs, packets=8, run_kwargs=None, **machine_kwargs):
    """Run ``programs`` on both engines; return (ref_machine, ref_stats,
    fast_machine, fast_stats)."""
    results = []
    for cls in (Machine, FastMachine):
        machine = cls(programs, memory=Memory(), **machine_kwargs)
        _setup_workloads(machine, packets)
        stats = machine.run(**(run_kwargs or {}))
        results.append((machine, stats))
    (ref_m, ref_s), (fast_m, fast_s) = results
    return ref_m, ref_s, fast_m, fast_s


def assert_identical(ref_m, ref_s, fast_m, fast_s):
    assert ref_s == fast_s
    for t_ref, t_fast in zip(ref_m.threads, fast_m.threads):
        assert list(t_ref.out_queue) == list(t_fast.out_queue)
        assert t_ref.stores == t_fast.stores
        assert t_ref.pc == t_fast.pc
        assert t_ref.halted == t_fast.halted
        assert t_ref.blocked_until == t_fast.blocked_until
    assert ref_m.memory.snapshot() == fast_m.memory.snapshot()


# ----------------------------------------------------------------------
# Differential: the whole benchmark suite.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_differential_suite_kernel(name):
    programs = [load(name) for _ in range(2)]
    assert_identical(*run_both(programs, packets=8))


def test_differential_mixed_kernels():
    programs = [load(n) for n in ("frag", "ipchains", "wraps_send", "drr")]
    assert_identical(*run_both(programs, packets=6))


def test_differential_stop_on_first_halt():
    programs = [load("frag"), load("url")]
    ref_m, ref_s, fast_m, fast_s = run_both(
        programs, packets=4, run_kwargs={"stop_on_first_halt": True}
    )
    assert_identical(ref_m, ref_s, fast_m, fast_s)


def test_differential_measure_iterations():
    programs = [load("wraps_recv"), load("wraps_recv")]
    ref_m, ref_s, fast_m, fast_s = run_both(
        programs, packets=12, measure_iterations=4
    )
    assert_identical(ref_m, ref_s, fast_m, fast_s)
    assert all(t.measured_cpi is not None for t in fast_s.threads)


def test_differential_latency_regions():
    regions = [(0, 0x20000, 5), (0x20000, 1 << 24, 45)]
    programs = [load("frag"), load("frag")]
    assert_identical(
        *run_both(programs, packets=6, latency_regions=regions)
    )


def test_differential_final_vregs():
    program = parse_program(MINI_KERNEL, "mini")
    ref_m, ref_s, fast_m, fast_s = run_both([program, program], packets=5)
    assert_identical(ref_m, ref_s, fast_m, fast_s)
    for t_ref, t_fast in zip(ref_m.threads, fast_m.threads):
        for name, value in t_fast.vregs.items():
            assert t_ref.vregs.get(name, 0) == value


# ----------------------------------------------------------------------
# Differential: error paths.
# ----------------------------------------------------------------------
def _error_of(cls, text, max_cycles=50_000_000):
    program = parse_program(text, "t")
    machine = cls([program], memory=Memory())
    with pytest.raises(SimulationError) as err:
        machine.run(max_cycles=max_cycles)
    return str(err.value)


def test_run_off_end_matches_reference():
    text = "movi %a, 1\nadd %b, %a, %a\n"
    assert _error_of(Machine, text) == _error_of(FastMachine, text)


def test_runaway_matches_reference():
    text = "movi %a, 1\nloop:\naddi %a, %a, 1\nbr loop\n"
    assert _error_of(Machine, text, 500) == _error_of(
        FastMachine, text, 500
    )


def test_bad_physical_register_matches_reference():
    text = "movi $r200, 1\nhalt\n"
    ref = _error_of(Machine, text)
    fast = _error_of(FastMachine, text)
    assert "200" in ref and "200" in fast


def test_bad_address_matches_reference():
    text = "movi %p, 0\nsubi %p, %p, 1\nstore %p, [%p]\nhalt\n"
    assert _error_of(Machine, text) == _error_of(FastMachine, text)


# ----------------------------------------------------------------------
# Differential: hypothesis-generated programs.
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given  # noqa: E402

from tests.test_properties import (  # noqa: E402
    SETTINGS,
    branching_program,
    straightline_program,
)


def _hypothesis_differential(text):
    program = parse_program(text, "gen")
    validate_program(program)
    machines = []
    for cls in (Machine, FastMachine):
        machine = cls([program, program], memory=Memory())
        for thread in machine.threads:
            thread.in_queue = [PACKET_AREA_BASE]
        machines.append(machine)
    ref_m, fast_m = machines
    try:
        ref_s = ref_m.run(max_cycles=200_000)
    except SimulationError:
        with pytest.raises(SimulationError):
            fast_m.run(max_cycles=200_000)
        assume(False)
        return
    fast_s = fast_m.run(max_cycles=200_000)
    assert_identical(ref_m, ref_s, fast_m, fast_s)


@SETTINGS
@given(straightline_program())
def test_hypothesis_differential_straightline(text):
    _hypothesis_differential(text)


@SETTINGS
@given(branching_program())
def test_hypothesis_differential_branching(text):
    _hypothesis_differential(text)


# ----------------------------------------------------------------------
# Engine selection policy.
# ----------------------------------------------------------------------
def test_auto_prefers_fast():
    assert select_engine("auto") == "fast"
    assert select_engine(None) == "fast"
    assert isinstance(create_machine([load("frag")], "auto"), FastMachine)


def test_auto_falls_back_for_reference_features():
    assert select_engine("auto", trace=True) == "reference"
    assert select_engine("auto", timeline=True) == "reference"
    assert select_engine("auto", assignment=object()) == "reference"


def test_auto_prefers_reference_under_capture():
    with obs.capture():
        assert select_engine("auto") == "reference"
        assert isinstance(
            create_machine([load("frag")], "auto"), Machine
        )
    assert select_engine("auto") == "fast"


def test_explicit_fast_conflicts_raise():
    with pytest.raises(EngineError):
        select_engine("fast", trace=True)
    with pytest.raises(EngineError):
        FastMachine([load("frag")], trace=True)
    with pytest.raises(EngineError):
        FastMachine([load("frag")], timeline=True)
    with pytest.raises(EngineError):
        FastMachine([load("frag")], assignment=object())


def _runtime_warnings(caught):
    return [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_fast_default_engine_warns_and_falls_back():
    previous = set_default_engine("fast")
    _reset_fallback_warnings()
    try:
        assert get_default_engine() == "fast"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            chosen = select_engine(None, trace=True)
        assert chosen == "reference"
        assert len(_runtime_warnings(caught)) == 1
    finally:
        set_default_engine(previous)
        _reset_fallback_warnings()
    assert get_default_engine() == previous


def test_fallback_warning_deduplicated():
    """A conflicting engine *default* warns once per process, not once
    per select (the degradation record still fires each time)."""
    previous = set_default_engine("fast")
    _reset_fallback_warnings()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert select_engine(None, trace=True) == "reference"
            assert select_engine(None, trace=True) == "reference"
        assert len(_runtime_warnings(caught)) == 1
        # The test hook forgets issued warnings; the next conflict
        # warns again.
        _reset_fallback_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert select_engine(None, trace=True) == "reference"
        assert len(_runtime_warnings(caught)) == 1
    finally:
        set_default_engine(previous)
        _reset_fallback_warnings()


def test_unknown_engine_rejected():
    with pytest.raises(EngineError):
        select_engine("turbo")
    with pytest.raises(EngineError):
        set_default_engine("turbo")


def test_run_threads_fast_with_assignment_raises():
    with pytest.raises(EngineError):
        run_threads([load("frag")], engine="fast", assignment=object())


def test_create_machine_fast_conflicts_raise():
    # The factory must reject the same fast-engine combinations the
    # constructor does: trace, timeline, and paranoid assignment
    # checking are reference-only features.
    with pytest.raises(EngineError):
        create_machine([load("frag")], "fast", trace=True)
    with pytest.raises(EngineError):
        create_machine([load("frag")], "fast", timeline=True)
    with pytest.raises(EngineError):
        create_machine([load("frag")], "fast", assignment=object())


def test_run_threads_engines_agree():
    program = parse_program(MINI_KERNEL, "mini")
    ref = run_threads(
        [program], packets_per_thread=4, engine="reference"
    )
    fast = run_threads([program], packets_per_thread=4, engine="fast")
    assert ref.stats == fast.stats
    assert ref.out_queues == fast.out_queues
    assert ref.stores == fast.stores


def test_cli_run_allocated_rejects_fast(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "kernel.npir"
    path.write_text(MINI_KERNEL)
    code = main(
        ["run", str(path), "--allocated", "--engine", "fast"]
    )
    assert code == 2
    err = capsys.readouterr().err
    # The error names the flag that forced the conflict.
    assert "--allocated" in err
    assert "fast engine" in err


def test_cli_run_fast_engine(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "kernel.npir"
    path.write_text(MINI_KERNEL)
    assert main(["run", str(path), "--engine", "fast"]) == 0
    assert "cycles:" in capsys.readouterr().out
