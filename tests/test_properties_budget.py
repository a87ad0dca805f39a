"""Property tests over register budgets: squeeze anywhere, stay correct."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.analysis import analyze_thread
from repro.core.bounds import estimate_bounds
from repro.core.intra import IntraAllocator
from repro.core.pipeline import allocate_programs
from repro.ir.parser import parse_program
from repro.sim.run import outputs_match, run_reference, run_threads
from tests.conftest import FIG3_T1, FIG3_T2, MINI_KERNEL

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TEXTS = {"mini": MINI_KERNEL, "fig3a": FIG3_T1, "fig3b": FIG3_T2}


@SETTINGS
@given(
    st.lists(st.sampled_from(sorted(TEXTS)), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=12),
)
def test_any_feasible_budget_is_correct(names, slack):
    programs = [parse_program(TEXTS[n], f"{n}{i}") for i, n in enumerate(names)]
    bounds = [estimate_bounds(analyze_thread(p)) for p in programs]
    floor = sum(b.min_pr for b in bounds) + max(
        b.min_r - b.min_pr for b in bounds
    )
    nreg = floor + slack
    out = allocate_programs([p.copy() for p in programs], nreg=nreg)
    assert out.total_registers <= nreg
    ref = run_reference(programs, packets_per_thread=2)
    got = run_threads(
        out.programs,
        packets_per_thread=2,
        nreg=nreg,
        assignment=out.assignment,
    )
    assert outputs_match(ref, got)


@SETTINGS
@given(st.data())
def test_intra_realize_any_feasible_point(data):
    program = parse_program(MINI_KERNEL, "k")
    an = analyze_thread(program)
    bounds = estimate_bounds(an)
    pr = data.draw(
        st.integers(min_value=bounds.min_pr, max_value=bounds.max_pr)
    )
    sr_lo = max(bounds.min_r - pr, 0)
    sr_hi = max(bounds.max_r - pr, sr_lo)
    sr = data.draw(st.integers(min_value=sr_lo, max_value=sr_hi))
    alloc = IntraAllocator(an, bounds)
    ctx = alloc.realize(pr, sr)
    ctx.validate()
    assert (ctx.pr, ctx.sr) == (pr, sr)
