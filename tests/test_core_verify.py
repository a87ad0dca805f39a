"""Tests for the independent allocation verifier.

The verifier must pass clean allocator output (including every suite
kernel at its Table-2 lower bound) and fail hand-tampered outcomes,
naming the violated check.
"""

import dataclasses

import pytest

from repro.core.analysis import analyze_thread
from repro.core.bounds import estimate_bounds
from repro.core.pipeline import allocate_programs
from repro.core.verify import verify_outcome
from repro.errors import VerificationError
from repro.ir.parser import parse_program
from repro.obs import events
from repro.suite.registry import BENCHMARKS, load
from tests.conftest import FIG3_T1, FIG3_T2, MINI_KERNEL


def _two_thread_outcome(nreg=24):
    programs = [
        parse_program(FIG3_T1, "fig3_t1"),
        parse_program(FIG3_T2, "fig3_t2"),
    ]
    return allocate_programs(programs, nreg=nreg)


def test_clean_outcome_verifies():
    outcome = _two_thread_outcome()
    report = verify_outcome(outcome)
    assert report.ok
    assert not report.failures
    assert "PASS" in report.summary()
    names = [c.name for c in report.checks]
    assert names == [
        "layout.windows",
        "layout.budget",
        "rewrite.complete",
        "rewrite.ownership",
        "safety.csb_private",
        "semantics.differential",
    ]


def test_verify_emits_telemetry():
    outcome = _two_thread_outcome()
    with events.capture() as em:
        verify_outcome(outcome, check_semantics=False)
    assert any(e.name == "verify.outcome" for e in em.events)


def test_overlapping_windows_fail_layout():
    outcome = _two_thread_outcome()
    a = outcome.assignment
    # Slide thread 1's private window onto thread 0's.
    bad_maps = list(a.maps)
    bad_maps[1] = dataclasses.replace(bad_maps[1], private_base=a.maps[0].private_base)
    bad = dataclasses.replace(a, maps=bad_maps)
    tampered = dataclasses.replace(outcome, assignment=bad)
    with pytest.raises(VerificationError, match="layout.windows"):
        verify_outcome(tampered, check_semantics=False)
    report = verify_outcome(tampered, check_semantics=False, strict=False)
    assert not report.ok
    assert "layout.windows" in [c.name for c in report.failures]
    assert "FAIL" in report.summary()


def test_wrong_sgr_fails_budget():
    outcome = _two_thread_outcome()
    bad = dataclasses.replace(
        outcome.assignment, sgr=outcome.assignment.sgr + 3
    )
    report = verify_outcome(
        dataclasses.replace(outcome, assignment=bad),
        check_semantics=False,
        strict=False,
    )
    assert "layout.budget" in [c.name for c in report.failures]


def test_unrewritten_program_fails_completeness():
    outcome = _two_thread_outcome()
    tampered = dataclasses.replace(outcome, programs=outcome.source_programs)
    report = verify_outcome(tampered, check_semantics=False, strict=False)
    assert "rewrite.complete" in [c.name for c in report.failures]


def test_shrunken_window_fails_ownership():
    # Shrinking thread 0's private window orphans registers the rewrite
    # legitimately used: ownership (and usually the CSB invariant) must
    # fail even though the rewritten code itself is untouched.
    programs = [
        parse_program(MINI_KERNEL, "mini_a"),
        parse_program(MINI_KERNEL, "mini_b"),
    ]
    outcome = allocate_programs(programs, nreg=32)
    a = outcome.assignment
    assert a.maps[0].pr >= 2
    bad_maps = list(a.maps)
    bad_maps[0] = dataclasses.replace(bad_maps[0], pr=bad_maps[0].pr - 1)
    tampered = dataclasses.replace(
        outcome, assignment=dataclasses.replace(a, maps=bad_maps)
    )
    report = verify_outcome(tampered, check_semantics=False, strict=False)
    assert "rewrite.ownership" in [c.name for c in report.failures]


def test_misassigned_boundary_register_fails_csb_check():
    # Swap the two private windows without touching the rewritten code:
    # every value live across a CSB of thread 0 now sits in thread 1's
    # window, the paper's core invariant.
    outcome = _two_thread_outcome()
    a = outcome.assignment
    m0, m1 = a.maps
    bad_maps = [
        dataclasses.replace(m0, private_base=m1.private_base, pr=m1.pr),
        dataclasses.replace(m1, private_base=m0.private_base, pr=m0.pr),
    ]
    tampered = dataclasses.replace(
        outcome, assignment=dataclasses.replace(a, maps=bad_maps)
    )
    report = verify_outcome(tampered, check_semantics=False, strict=False)
    assert "safety.csb_private" in [c.name for c in report.failures]


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_suite_kernel_verifies_at_table2_lower_bound(name):
    program = load(name)
    bounds = estimate_bounds(analyze_thread(program))
    outcome = allocate_programs([program], nreg=bounds.min_r)
    report = verify_outcome(outcome, packets_per_thread=4)
    assert report.ok, report.summary()


def test_mini_kernel_pair_verifies_at_joint_bound():
    programs = [
        parse_program(MINI_KERNEL, "mini_a"),
        parse_program(MINI_KERNEL, "mini_b"),
    ]
    bounds = [estimate_bounds(analyze_thread(p)) for p in programs]
    sgr = max(b.min_r - b.min_pr for b in bounds)
    nreg = sum(b.min_pr for b in bounds) + sgr
    outcome = allocate_programs(programs, nreg=nreg)
    report = verify_outcome(outcome, packets_per_thread=4)
    assert report.ok, report.summary()


def test_csb_check_uses_reference_liveness_without_swapping_default(
    monkeypatch,
):
    # The service verifies from worker threads, so the safety check must
    # not swap the process-wide analysis default: two overlapping
    # verifications could restore it in the wrong order.  It still must
    # never trust the dense kernels it audits.
    import repro.core.dense as dense

    outcome = allocate_programs([load("crc"), load("frag")], nreg=13)

    def refuse(*args, **kwargs):
        raise AssertionError("the verifier must not call this")

    with monkeypatch.context() as patch:
        patch.setattr(dense, "set_default_analysis_impl", refuse)
        assert verify_outcome(outcome, packets_per_thread=4).ok
    with monkeypatch.context() as patch:
        patch.setattr(dense, "compute_liveness_dense", refuse)
        assert verify_outcome(outcome, packets_per_thread=4).ok
