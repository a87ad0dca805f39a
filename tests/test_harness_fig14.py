"""Regression tests for the Figure-14 shared-analysis fast path.

``run_fig14`` used to analyse the same kernel once per thread copy;
now it analyses once and shares the :class:`ThreadAnalysis` across all
``nthd`` slots.  These tests pin down that the shortcut is sound: the
results are identical to per-copy analyses, and the inter-thread
allocator never mutates the shared analysis.
"""

import copy

from repro.core.analysis import analyze_thread
from repro.core.cache import scoped
from repro.core.inter import allocate_threads
from repro.harness.fig14 import run_fig14
from repro.suite.registry import load

LIGHT = ["frag", "drr"]


def test_shared_analysis_matches_per_copy():
    for name in LIGHT:
        # The old code path: a fresh analysis per thread copy.
        separate = [analyze_thread(load(name)) for _ in range(4)]
        want = allocate_threads(separate, nreg=128, zero_cost_only=True)
        with scoped():
            row = run_fig14([name], nthd=4, nreg=128)[0]
        assert row.pr == max(t.pr for t in want.threads)
        assert row.sr == want.sgr


def test_allocation_does_not_mutate_shared_analysis():
    an = analyze_thread(load("frag"))
    reads = {
        "slots": lambda: an.slots,
        "flow_edges": lambda: an.flow_edges,
        "occupants": lambda: an.occupants,
        "conflicts_at": an.conflict_lists,
        "conflict_masks": lambda: {
            r: an.dense.conflict_masks(r) for r in an.slots
        },
        "csb_slots_of": lambda: an.csb_slots_of,
    }
    baseline = {field: copy.deepcopy(read()) for field, read in reads.items()}
    first = allocate_threads([an] * 4, nreg=128, zero_cost_only=True)
    second = allocate_threads([an] * 4, nreg=128, zero_cost_only=True)
    # Same inputs, same outputs: nothing leaked between runs.
    assert [(t.pr, t.sr) for t in first.threads] == [
        (t.pr, t.sr) for t in second.threads
    ]
    assert first.sgr == second.sgr
    for field, read in reads.items():
        assert read() == baseline[field], f"{field} mutated"


def test_rows_stable_across_repeated_runs():
    with scoped():
        first = [r.to_dict() for r in run_fig14(LIGHT, nthd=4, nreg=128)]
        second = [r.to_dict() for r in run_fig14(LIGHT, nthd=4, nreg=128)]
    assert first == second
