"""Tests for the human-readable analysis reports."""

from repro.core.analysis import analyze_thread
from repro.harness.describe import live_range_chart, nsr_map


def test_live_range_chart_shape(straight):
    an = analyze_thread(straight)
    chart = live_range_chart(an)
    lines = chart.splitlines()
    # header + one row per range
    assert len(lines) == 1 + len(an.all_regs)
    n = len(straight.instrs)
    for row in lines[1:]:
        cells = row.split("  ")[-1]
        assert len(cells) == n


def test_chart_marks_boundary_ranges(straight):
    an = analyze_thread(straight)
    chart = live_range_chart(an)
    a_row = next(l for l in chart.splitlines() if l.startswith("%a"))
    assert "  B  " in a_row
    b_row = next(l for l in chart.splitlines() if l.startswith("%b"))
    assert "  i  " in b_row


def test_chart_truncation(mini_kernel):
    an = analyze_thread(mini_kernel)
    chart = live_range_chart(an, max_ranges=2)
    assert len(chart.splitlines()) == 3


def test_nsr_map_annotates_csbs(straight):
    an = analyze_thread(straight)
    text = nsr_map(an)
    assert "[CSB] ctx" in text
    assert "[N00]" in text


def test_nsr_map_includes_labels(mini_kernel):
    an = analyze_thread(mini_kernel)
    text = nsr_map(an)
    assert "loop:" in text
    assert "start:" in text
