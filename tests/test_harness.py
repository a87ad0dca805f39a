"""Tests for the experiment harnesses (small configurations)."""

import json
import pathlib
from types import SimpleNamespace

import pytest

from repro.harness import report
from repro.harness.allocperf import render_alloc, run_alloc_bench
from repro.harness.analysisperf import render_analysis, run_analysis_bench
from repro.harness.fig14 import Fig14Row, average_saving, render_fig14, run_fig14
from repro.harness.perf import render_perf, run_perf
from repro.harness.report import text_table
from repro.harness.table1 import render_table1, run_table1
from repro.harness.table2 import render_table2, run_table2
from repro.harness.table3 import (
    SCENARIOS,
    render_table3,
    run_scenario,
    run_table3,
)
from repro.harness.trend import IDENTITY_FLAGS, WATCHED, watched_from_bench

ROOT = pathlib.Path(__file__).resolve().parents[1]

LIGHT = ["frag", "drr"]


def test_text_table_alignment():
    out = text_table(["name", "x"], [("a", 1), ("bb", 22)])
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert set(lines[1]) <= {"-", " "}


def test_measure_times_only_the_calls_and_returns_every_result(monkeypatch):
    # Three timed calls per arm, each after its (untimed) setup and a
    # full collection; the best duration and every result come back.
    assert report.REPEATS == 3
    calls = []
    ticks = iter([0.0, 5.0, 10.0, 12.0, 20.0, 27.0] * 2)

    def perf_counter():
        calls.append("tick")
        return next(ticks)

    def fn():
        calls.append("fn")
        return len(calls)

    clock = SimpleNamespace(perf_counter=perf_counter)
    monkeypatch.setattr(report, "time", clock)
    monkeypatch.setattr(report.gc, "collect", lambda: calls.append("collect"))
    best, results = report.measure(fn, setup=lambda: calls.append("setup"))
    assert best == 2.0
    assert calls == ["setup", "collect", "tick", "fn", "tick"] * 3
    assert results == [4, 9, 14]
    calls.clear()
    best, results = report.measure(fn)
    assert best == 2.0
    assert calls == ["collect", "tick", "fn", "tick"] * 3
    assert results == [3, 7, 11]


@pytest.mark.parametrize(
    "bench, run, render, rows",
    [
        ("perf", lambda: run_perf(["crc"], packets=8), render_perf, "rows"),
        ("alloc", lambda: run_alloc_bench(["crc"]), render_alloc, "points"),
        ("analysis", lambda: run_analysis_bench(["crc"]), render_analysis,
         "rows"),
    ],
    ids=["perf", "alloc", "analysis"],
)
def test_throughput_bench_returns_its_committed_payload_shape(
    bench, run, render, rows
):
    data = run()
    path = ROOT / "benchmarks" / "out" / f"BENCH_{bench}.json"
    committed = json.loads(path.read_text())["data"]
    flags = data["summary"] if bench == "perf" else data
    assert all(flags[f] is True for f in IDENTITY_FLAGS[bench])
    assert set(data) == set(committed)
    assert {frozenset(r) for r in data[rows]} == {
        frozenset(r) for r in committed[rows]
    }
    if bench == "perf":
        assert set(data["summary"]) == set(committed["summary"])
    family = {"perf": "sim"}.get(bench, bench)
    assert set(watched_from_bench(bench, data)) == {
        m for m in WATCHED if m.split(".")[0] == family
    }
    assert render(data)


@pytest.mark.parametrize(
    "run",
    [run_table1, run_table2, run_table3, run_fig14],
    ids=["table1", "table2", "table3", "fig14"],
)
def test_harness_rejects_jobs_above_one(run):
    with pytest.raises(ValueError, match="jobs must be 1"):
        run(jobs=2)


def test_table1_rows():
    rows = run_table1(LIGHT, packets=2)
    assert [r.name for r in rows] == LIGHT
    for r in rows:
        assert r.instructions > 0
        assert r.cycles_per_iter > 0
        assert r.reg_p_csb_max <= r.max_pr
        assert r.reg_p_max <= r.max_r
    assert "RegPmax" in render_table1(rows)


def test_table2_rows():
    rows = run_table2(LIGHT)
    for r in rows:
        assert r.moves >= 0
        assert 0 <= r.overhead < 0.5
    assert "overhead" in render_table2(rows)


def test_fig14_rows():
    rows = run_fig14(LIGHT, nthd=4, nreg=128)
    for r in rows:
        assert r.multithread_total <= r.baseline_total
        assert 0 <= r.saving < 1
    assert 0 <= average_saving(rows) < 1
    assert "saving" in render_fig14(rows)


def test_fig14_row_arithmetic():
    row = Fig14Row(name="x", single_thread_regs=10, pr=8, sr=4, nthd=4)
    assert row.baseline_total == 40
    assert row.multithread_total == 36
    assert row.saving == pytest.approx(0.1)


def test_table3_scenarios_registered():
    assert len(SCENARIOS) == 3
    for names in SCENARIOS.values():
        assert len(names) == 4


def test_table3_small_scenario():
    sc = run_scenario(
        "light", ("frag", "drr", "url", "ipchains"), nreg=128, packets=10
    )
    assert sc.verified
    assert len(sc.threads) == 4
    for t in sc.threads:
        assert t.cycles_spill > 0 and t.cycles_sharing > 0
    assert "cyc/iter" in render_table3([sc])
