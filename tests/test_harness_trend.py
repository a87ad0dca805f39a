"""Tests for the regression sentinel (repro.harness.trend, bench trend)."""

import json
import pathlib

import pytest

from repro.harness import trend
from repro.obs import ledger


def _ledger_with(tmp_path, values, metric="sim.speedup", bench="perf"):
    path = tmp_path / "ledger.jsonl"
    rows = [
        ledger.make_row(bench, {metric: v}, ts=float(i))
        for i, v in enumerate(values)
    ]
    ledger.append(rows, path)
    return path


# ----------------------------------------------------------------------
# watched_from_bench
# ----------------------------------------------------------------------

def test_watched_from_bench_shapes():
    assert trend.watched_from_bench(
        "perf", {"rows": [], "summary": {"speedup": 5.8, "fast_ips": 2e6}}
    ) == {"sim.speedup": 5.8, "sim.fast_ips": 2e6}
    # ``parallel_speedup`` is a removed metric: a stale payload that
    # still carries it keeps its live metrics watched.
    assert trend.watched_from_bench(
        "alloc", {"warm_speedup": 6.7, "parallel_speedup": 2.5}
    ) == {"alloc.warm_speedup": 6.7}
    assert trend.watched_from_bench(
        "analysis", {"analysis_speedup": 15.4}
    ) == {"analysis.speedup": 15.4}
    assert trend.watched_from_bench(
        "table1", [{"cycles_per_iter": 10.0}, {"cycles_per_iter": 5.0}]
    ) == {"table1.cycles_per_iter": 15.0}
    assert trend.watched_from_bench(
        "table2",
        [{"moves": 3, "overhead": 0.1}, {"moves": 1, "overhead": 0.4}],
    ) == {"table2.total_moves": 4.0, "table2.max_overhead": 0.4}
    assert trend.watched_from_bench(
        "table3",
        [{"threads": [{"cycle_change": 2.0}, {"cycle_change": 4.0}]}],
    ) == {"table3.cycle_change": 3.0}
    assert trend.watched_from_bench(
        "fig14", [{"saving": 2.0}, {"saving": 6.0}]
    ) == {"fig14.avg_saving": 4.0}


def test_watched_from_bench_drops_diverged_ratios():
    # A ratio over two computations that disagreed is no speedup; a
    # payload without the flag keeps its ratio (see the test above).
    assert trend.watched_from_bench("perf", {"summary": {
        "speedup": 5.8, "fast_ips": 2e6, "stats_match": False,
    }}) == {"sim.fast_ips": 2e6}
    assert trend.watched_from_bench("alloc", {
        "warm_speedup": 2.2, "identical": False,
        "descent_speedup": 5.5, "descent_identical": True,
    }) == {"alloc.descent_speedup": 5.5}
    assert trend.watched_from_bench("analysis", {
        "analysis_speedup": 15.4, "digests_identical": False,
    }) == {}
    assert trend.diverged("alloc", {
        "identical": False, "descent_identical": False,
    }) == ["identical", "descent_identical"]


def test_watched_from_bench_tolerates_unknown_and_malformed():
    assert trend.watched_from_bench("ablation", {"whatever": 1}) == {}
    assert trend.watched_from_bench("perf", {"rows": []}) == {}
    assert trend.watched_from_bench("table1", [{"wrong_key": 1}]) == {}
    # A stale BENCH file or ledger row of a removed bench is not watched.
    assert trend.watched_from_bench(
        "fabric", {"identical": True, "fabric_speedup": 2.48}
    ) == {}


def test_every_watched_metric_has_a_direction():
    assert set(trend.WATCHED.values()) <= {"higher", "lower"}


def test_committed_snapshots_yield_every_watched_metric():
    # A payload key the extractor still reads but the bench no longer
    # writes would void the whole bench's extraction: its metrics would
    # drop out of the gate and the ledger without a word.
    root = pathlib.Path(__file__).resolve().parents[1]
    owner = {"sim": "perf"}  # every other metric is named after its bench
    checked = set()
    for path in sorted((root / "benchmarks" / "out").glob("BENCH_*.json")):
        doc = json.loads(path.read_text())
        family = doc["bench"].split("_")[0]
        owned = set()
        for metric in trend.WATCHED:
            prefix = metric.split(".")[0]
            if owner.get(prefix, prefix) == family:
                owned.add(metric)
        if not owned:
            continue  # the ablations are explored, not gated
        got = trend.watched_from_bench(doc["bench"], doc["data"])
        assert set(got) == owned, path.name
        checked.add(family)
    assert checked == {
        "perf", "alloc", "analysis", "table1", "table2", "table3", "fig14",
    }


# ----------------------------------------------------------------------
# record
# ----------------------------------------------------------------------

def _committed(bench):
    root = pathlib.Path(__file__).resolve().parents[1]
    path = root / "benchmarks" / "out" / f"BENCH_{bench}.json"
    return json.loads(path.read_text())["data"]


def test_record_keeps_nothing_of_a_diverged_run(tmp_path):
    data = {**_committed("analysis"), "digests_identical": False}
    bad, appended = trend.record(
        "analysis", data, text="table", out_dir=tmp_path / "out",
        ledger_path=tmp_path / "ledger.jsonl",
    )
    assert bad == ["digests_identical"] and appended is None
    assert list(tmp_path.iterdir()) == []


def test_record_writes_text_snapshot_and_one_ledger_row(tmp_path):
    from repro.obs.export import bench_snapshot

    data = _committed("alloc")
    out, path = tmp_path / "out", tmp_path / "ledger.jsonl"
    config = {"ci": True, "names": ["crc"]}
    assert trend.record(
        "alloc", data, text="table", out_dir=out, ledger_path=path,
        config=config,
    ) == ([], path)
    assert (out / "alloc.txt").read_text() == "table\n"
    expected = bench_snapshot("alloc", data, tmp_path / "expected")
    assert (out / "BENCH_alloc.json").read_bytes() == expected.read_bytes()
    (row,) = ledger.read(path)
    assert row["bench"] == "alloc"
    assert row["metrics"] == trend.watched_from_bench("alloc", data)
    assert set(row["metrics"]) == {
        "alloc.warm_speedup", "alloc.descent_speedup",
    }
    assert row["config"] == config


def test_record_writes_no_row_for_an_unwatched_bench(tmp_path):
    path = tmp_path / "ledger.jsonl"
    data = {"mix": ["drr", "fir2dim"], "nreg": 31, "greedy_moves": 4}
    assert trend.record(
        "ablation_policy", data, text="table", out_dir=tmp_path,
        ledger_path=path,
    ) == ([], None)
    assert (tmp_path / "BENCH_ablation_policy.json").exists()
    assert not path.exists()


# ----------------------------------------------------------------------
# build_trends verdicts
# ----------------------------------------------------------------------

def test_planted_2x_slowdown_regresses(tmp_path):
    path = _ledger_with(tmp_path, [5.8, 5.9, 5.7, 5.8, 2.9])
    trends = trend.run_trend(
        ledger_path=path, out_dir=tmp_path, threshold_pct=10.0
    )
    (t,) = [t for t in trends if t.metric == "sim.speedup"]
    assert t.regressed
    assert t.latest == 2.9
    assert t.baseline == pytest.approx(5.8)
    assert t.change_pct == pytest.approx(-50.0, abs=1.0)


def test_clean_history_passes(tmp_path):
    path = _ledger_with(tmp_path, [5.8, 5.9, 5.7, 5.8, 5.85])
    trends = trend.run_trend(
        ledger_path=path, out_dir=tmp_path, threshold_pct=10.0
    )
    assert not any(t.regressed for t in trends)


def test_lower_is_better_direction(tmp_path):
    path = _ledger_with(
        tmp_path, [100.0, 101.0, 99.0, 250.0],
        metric="table2.total_moves", bench="table2",
    )
    trends = trend.run_trend(
        ledger_path=path, out_dir=tmp_path, threshold_pct=10.0
    )
    (t,) = [t for t in trends if t.metric == "table2.total_moves"]
    assert t.direction == "lower" and t.regressed
    # An improvement (drop) must not alarm.
    path2 = _ledger_with(
        tmp_path / "d2", [100.0, 101.0, 99.0, 50.0],
        metric="table2.total_moves", bench="table2",
    )
    trends2 = trend.run_trend(
        ledger_path=path2, out_dir=tmp_path / "d2", threshold_pct=10.0
    )
    (t2,) = [t for t in trends2 if t.metric == "table2.total_moves"]
    assert not t2.regressed


def test_noisy_history_widens_threshold(tmp_path):
    # Prior points jitter wildly; a 20% dip must not alarm at a 10%
    # requested threshold because 2x relative MAD exceeds it.
    path = _ledger_with(tmp_path, [4.0, 6.0, 5.0, 7.0, 3.0, 4.0])
    trends = trend.run_trend(
        ledger_path=path, out_dir=tmp_path, threshold_pct=10.0
    )
    (t,) = [t for t in trends if t.metric == "sim.speedup"]
    assert t.threshold_pct > 10.0
    assert not t.regressed


def test_single_point_never_gated(tmp_path):
    path = _ledger_with(tmp_path, [5.8])
    trends = trend.run_trend(
        ledger_path=path, out_dir=tmp_path, threshold_pct=10.0
    )
    (t,) = [t for t in trends if t.metric == "sim.speedup"]
    assert t.baseline is None and not t.regressed


def test_unwatched_metrics_are_ignored(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger.append(
        ledger.make_row("perf", {"made.up.metric": 1.0}, ts=0.0), path
    )
    assert trend.run_trend(ledger_path=path, out_dir=tmp_path) == []


def test_committed_snapshots_feed_the_baseline(tmp_path):
    (tmp_path / "BENCH_alloc.json").write_text(json.dumps({
        "schema": "repro.bench/1",
        "bench": "alloc",
        "data": {"warm_speedup": 6.7},
    }))
    path = _ledger_with(
        tmp_path, [6.6, 3.0], metric="alloc.warm_speedup", bench="alloc"
    )
    trends = trend.run_trend(
        ledger_path=path, out_dir=tmp_path, threshold_pct=10.0
    )
    (t,) = [t for t in trends if t.metric == "alloc.warm_speedup"]
    assert [p.source for p in t.points] == ["committed", "ledger", "ledger"]
    assert t.regressed


def test_trend_report_and_render(tmp_path):
    path = _ledger_with(tmp_path, [5.8, 2.9])
    trends = trend.run_trend(
        ledger_path=path, out_dir=tmp_path, threshold_pct=10.0
    )
    report = trend.trend_report(trends, 10.0)
    assert report["schema"] == trend.SCHEMA_TREND
    assert report["regressions"] == ["sim.speedup"]
    json.dumps(report, allow_nan=False)
    text = trend.render_trend(trends)
    assert "REGRESSIONS: sim.speedup" in text
    clean = trend.render_trend(
        trend.build_trends([], {}, threshold_pct=10.0)
    )
    assert "no regressions" in clean


# ----------------------------------------------------------------------
# the CLI gate
# ----------------------------------------------------------------------

def test_cli_trend_gate_fails_on_planted_regression(tmp_path, capsys):
    from repro.cli import main

    path = _ledger_with(tmp_path, [5.8, 5.9, 5.7, 2.9])
    report = tmp_path / "TREND.json"
    rc = main([
        "bench", "trend", "--gate", "--threshold", "10",
        "--ledger", str(path), "--report", str(report),
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert "REGRESSIONS: sim.speedup" in captured.out
    assert "trend gate FAILED" in captured.err
    doc = json.loads(report.read_text())
    assert doc["regressions"] == ["sim.speedup"]


def test_cli_trend_gate_passes_on_clean_ledger(tmp_path, capsys):
    from repro.cli import main

    path = _ledger_with(tmp_path, [5.8, 5.9, 5.7, 5.8])
    rc = main([
        "bench", "trend", "--gate", "--threshold", "10",
        "--ledger", str(path), "--report", str(tmp_path / "TREND.json"),
    ])
    assert rc == 0
    assert "no regressions" in capsys.readouterr().out
