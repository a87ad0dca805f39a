"""Tests of the benchmark's own machinery.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import streams
import tracer
from workloads import percentile

HERE = pathlib.Path(__file__).resolve().parent


@pytest.mark.parametrize("workload", sorted(streams.GENERATORS))
def test_same_seed_gives_byte_identical_stream(workload):
    make = streams.GENERATORS[workload]
    a, b = make(7, 120), make(7, 120)
    assert [r.body for r in a.warmup + a.timed] == \
        [r.body for r in b.warmup + b.timed]
    assert a.digest() == b.digest()
    assert make(8, 120).digest() != a.digest()


def test_stream_digest_is_stable_across_interpreters():
    """String hashing is randomised per process; the stream must not be."""
    code = (
        "import sys; sys.path.insert(0, %r); import streams; "
        "print(streams.serve_hot(3, 60).digest(), "
        "streams.serve_cold(3, 60).digest(), 'repro' in sys.modules)"
        % str(HERE)
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed}, check=True,
        ).stdout
        for seed in ("1", "2")
    }
    assert len(outs) == 1
    # The generator never imports the package under test.
    assert outs.pop().split()[-1] == "False"


def test_serve_cold_never_replays():
    stream = streams.serve_cold(1, 150)
    summary = stream.summary()
    assert summary["replay_share"] == 0.0
    assert summary["distinct_keys"] == 150
    names = [p["name"] for r in stream.warmup + stream.timed
             for p in r.doc["programs"]]
    assert len(names) == len(set(names))
    for req in stream.timed:
        doc = req.doc
        assert doc["nreg"] == streams.COLD_NREG
        assert set(doc) == {"programs", "nreg"}
        assert 2 <= len(req.kernels) <= 4
        assert len(set(req.kernels)) == len(req.kernels)
        assert set(req.kernels) <= set(streams.COLD_KERNELS)
    # Balanced decks: no kernel is dealt more than one deck ahead.
    counts = summary["kernels"].values()
    assert max(counts) - min(counts) <= 2


def test_serve_hot_mostly_replays_within_budget_range():
    stream = streams.serve_hot(1, 300)
    summary = stream.summary()
    assert summary["replay_share"] > 0.5
    mixes = len(streams.HOT_MIX_SIZES)
    assert summary["distinct_keys"] == mixes * streams.HOT_BUDGETS
    floors = streams.load_corpus()["floors"]
    timed = {r.body for r in stream.timed}
    for req in stream.timed:
        floor, ceiling = floors[req.kernels]
        assert floor <= req.nreg <= ceiling + streams.HOT_SLACK
        assert req.doc["simulate"] == 16 and req.doc["engine"] == "fast"
    assert len({r.kernels for r in stream.warmup}) == mixes
    assert not timed & {r.body for r in stream.warmup}
    md5 = sum("md5" in r.kernels for r in stream.warmup)
    assert md5 == streams.HOT_DECK.count("md5")


def test_corpus_matches_its_schema():
    corpus = streams.load_corpus()
    assert corpus["schema"] == "perfbench.corpus/1"
    assert set(corpus["kernels"]) == set(streams.HOT_KERNELS)
    for mix in corpus["mixes"]:
        assert mix["floor"] <= mix["ceiling"]


def test_every_entry_point_resolves():
    for target, *_ in tracer.ENTRY_POINTS:
        tracer._resolve(target)


def test_missing_entry_point_fails_install(monkeypatch):
    monkeypatch.setattr(
        tracer, "ENTRY_POINTS",
        tracer.ENTRY_POINTS + (
            ("repro.core.inter:no_such_entry", "x", "span", frozenset()),
        ),
    )
    with pytest.raises(tracer.TraceSetupError, match="no_such_entry"):
        tracer.Tracer().install()


def test_check_fired_names_an_unreached_layer():
    part = {"spans": [[1, "service.submit", 0.0, 1.0, None, 1, None]],
            "counts": [], "gc": []}
    missing = tracer.check_fired("serve-cold", part)
    assert any("analyze_thread" in m for m in missing)
    assert not any("ServiceCore.submit" in m for m in missing)


def test_self_time_subtracts_children_once():
    spans = [
        [1, "a", 0.0, 10.0, None, 1, None],
        [2, "b", 1.0, 4.0, 1, 1, None],
        [3, "c", 3.0, 6.0, 1, 1, None],  # overlaps b (another thread)
        [4, "d", 2.0, 3.0, 2, 1, None],
    ]
    self_time = tracer._self_times(spans)
    assert self_time == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


def test_select_keeps_requests_that_began_in_the_window():
    dump = {
        "spans": [
            [1, "service.submit", 0.0, 1.0, None, 1, (1, 1, 0)],
            [2, "service.submit", 2.0, 3.0, None, 2, (2, 3, 0)],
            [3, "ir.parse", 2.1, 2.2, 2, 2, None],
        ],
        "counts": [["core.intra.probe", 1, 5], ["core.intra.probe", 2, 7]],
        "gc": [[2, 0.5, 0.6], [0, 2.5, 2.6]],
    }
    part = tracer.select(dump, (1.5, 3.5))
    assert [s[0] for s in part["spans"]] == [2, 3]
    assert part["counts"] == [["core.intra.probe", 2, 7]]
    m = tracer.layer_metrics([part])
    assert m["core.intra.probes"] == 7
    assert m["gc.gen2_collections"] == 0
    assert m["core.cache.hit_ratio"] == pytest.approx(1 / 3)


def test_percentile_reports_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert percentile(values, 0.9) == (90.0, 10)
    assert percentile([3.0], 0.9) == (3.0, 0)


def test_benchmark_json_lists_what_the_runner_prints():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == \
        list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == \
        ["serve-cold", "serve-hot", "artifacts"]
