"""Tests for the telemetry subsystem (repro.obs)."""

import json
import threading

import pytest

from repro.core.pipeline import allocate_programs
from repro.errors import SimulationError
from repro.ir.parser import parse_program
from repro.obs import events, metrics
from repro.obs.export import (
    bench_snapshot,
    run_snapshot,
    to_jsonable,
    write_json,
    write_jsonl,
)
from repro.sim.machine import Machine
from repro.suite.registry import load


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------

def test_span_nesting_paths_and_timing():
    ticks = iter(range(100))
    em = events.Emitter(clock=lambda: float(next(ticks)))
    with em.span("outer"):
        em.emit("point", x=1)
        with em.span("inner"):
            pass
    inner = em.events_named("inner")[0]
    outer = em.events_named("outer")[0]
    point = em.events_named("point")[0]
    assert point.span == "outer"
    assert inner.span == "outer"
    assert inner.path == "outer/inner"
    assert outer.span is None
    assert inner.dur is not None and inner.dur > 0
    assert outer.dur > inner.dur
    # Spans are sequenced at exit: inner closes before outer.
    assert point.seq < inner.seq < outer.seq


def test_phase_timings_accumulate_repeated_spans():
    ticks = iter(range(100))
    em = events.Emitter(clock=lambda: float(next(ticks)))
    for _ in range(3):
        with em.span("phase"):
            pass
    timings = em.phase_timings()
    assert set(timings) == {"phase"}
    assert timings["phase"] == sum(
        e.dur for e in em.events_named("phase")
    )


def test_capture_installs_and_restores():
    assert events.get_emitter() is events.NULL
    with events.capture() as em:
        assert events.get_emitter() is em
        events.emit("hello", n=1)
    assert events.get_emitter() is events.NULL
    assert em.counts() == {"hello": 1}


def test_disabled_by_default_records_nothing():
    """The zero-cost guarantee: no emitter installed, nothing recorded."""
    em = events.get_emitter()
    assert em is events.NULL
    assert not em.enabled
    program = load("fir2dim")
    allocate_programs([program], nreg=64)
    machine = Machine([parse_program("movi %a, 1\nhalt\n", "t")])
    machine.run()
    assert em.events == ()
    assert machine.timeline is None  # timeline follows obs.enabled()


def test_event_to_dict_omits_empty_optionals():
    em = events.Emitter(clock=lambda: 0.0)
    d = em.emit("bare").to_dict()
    assert set(d) == {"name", "kind", "ts", "seq"}
    d = em.emit("full", a=1).to_dict()
    assert d["fields"] == {"a": 1}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def test_metrics_snapshot_json_round_trip():
    with metrics.scoped() as reg:
        reg.counter("inter.steps").inc(3)
        reg.gauge("sim.util").set(0.75)
        h = reg.histogram("inter.step_delta")
        for v in (0, 1, 7, 1000):
            h.observe(v)
        snap = reg.snapshot()
    back = json.loads(json.dumps(snap))
    assert back == snap
    assert back["counters"]["inter.steps"] == 3
    assert back["gauges"]["sim.util"] == 0.75
    hist = back["histograms"]["inter.step_delta"]
    assert hist["count"] == 4
    assert hist["min"] == 0 and hist["max"] == 1000
    assert hist["buckets"]["0"] == 1
    assert sum(hist["buckets"].values()) == hist["count"]


def test_scoped_registry_isolates():
    outer = metrics.registry()
    with metrics.scoped() as reg:
        assert metrics.registry() is reg
        reg.counter("x").inc()
    assert metrics.registry() is outer
    assert "x" not in outer.snapshot()["counters"]


def test_racing_threads_create_one_series():
    # Four threads create the same 200 labelled counters at once, 200
    # times over; every increment lands in the one series they share.
    from tests.test_service import hammer_threads

    registries = [metrics.MetricsRegistry() for _ in range(200)]
    barrier = threading.Barrier(4, timeout=60)

    def create(_):
        for reg in registries:
            barrier.wait()
            for i in range(200):
                reg.counter("race", i=i).inc()

    hammer_threads(create)
    for reg in registries:
        counts = reg.snapshot()["counters"]
        assert len(counts) == 200 and set(counts.values()) == {4}


def test_labeled_series_are_independent_and_deterministic():
    with metrics.scoped() as reg:
        reg.counter("inter.steps").inc(5)
        # Keyword order must not matter: both calls hit one series.
        reg.counter("sim.thread.busy_cycles", thread=2, kernel="md5").inc(7)
        reg.counter("sim.thread.busy_cycles", kernel="md5", thread=2).inc(1)
        snap = reg.snapshot()
    counters = snap["counters"]
    assert counters["inter.steps"] == 5  # unlabeled series unchanged
    assert counters['sim.thread.busy_cycles{kernel="md5",thread="2"}'] == 8
    # Snapshot ordering is a plain string sort over the full keys.
    assert list(counters) == sorted(counters)


def test_label_key_format_parse_round_trip():
    pairs = metrics.normalize_labels(
        {"kernel": 'we"ird\\name', "thread": 3, "note": "a\nb"}
    )
    key = metrics.format_key("sim.x", pairs)
    name, back = metrics.parse_key(key)
    assert name == "sim.x" and back == pairs
    assert metrics.parse_key("plain") == ("plain", ())
    with pytest.raises(ValueError):
        metrics.parse_key("bad{unterminated")


def test_timing_buckets_resolve_sub_second_observations():
    """DEFAULT_BUCKETS collapses all sub-second timings into one bucket;
    TIMING_BUCKETS must spread them out."""
    with metrics.scoped() as reg:
        h = reg.histogram("alloc.phase_seconds", bounds=metrics.TIMING_BUCKETS)
        for v in (0.0002, 0.003, 0.04, 0.5):
            h.observe(v)
        buckets = h.snapshot()["buckets"]
    assert sum(1 for c in buckets.values() if c) == 4


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

def test_to_jsonable_strictness():
    assert to_jsonable(float("nan")) is None
    assert to_jsonable(float("inf")) is None
    assert to_jsonable({1: (2, 3)}) == {"1": [2, 3]}


def test_write_json_and_jsonl(tmp_path):
    p = write_json(tmp_path / "a.json", {"v": float("nan")})
    assert json.loads(p.read_text()) == {"v": None}
    p = write_jsonl(tmp_path / "b.jsonl", [{"a": 1}, {"b": 2}])
    rows = [json.loads(line) for line in p.read_text().splitlines()]
    assert rows == [{"a": 1}, {"b": 2}]


def test_bench_snapshot_shape(tmp_path):
    path = bench_snapshot("t1", [{"name": "md5", "x": 1}], tmp_path)
    assert path.name == "BENCH_t1.json"
    doc = json.loads(path.read_text())
    assert doc["schema"] == "repro.bench/1"
    assert doc["bench"] == "t1"
    assert doc["data"] == [{"name": "md5", "x": 1}]


# ----------------------------------------------------------------------
# instrumented pipeline + simulator
# ----------------------------------------------------------------------

def test_pipeline_emits_phase_spans():
    programs = [load("md5"), load("fir2dim")]
    with events.capture() as em:
        allocate_programs(programs, nreg=128)
    timings = em.phase_timings()
    for phase in (
        "allocate",
        "allocate/validate",
        "allocate/analyze",
        "allocate/bounds",
        "allocate/inter",
        "allocate/assign",
        "allocate/rewrite",
    ):
        assert phase in timings, timings
    # The phases partition the top-level span.
    parts = sum(v for k, v in timings.items() if k.startswith("allocate/"))
    assert parts <= timings["allocate"]


def test_inter_steps_recorded_under_pressure():
    programs = [load("md5"), load("fir2dim")]
    with metrics.scoped() as reg, events.capture() as em:
        allocate_programs(programs, nreg=64)
    starts = em.events_named("inter.start")
    dones = em.events_named("inter.done")
    steps = em.events_named("inter.step")
    assert len(starts) == len(dones) == 1
    assert starts[0].fields["requirement"] > starts[0].fields["nreg"]
    assert steps, "a squeezed budget must force greedy reductions"
    assert dones[0].fields["fits"] is True
    assert dones[0].fields["steps"] == len(steps)
    counters = reg.snapshot()["counters"]
    assert counters["inter.steps"] == len(steps)


def test_timeline_segments_sum_to_machine_cycles():
    a = parse_program("movi %x, 1\nctx\nmovi %x, 2\nhalt\n", "alpha")
    b = parse_program("load %y, [%x]\nctx\nhalt\n", "beta")
    machine = Machine([a, b], timeline=True)
    stats = machine.run()
    acct = machine.timeline_accounting()
    assert acct["cycles"] == stats.cycles
    total = acct["idle"] + sum(
        t["run"] + t["switch"] for t in acct["threads"]
    )
    assert total == stats.cycles
    # Segments tile [0, cycles) with no gaps or overlaps.
    segments = sorted(machine.timeline, key=lambda s: s.start)
    assert segments[0].start == 0
    assert segments[-1].end == stats.cycles
    for prev, cur in zip(segments, segments[1:]):
        assert prev.end == cur.start


def test_timeline_accounting_requires_timeline():
    machine = Machine([parse_program("halt\n", "t")])
    machine.run()
    with pytest.raises(SimulationError):
        machine.timeline_accounting()


def test_sim_accounting_event_under_capture():
    p = parse_program("movi %a, 1\nctx\nhalt\n", "t")
    with events.capture() as em:
        stats = Machine([p]).run()
    accts = em.events_named("sim.accounting")
    assert len(accts) == 1
    assert accts[0].fields["cycles"] == stats.cycles


# ----------------------------------------------------------------------
# run_snapshot + CLI
# ----------------------------------------------------------------------

def test_run_snapshot_shape():
    programs = [load("md5"), load("fir2dim")]
    with metrics.scoped() as reg, events.capture() as em:
        allocate_programs(programs, nreg=64)
    snap = run_snapshot(em, reg)
    assert snap["schema"] == "repro.obs/1"
    assert "allocate/inter" in snap["phases"]
    names = [s["event"] for s in snap["inter_steps"]]
    assert names[0] == "inter.start" and names[-1] == "inter.done"
    assert "inter.step" in names
    # Strict JSON end to end.
    json.dumps(snap, allow_nan=False)


def test_cli_metrics_flag(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "m.json"
    trace = tmp_path / "t.jsonl"
    rc = main(
        [
            "run",
            "bench:md5",
            "--allocated",
            "--packets",
            "2",
            "--metrics",
            str(out),
            "--trace-json",
            str(trace),
        ]
    )
    assert rc == 0
    snap = json.loads(out.read_text())
    assert snap["schema"] == "repro.obs/1"
    assert any(k.startswith("allocate") for k in snap["phases"])
    assert snap["sim"], "simulated runs must leave accounting records"
    for acct in snap["sim"]:
        total = acct["idle"] + sum(
            t["run"] + t["switch"] for t in acct["threads"]
        )
        assert total == acct["cycles"]
    rows = [json.loads(l) for l in trace.read_text().splitlines()]
    assert rows and all("name" in r and "seq" in r for r in rows)
    # After the CLI run the globals are restored.
    assert events.get_emitter() is events.NULL


def test_cli_prom_and_chrome_flags(tmp_path, capsys):
    from repro.cli import main

    prom = tmp_path / "m.prom"
    chrome = tmp_path / "t.json"
    rc = main(
        [
            "run",
            "bench:md5",
            "--allocated",
            "--packets",
            "2",
            "--prom",
            str(prom),
            "--trace-chrome",
            str(chrome),
        ]
    )
    assert rc == 0
    text = prom.read_text()
    assert "# TYPE repro_cache_hit counter" in text or \
        "# TYPE repro_cache_miss counter" in text
    assert '{kernel="md5"}' in text
    doc = json.loads(chrome.read_text())
    names = {r["name"] for r in doc["traceEvents"]}
    assert "allocate" in names and "inter" in names
    assert events.get_emitter() is events.NULL


def test_cli_chaos_accepts_telemetry_flags(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "m.json"
    rc = main(
        ["chaos", "--kernels", "crc", "--metrics", str(out)]
    )
    assert rc == 0
    snap = json.loads(out.read_text())
    assert snap["schema"] == "repro.obs/1"
    assert snap["metrics"]["counters"], "chaos must record metric series"


def test_cli_profile_command(capsys):
    from repro.cli import main

    rc = main(["profile", "bench:md5", "bench:fir2dim", "--nreg", "64",
               "--packets", "2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "allocate/inter" in text
    assert "wall" in text.lower()


def test_profile_programs_api():
    from repro.obs.profile import profile_programs

    report = profile_programs(
        [load("md5"), load("fir2dim")], nreg=64, packets=2
    )
    assert report.wall_s > 0
    assert "allocate" in report.phases
    d = report.to_dict()
    json.dumps(d, allow_nan=False)
