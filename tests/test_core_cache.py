"""Unit tests for the content-addressed analysis cache."""

import pickle

import pytest

from repro.core.analysis import analyze_thread
from repro.core.bounds import estimate_bounds
from repro.core.cache import (
    AnalysisCache,
    CacheStats,
    get_cache,
    scoped,
)
from repro.core.pipeline import allocate_programs
from repro.ir.parser import parse_program
from repro.obs import events, metrics
from tests.conftest import FIG3_T1, FIG3_T2, MINI_KERNEL


def prog(text=MINI_KERNEL, name="k"):
    return parse_program(text, name)


def test_miss_then_hit():
    cache = AnalysisCache()
    p = prog()
    a1 = cache.analyze(p)
    a2 = cache.analyze(prog())  # same text, fresh Program object
    assert a1 is a2
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert len(cache) == 1
    assert p in cache


def test_results_match_uncached():
    cache = AnalysisCache()
    p = prog(FIG3_T1, "t1")
    cached = cache.analyze(p)
    fresh = analyze_thread(prog(FIG3_T1, "t1"))
    assert cached.slots == fresh.slots
    assert cached.conflicts_at == fresh.conflicts_at
    assert cache.bounds(p) == estimate_bounds(fresh)


def test_bounds_lazy_and_memoized():
    cache = AnalysisCache()
    p = prog()
    cache.analyze(p)
    b1 = cache.bounds(p)
    b2 = cache.bounds(p)
    assert b1 is b2
    an, b3 = cache.analyze_with_bounds(p)
    assert b3 is b1 and an is cache.analyze(p)


def test_lru_eviction():
    cache = AnalysisCache(capacity=2)
    p1, p2, p3 = prog(MINI_KERNEL, "a"), prog(FIG3_T1, "b"), prog(FIG3_T2, "c")
    cache.analyze(p1)
    cache.analyze(p2)
    cache.analyze(p1)  # p1 now most recent
    cache.analyze(p3)  # evicts p2
    assert p1 in cache and p3 in cache and p2 not in cache
    assert cache.stats.evictions == 1


def test_clear():
    cache = AnalysisCache()
    cache.analyze(prog())
    cache.clear()
    assert len(cache) == 0


def test_bad_capacity_rejected():
    with pytest.raises(ValueError):
        AnalysisCache(capacity=0)


def test_disk_layer_round_trip(tmp_path):
    writer = AnalysisCache(cache_dir=tmp_path)
    p = prog(FIG3_T1, "t1")
    writer.analyze(p)
    writer.bounds(p)
    assert list(tmp_path.glob("*.pkl"))

    reader = AnalysisCache(cache_dir=tmp_path)
    b = reader.bounds(prog(FIG3_T1, "t1"))
    assert reader.stats.disk_hits == 1
    assert reader.stats.misses == 0
    assert b == writer.bounds(p)


def test_disk_corrupt_file_is_a_miss(tmp_path):
    cache = AnalysisCache(cache_dir=tmp_path)
    p = prog()
    (tmp_path / f"{p.fingerprint()}.pkl").write_bytes(b"not a pickle")
    cache.analyze(p)
    assert cache.stats.disk_errors == 1
    assert cache.stats.misses == 1


def test_disk_foreign_payload_is_a_miss(tmp_path):
    cache = AnalysisCache(cache_dir=tmp_path)
    p = prog()
    (tmp_path / f"{p.fingerprint()}.pkl").write_bytes(
        pickle.dumps(("something", "else"))
    )
    cache.analyze(p)
    assert cache.stats.disk_errors == 1


def test_env_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = AnalysisCache()
    assert cache.cache_dir == tmp_path
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert AnalysisCache().cache_dir is None


def test_telemetry_counters():
    cache = AnalysisCache()
    with metrics.scoped() as reg, events.capture() as em:
        cache.analyze(prog())
        cache.analyze(prog())
    names = [e.name for e in em.events]
    assert names == ["cache.miss", "cache.hit"]
    snap = reg.snapshot()
    assert snap["counters"]["cache.miss"] == 1
    assert snap["counters"]["cache.hit"] == 1


def test_scoped_restores_global():
    before = get_cache()
    with scoped() as inner:
        assert get_cache() is inner
        assert get_cache() is not before
    assert get_cache() is before


def test_truncated_disk_entry_quarantined_and_recomputed(tmp_path):
    # Regression: a half-written entry (e.g. a crash mid-store on an fs
    # without atomic rename) must be quarantined -- not retried forever,
    # not silently trusted -- and the analysis recomputed correctly.
    writer = AnalysisCache(cache_dir=tmp_path)
    p = prog(FIG3_T1, "t1")
    writer.analyze(p)
    writer.bounds(p)
    path = tmp_path / f"{p.fingerprint()}.pkl"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])

    reader = AnalysisCache(cache_dir=tmp_path)
    with events.capture() as em:
        got = reader.analyze(prog(FIG3_T1, "t1"))
    assert reader.stats.disk_errors == 1
    assert reader.stats.misses == 1  # recomputed, not trusted
    assert (tmp_path / f"{p.fingerprint()}.bad").exists()
    disk_events = [e for e in em.events if e.name == "cache.disk_error"]
    assert disk_events and disk_events[0].fields["action"] == "quarantined"
    assert got.slots == analyze_thread(prog(FIG3_T1, "t1")).slots
    # The recomputed entry was re-stored; a third cache disk-hits it.
    third = AnalysisCache(cache_dir=tmp_path)
    third.analyze(prog(FIG3_T1, "t1"))
    assert third.stats.disk_hits == 1
    assert third.stats.disk_errors == 0


def test_injected_disk_faults_are_recoverable(tmp_path):
    from repro.resilience import faults
    from repro.resilience.faults import FaultSpec

    for mode in ("truncate", "corrupt"):
        sub = tmp_path / mode
        writer = AnalysisCache(cache_dir=sub)
        p = prog(FIG3_T1, "t1")
        want = writer.analyze(p)

        reader = AnalysisCache(cache_dir=sub)
        with faults.inject(FaultSpec("cache.disk", mode=mode)) as plan:
            got = reader.analyze(prog(FIG3_T1, "t1"))
        assert plan.fired_at("cache.disk")
        assert reader.stats.disk_errors == 1
        assert got.slots == want.slots


def test_dense_fallback_keeps_the_process_default():
    # The dense-to-reference fallback re-analyses the one program with
    # the set-based kernels; later analyses stay on the dense kernels.
    from repro.harness.analysisperf import analysis_digest
    from repro.resilience import faults, guard
    from repro.resilience.faults import FaultSpec
    from repro.suite.registry import load

    program = load("crc")
    with guard.watching() as degs:
        with faults.inject(
            FaultSpec("analysis.dense", mode="error", count=1)
        ) as plan:
            got = AnalysisCache().analyze(program)
    assert plan.fired_at("analysis.dense")
    assert [d.rung for d in degs] == ["analysis.dense_to_reference"]
    assert got.dense is None  # built by the reference kernels
    after = analyze_thread(program)
    assert after.dense is not None
    assert analysis_digest(got) == analysis_digest(after)


def test_persistent_disk_failures_degrade_to_memory(tmp_path):
    from repro.resilience import guard

    # Point the disk layer below a regular *file*: every load and every
    # store fails with NotADirectoryError, which must trip the
    # cache.disk_to_memory rung instead of failing forever.
    blocker = tmp_path / "blocker.txt"
    blocker.write_text("not a directory")
    cache = AnalysisCache(cache_dir=blocker / "sub", max_disk_errors=2)
    with guard.watching() as degs:
        a = cache.analyze(prog(FIG3_T1, "t1"))
    assert cache.cache_dir is None  # disk layer disabled...
    assert cache.stats.disk_errors >= 2
    assert any(d.rung == "cache.disk_to_memory" for d in degs)
    # ...but the cache still works, memory-only.
    assert cache.analyze(prog(FIG3_T1, "t1")) is a
    assert cache.stats.hits == 1


def test_pipeline_cached_matches_fresh():
    texts = [(MINI_KERNEL, "a"), (MINI_KERNEL, "b")]
    with scoped():
        first = allocate_programs(
            [prog(t, n) for t, n in texts], nreg=64
        )
        hits_before = get_cache().stats.hits
        second = allocate_programs(
            [prog(t, n) for t, n in texts], nreg=64
        )
        assert get_cache().stats.hits > hits_before
    assert [p.fingerprint() for p in first.programs] == [
        p.fingerprint() for p in second.programs
    ]
    assert first.total_registers == second.total_registers
    assert first.total_moves == second.total_moves


def test_quarantine_cap_applies_on_cache_quarantine(tmp_path, monkeypatch):
    """Quarantining through the cache itself respects the cap."""
    import os

    monkeypatch.setattr("repro.store.DEFAULT_MAX_QUARANTINE", 2)
    cache = AnalysisCache(cache_dir=tmp_path)
    texts = [FIG3_T1, FIG3_T2, MINI_KERNEL]
    for i, text in enumerate(texts):
        p = prog(text, f"t{i}")
        cache.analyze(p)
        path = tmp_path / f"{p.fingerprint()}.pkl"
        path.write_bytes(b"garbage")
        os.utime(path, (1000 + i, 1000 + i))
        reader = AnalysisCache(cache_dir=tmp_path)
        reader.analyze(prog(text, f"t{i}"))
        # re-corrupt trail: drop the freshly re-stored good entry so
        # only the .bad files accumulate
        path.unlink()
    assert len(list(tmp_path.glob("*.bad"))) <= 2


def test_lru_survives_racing_threads(monkeypatch):
    # A hit whose entry another thread evicts before the touch used to
    # raise KeyError out of _entry: an untyped 500 in the service.
    from repro.core import cache as cache_mod
    from tests.test_service import hammer_threads

    monkeypatch.setattr(cache_mod, "_analyze_resilient", lambda p: p.name)
    cache = AnalysisCache(capacity=2)
    programs = [prog(MINI_KERNEL, f"k{i}") for i in range(4)]
    errors = []

    def hammer(seed):
        try:
            for n in range(2_000):
                program = programs[(n + seed) % len(programs)]
                assert cache.analyze(program) == program.name
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    hammer_threads(hammer)
    assert errors == []
    assert len(cache) == 2
    # No counter update was lost.
    assert cache.stats.hits + cache.stats.misses == 4 * 2_000
