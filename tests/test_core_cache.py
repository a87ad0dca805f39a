"""Unit tests for the content-addressed analysis cache."""

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
    assert cached.conflict_lists() == fresh.conflict_lists()
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


def test_one_lookup_per_program(monkeypatch):
    # An allocation fetches each program's entry once for both its
    # analyze and bounds phases: one fingerprint and one cache event
    # per program, so a cold call records only misses.
    from repro.ir.program import Program
    from repro.suite.registry import load

    programs = [load(n) for n in ("crc", "md5", "url")]
    fingerprint = Program.fingerprint
    calls = []

    def counted(self):
        calls.append(self.name)
        return fingerprint(self)

    monkeypatch.setattr(Program, "fingerprint", counted)
    with scoped() as cache:
        allocate_programs(programs, nreg=128)
        assert (cache.stats.misses, cache.stats.hits) == (3, 0)
        assert calls == ["crc", "md5", "url"]
        allocate_programs(programs, nreg=128)
        assert (cache.stats.misses, cache.stats.hits) == (3, 3)
        assert calls == ["crc", "md5", "url"] * 2


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


def test_the_cache_writes_nothing_to_disk(tmp_path, monkeypatch):
    # The cache is memory-only: no environment variable gives it a disk
    # layer, in the library or on the command line.
    from repro.cli import main
    from repro.suite.registry import load

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with scoped():
        allocate_programs([load("crc")], nreg=64)
    assert main(["profile", "bench:crc", "--no-sim"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_lru_survives_racing_threads(monkeypatch):
    # A hit whose entry another thread evicts before the touch used to
    # raise KeyError out of _entry: an untyped 500 in the service.
    from repro.core import cache as cache_mod
    from tests.test_service import hammer_threads

    monkeypatch.setattr(cache_mod, "analyze_thread", lambda p: p.name)
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
