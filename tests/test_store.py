"""The content-addressed store mechanisms (``repro.store``) and the
service's ``*.json`` result store built on them."""

import json
import multiprocessing as mp
import os
import pathlib

import pytest

from repro import store
from repro.obs import events, metrics
from repro.service.store import ResultStore
from tests.test_service import hammer_threads

KEY = "a1" * 32


def test_lru_evicts_least_recently_used_first():
    lru = store.LRU(2)
    assert lru.put("a", 1) == 0
    assert lru.put("b", 2) == 0
    assert lru.get("a") == 1  # "a" is now the most recent
    assert lru.put("c", 3) == 1  # evicts "b"
    assert "a" in lru and "c" in lru and "b" not in lru
    assert lru.get("b") is None
    assert lru.put("a", 4) == 0  # a replacement evicts nothing
    assert lru.put("d", 5) == 1  # evicts "c"; "a" was just touched
    assert "c" not in lru and lru.get("a") == 4
    assert len(lru) == 2


@pytest.mark.parametrize("capacity", [0, -1])
def test_lru_capacity_below_one_rejected(capacity):
    with pytest.raises(ValueError):
        store.LRU(capacity)


def test_lru_survives_racing_threads():
    # Every put adds a new key, so with no lost update the evictions
    # the puts report add up to the puts minus what is left.
    lru = store.LRU(2)
    evicted = [0] * 4
    errors = []

    def hammer(seed):
        try:
            for n in range(10_000):
                evicted[seed] += lru.put((seed, n), n)
                lru.get((seed ^ 1, n))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    hammer_threads(hammer)
    assert errors == []
    assert len(lru) == 2
    assert sum(evicted) == 4 * 10_000 - 2


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("injected: rename refused")

    monkeypatch.setattr(store.os, "replace", refuse)
    with pytest.raises(OSError):
        store.write(tmp_path / f"{KEY}.json", b"{}")
    assert list(tmp_path.iterdir()) == []


def test_read_quarantines_what_the_decoder_rejects(tmp_path):
    path = tmp_path / f"{KEY}.json"
    assert store.read(path, bytes.decode) is None  # absent: a plain miss
    path.write_bytes(b"\xff")
    with pytest.raises(store.Rejected) as info:
        store.read(path, bytes.decode)
    assert info.value.action == "quarantined"
    assert isinstance(info.value.cause, UnicodeDecodeError)
    assert not path.exists() and (tmp_path / f"{KEY}.bad").exists()


def test_quarantine_capped_oldest_first(tmp_path):
    """The ``*.bad`` graveyard is bounded: beyond the cap the oldest
    entries are removed, so a long-running server quarantining corrupt
    entries cannot grow the directory forever."""
    for i in range(6):
        bad = tmp_path / f"entry{i}.bad"
        bad.write_bytes(b"x")
        # Distinct mtimes so "oldest" is well defined on coarse clocks.
        os.utime(bad, (1000 + i, 1000 + i))
    with events.capture() as em:
        removed = store.trim_quarantine(tmp_path, cap=2)
    assert removed == 4
    survivors = sorted(p.name for p in tmp_path.glob("*.bad"))
    assert survivors == ["entry4.bad", "entry5.bad"]
    trims = [e for e in em.events if e.name == "cache.quarantine_trimmed"]
    assert trims and trims[0].fields["trimmed"] == 4


def test_trims_are_counted_without_a_capture(tmp_path):
    """``cache.quarantine_trimmed`` is one of the always-recorded
    metrics a server's ``/metrics`` shows; only its event needs a
    capture."""
    for i in range(5):
        (tmp_path / f"entry{i}.bad").write_bytes(b"x")
    with metrics.scoped() as reg:
        assert store.trim_quarantine(tmp_path, cap=2) == 3
    assert reg.snapshot()["counters"] == {"cache.quarantine_trimmed": 3}


def test_existing_format_entries_still_load(tmp_path):
    """An entry written by hand in the established byte format --
    canonical JSON under the ``repro.service.store/1`` header -- loads,
    and the store still writes that format."""
    text = (
        '{"key":"%s","payload":{"sgr":3,"threads":[{"pr":4}]},'
        '"schema":"repro.service.store/1"}' % KEY
    )
    (tmp_path / f"{KEY}.json").write_text(text)
    payload = {"sgr": 3, "threads": [{"pr": 4}]}
    assert ResultStore(tmp_path).get(KEY) == payload

    fresh = tmp_path / "fresh"
    ResultStore(fresh).put(KEY, payload)
    assert (fresh / f"{KEY}.json").read_text() == text


@pytest.mark.parametrize("doc", [[], "x", 1, None])
def test_foreign_json_is_a_quarantined_miss(tmp_path, doc):
    # Valid JSON that is not an object used to raise AttributeError out
    # of ResultStore.get: a store-breaker failure, the entry left behind.
    (tmp_path / f"{KEY}.json").write_text(json.dumps(doc))
    with events.capture() as em:
        assert ResultStore(tmp_path).get(KEY) is None
    assert (tmp_path / f"{KEY}.bad").exists()
    assert not (tmp_path / f"{KEY}.json").exists()
    errors = [e for e in em.events if e.name == "service.store_error"]
    assert [e.fields["action"] for e in errors] == ["quarantined"]


_PAYLOADS = [{"i": i, "rows": list(range(i, 4_000))} for i in range(3)]


def _disk_hammer(arg):
    """Module-level worker: one process writing and reading the store's
    directory; returns every (key, value) it observed and its disk
    errors."""
    root, rounds = pathlib.Path(arg[0]), arg[1]
    seen, errors = [], 0
    for _ in range(rounds):
        for i, payload in enumerate(_PAYLOADS):
            key = f"{i:02x}" * 32
            ResultStore(root / "store").put(key, payload)
            # A fresh store has a cold overlay: this reads the disk.
            with metrics.scoped() as reg:
                got = ResultStore(root / "store").get(key)
            counters = reg.snapshot()["counters"]
            errors += counters.get('service.store{result="corrupt"}', 0)
            seen.append((key, repr(got)))
    return seen, errors


def test_disk_layer_multiprocess_atomicity(tmp_path):
    # The write discipline is write-to-temp + os.replace (and the
    # quarantine is itself an os.replace), so any number of processes
    # may race on one directory: a reader observes absent or complete,
    # never torn.  Hammer the store from four processes and require
    # zero disk errors, one value per key (the stored payload itself),
    # and no temp-file or quarantine litter.
    with mp.get_context("spawn").Pool(4) as pool:
        work = pool.map_async(_disk_hammer, [(str(tmp_path), 5)] * 4)
        outcomes = work.get(timeout=300)
    by_key = {}
    for seen, errors in outcomes:
        assert errors == 0
        for key, value in seen:
            by_key.setdefault(key, set()).add(value)
    assert len(by_key) == 3
    assert all(len(values) == 1 for values in by_key.values())
    for i, payload in enumerate(_PAYLOADS):
        assert by_key[f"{i:02x}" * 32] == {repr(payload)}
    assert not list((tmp_path / "store").glob("*.tmp"))
    assert not list((tmp_path / "store").glob("*.bad"))
