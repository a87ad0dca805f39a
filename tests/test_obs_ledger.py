"""Tests for the append-only run ledger (repro.obs.ledger)."""

import json

import pytest

from repro.obs import ledger


def _row(bench="perf", **metrics):
    return ledger.make_row(bench, metrics or {"sim.speedup": 5.5}, ts=1.0)


# ----------------------------------------------------------------------
# make_row
# ----------------------------------------------------------------------

def test_make_row_shape_and_determinism():
    row = ledger.make_row(
        "alloc",
        {"b": 2.0, "a": 1.0},
        config={"jobs": 4},
        ts=123.5,
        commit="abc123",
    )
    assert row["schema"] == ledger.SCHEMA_LEDGER
    assert row["bench"] == "alloc"
    assert list(row["metrics"]) == ["a", "b"]
    assert row["ts"] == 123.5 and row["commit"] == "abc123"
    json.dumps(row, allow_nan=False)


def test_make_row_rejects_empty_bench():
    with pytest.raises(ValueError):
        ledger.make_row("", {"x": 1.0})


def test_make_row_commit_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_COMMIT", "deadbeef")
    assert _row()["commit"] == "deadbeef"
    monkeypatch.delenv("REPRO_COMMIT")
    monkeypatch.setenv("GITHUB_SHA", "cafef00d")
    assert _row()["commit"] == "cafef00d"


# ----------------------------------------------------------------------
# append / read
# ----------------------------------------------------------------------

def test_append_and_reload(tmp_path):
    path = tmp_path / "deep" / "ledger.jsonl"  # parents created on demand
    ledger.append(_row(), path)
    ledger.append([_row("alloc"), _row("analysis")], path)
    rows = ledger.read(path)
    assert [r["bench"] for r in rows] == ["perf", "alloc", "analysis"]
    assert all(r["schema"] == ledger.SCHEMA_LEDGER for r in rows)
    # One compact JSON object per line.
    lines = path.read_text().splitlines()
    assert len(lines) == 3 and all(json.loads(l) for l in lines)


def test_append_refuses_schemaless_rows(tmp_path):
    with pytest.raises(ValueError):
        ledger.append({"bench": "perf"}, tmp_path / "l.jsonl")
    assert not (tmp_path / "l.jsonl").exists()


def test_read_missing_file_is_empty(tmp_path):
    assert ledger.read(tmp_path / "nope.jsonl") == []


def test_read_recovers_from_corrupt_tail(tmp_path):
    path = tmp_path / "l.jsonl"
    ledger.append([_row(), _row("alloc")], path)
    with path.open("a") as fh:
        fh.write('{"schema": "repro.ledger/1", "bench": "tru')  # killed mid-append
    with pytest.warns(RuntimeWarning, match="line 3 is corrupt"):
        rows = ledger.read(path)
    assert [r["bench"] for r in rows] == ["perf", "alloc"]


def test_read_stops_at_first_bad_line(tmp_path):
    """Rows after a corrupt line are not trusted (append-only damage
    happens at the tail; anything beyond it is suspect)."""
    path = tmp_path / "l.jsonl"
    ledger.append(_row(), path)
    with path.open("a") as fh:
        fh.write("GARBAGE\n")
        fh.write(json.dumps(_row("alloc")) + "\n")
    with pytest.warns(RuntimeWarning):
        rows = ledger.read(path)
    assert [r["bench"] for r in rows] == ["perf"]


def test_read_non_object_row_counts_as_corruption(tmp_path):
    path = tmp_path / "l.jsonl"
    ledger.append(_row(), path)
    with path.open("a") as fh:
        fh.write("[1, 2, 3]\n")
    with pytest.warns(RuntimeWarning):
        assert len(ledger.read(path)) == 1


def test_read_strict_raises(tmp_path):
    path = tmp_path / "l.jsonl"
    ledger.append(_row(), path)
    path.open("a").write("not json\n")
    with pytest.raises(ValueError, match="corrupt"):
        ledger.read(path, strict=True)


def test_read_keeps_unknown_schema_rows(tmp_path):
    path = tmp_path / "l.jsonl"
    ledger.append(_row(), path)
    with path.open("a") as fh:
        fh.write(json.dumps({"schema": "repro.ledger/99", "bench": "x"}) + "\n")
    assert [r["bench"] for r in ledger.read(path)] == ["perf", "x"]


def test_rows_for_filters_by_bench(tmp_path):
    path = tmp_path / "l.jsonl"
    ledger.append([_row(), _row("alloc"), _row()], path)
    assert len(ledger.rows_for("perf", path)) == 2
    assert len(ledger.rows_for("alloc", path)) == 1
    assert ledger.rows_for("fig14", path) == []


def test_default_path_env_override(monkeypatch, tmp_path):
    target = tmp_path / "custom.jsonl"
    monkeypatch.setenv(ledger.ENV_LEDGER, str(target))
    assert ledger.default_path() == target
    monkeypatch.delenv(ledger.ENV_LEDGER)
    assert ledger.default_path() == ledger.DEFAULT_RELPATH
