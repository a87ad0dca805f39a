"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from tests.conftest import MINI_KERNEL


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.npir"
    path.write_text(MINI_KERNEL)
    return str(path)


def test_analyze_file(kernel_file, capsys):
    assert main(["analyze", kernel_file]) == 0
    out = capsys.readouterr().out
    assert "non-switch regions" in out
    assert "PR in" in out


def test_analyze_bench_spec(capsys):
    assert main(["analyze", "bench:frag"]) == 0
    assert "frag" in capsys.readouterr().out


def test_cache_dir_binds_a_persistent_cache_for_the_command(tmp_path):
    from repro.core.cache import get_cache

    default, before = get_cache(), get_cache().cache_dir
    argv = ["profile", "bench:crc", "--no-sim", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert list(tmp_path.glob("*.pkl"))
    # The process default cache was neither replaced nor redirected.
    assert get_cache() is default
    assert default.cache_dir == before


def test_allocate_and_write_output(kernel_file, tmp_path, capsys):
    out_dir = tmp_path / "alloc"
    assert (
        main(
            [
                "allocate",
                kernel_file,
                kernel_file,
                "--nreg",
                "16",
                "-o",
                str(out_dir),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "SGR" in out
    written = sorted(p.name for p in out_dir.iterdir())
    assert len(written) == 2
    text = (out_dir / written[0]).read_text()
    assert "$r" in text and "%" not in text


def test_run_reference(kernel_file, capsys):
    assert main(["run", kernel_file, "--packets", "4"]) == 0
    out = capsys.readouterr().out
    assert "4 packets" in out


def test_run_allocated_verifies(kernel_file, capsys):
    assert (
        main(
            ["run", kernel_file, "--packets", "4", "--allocated", "--nreg", "12"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "verified against reference: True" in out


def test_library_errors_exit_2_without_traceback(kernel_file, capsys):
    # AllocationError from an infeasible budget, and EngineError from a
    # feature the fast engine lacks: both are ReproErrors, reported by
    # main() as one line on stderr.
    for argv, message in (
        (["allocate", kernel_file, kernel_file, "--nreg", "2"], "cannot fit"),
        (
            ["profile", kernel_file, "--engine", "fast", "--packets", "2"],
            "fast engine does not support",
        ),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fabric", "status", "DIR"],
        ["bench", "fabric"],
        ["profile", "--fabric", "DIR", "bench:crc"],
        ["analyze", "--analysis-impl", "reference", "bench:crc"],
        ["bench", "table1", "--engine", "fast"],
        ["chaos", "--engine", "fast"],
        ["compile", "kernel.npc"],
        ["encode", "kernel.npir"],
        ["profile", "--jobs", "2", "bench:crc"],
        ["bench", "table1", "--jobs", "2"],
    ],
    ids=[
        "fabric-command",
        "bench-fabric",
        "fabric-flag",
        "analysis-impl-flag",
        "bench-engine-flag",
        "chaos-engine-flag",
        "compile-command",
        "encode-command",
        "profile-jobs-flag",
        "bench-jobs-flag",
    ],
)
def test_removed_fabric_surface_is_a_usage_error(argv, tmp_path, capsys):
    argv = [str(tmp_path) if arg == "DIR" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_suite_listing(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert "md5" in out and "wraps_recv" in out



@pytest.mark.parametrize("identical", [True, False])
def test_bench_fails_a_diverged_run_and_records_no_row(
    identical, tmp_path, monkeypatch, capsys
):
    # A speedup over two computations that disagreed is no speedup: the
    # run exits 1 and leaves the ledger alone.
    from repro.harness import analysisperf

    report = {
        "kernels": ["crc"], "repeats": 1, "analysis_reference_s": 1.5,
        "analysis_dense_s": 0.1, "analysis_speedup": 15.0,
        "digests_identical": identical, "rows": [],
    }
    monkeypatch.setattr(analysisperf, "run_analysis_bench", lambda: report)
    ledger = tmp_path / "ledger.jsonl"
    code = main(["bench", "analysis", "--ledger", str(ledger)])
    assert code == (0 if identical else 1)
    assert ledger.exists() == identical
    if not identical:
        assert "digests_identical" in capsys.readouterr().err


def test_bench_reports_no_row_it_did_not_write(tmp_path, monkeypatch, capsys):
    # A run with no watched metric (here a Figure 14 without rows) is
    # kept without a ledger row, and the CLI must not claim one.
    from repro.harness import fig14

    monkeypatch.setattr(fig14, "run_fig14", lambda: [])
    monkeypatch.setattr(fig14, "render_fig14", lambda rows: "no rows")
    ledger = tmp_path / "ledger.jsonl"
    assert main(["bench", "fig14", "--ledger", str(ledger)]) == 0
    assert not ledger.exists()
    assert "appended" not in capsys.readouterr().err


def test_serve_installs_its_signal_handlers_before_it_serves(monkeypatch):
    # A client that reads the banner may send SIGTERM at once; with the
    # default action still installed that kills the process undrained.
    import gc
    import os
    import signal

    import repro.service

    class FakeServer:
        address = ("127.0.0.1", 0)

        def __init__(self, config, host, port):
            pass

        def start(self):
            assert callable(signal.getsignal(signal.SIGTERM))
            os.kill(os.getpid(), signal.SIGTERM)

        def drain_and_stop(self, timeout):
            return True

    handlers = {
        sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    thresholds = gc.get_threshold()
    monkeypatch.setattr(repro.service, "ReproServer", FakeServer)
    try:
        assert main(["serve", "--port", "0"]) == 0
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
        gc.set_threshold(*thresholds)
