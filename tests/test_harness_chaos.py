"""Tests for the chaos harness: scenario outcomes, the gate, the CLI."""

import json

import pytest

from repro.harness import chaos
from repro.harness.chaos import (
    SCENARIOS,
    ChaosReport,
    render_chaos,
    run_chaos,
    run_scenario,
)


def _scenario(name):
    for s in SCENARIOS:
        if s.name == name:
            return s
    raise AssertionError(f"no scenario named {name}")


def test_scenario_names_are_unique():
    names = [s.name for s in SCENARIOS]
    assert len(names) == len(set(names))
    for s in SCENARIOS:
        assert s.expect in {"clean", "masked", "typed-error", "masked-or-error"}


def test_baseline_scenario_is_clean():
    result = run_scenario(_scenario("baseline"), "crc")
    assert result.outcome == "clean"
    assert result.ok
    assert not result.fired


def test_stuck_thread_surfaces_typed_error():
    result = run_scenario(_scenario("sim-stuck"), "crc")
    assert result.outcome == "typed-error"
    assert result.ok
    assert "WatchdogError" in result.error


def test_runaway_scenarios_need_no_kernel():
    for name in ("runaway-reference", "runaway-fast"):
        result = run_scenario(_scenario(name), "-")
        assert result.outcome == "typed-error"
        assert result.ok


def test_scenario_is_seed_deterministic():
    a = run_scenario(_scenario("sim-bitflip"), "crc", seed=5)
    b = run_scenario(_scenario("sim-bitflip"), "crc", seed=5)
    assert a.outcome == b.outcome
    assert a.fired == b.fired


def test_run_chaos_gate_and_report():
    report = run_chaos(
        kernels=("crc",),
        scenarios=("baseline", "analyze-transient", "runaway-fast"),
    )
    assert isinstance(report, ChaosReport)
    assert report.ok
    # runaway-fast is kernel-free: runs once, not once per kernel.
    assert len(report.results) == 3
    rendered = render_chaos(report)
    assert "chaos gate: PASS" in rendered
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["ok"] is True
    assert len(payload["results"]) == 3


def test_run_chaos_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_chaos(kernels=("crc",), scenarios=("no-such-scenario",))
    with pytest.raises(KeyError):
        run_chaos(kernels=("no-such-kernel",), scenarios=("baseline",))


def test_result_classification_rules():
    result = run_scenario(_scenario("service-store-fault"), "crc")
    assert result.outcome in ("masked", "typed-error")
    # service-store-fault expects masked specifically.
    assert result.outcome == "masked", result.error
    assert any(r["site"] == "service.store" for r in result.fired)


def test_chaos_leaves_no_armed_plan_or_degradations_visible():
    from repro.resilience import faults

    run_scenario(_scenario("service-store-fault"), "crc")
    assert faults.active() is None


def test_cli_chaos_subcommand(tmp_path):
    from repro.cli import main

    out = tmp_path / "report.json"
    rc = main(
        [
            "chaos",
            "--kernels",
            "crc",
            "--scenarios",
            "baseline,runaway-fast",
            "--json",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True


def test_cli_chaos_rejects_unknown(capsys):
    from repro.cli import main

    rc = main(["chaos", "--scenarios", "bogus"])
    assert rc == 2
