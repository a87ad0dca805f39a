"""Engine throughput benchmark: reference interpreter vs fast engine.

Run with::

    pytest benchmarks/bench_perf.py --benchmark-only -s

Every suite kernel runs on both engines over identical packet
workloads; the table (also written to ``benchmarks/out/perf.txt`` and
``benchmarks/out/BENCH_perf.json``) reports wall-clock per kernel,
instructions per second, and the fast/reference speedup.  The run
aborts if any kernel's MachineStats/send-queues/store-traces differ
between engines -- speed never comes at the cost of fidelity.
"""

from benchmarks._util import publish
from repro.harness.perf import render_perf, run_perf


def test_perf(benchmark):
    data = benchmark.pedantic(run_perf, rounds=1, iterations=1)
    assert len(data["rows"]) == 11
    for r in data["rows"]:
        assert r["stats_match"], f"{r['name']}: engines diverged"
    # The CI smoke gate is 2x; the full suite on an unloaded machine
    # lands well above 5x in aggregate.
    assert data["summary"]["speedup"] >= 2.0
    publish("perf", render_perf(data), data=data)
