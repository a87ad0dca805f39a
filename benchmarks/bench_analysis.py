"""Cold-analysis throughput benchmark: dense bitset kernels vs reference.

Run with::

    pytest benchmarks/bench_analysis.py --benchmark-only -s

Every suite kernel is analyzed by both implementations (best of 3).
The table (also written to ``benchmarks/out/analysis.txt`` and
``benchmarks/out/BENCH_analysis.json``) reports per-kernel analysis
timings and the aggregate speedup.  The run aborts unless the
per-kernel analysis digests are identical across implementations --
speed never comes at the cost of fidelity.  Whole allocations on the
two implementations are compared in ``tests/test_dense.py``.
"""

from benchmarks._util import publish
from repro.harness.analysisperf import render_analysis, run_analysis_bench


def test_analysis(benchmark):
    data = benchmark.pedantic(run_analysis_bench, rounds=1, iterations=1)
    assert data["digests_identical"], "analysis digests diverged"
    # The CI smoke gate (3 kernels) is 2x; the full suite on an unloaded
    # machine lands near 5x for the analysis stage.
    assert data["analysis_speedup"] >= 3.0
    publish("analysis", render_analysis(data), data=data)
