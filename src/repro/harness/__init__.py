"""Experiment harnesses: one module per table/figure of the paper.

* :mod:`repro.harness.table1` -- benchmark properties (paper Table 1).
* :mod:`repro.harness.fig14` -- SRA register requirements: standalone
  Chaitin vs inter-thread PR/SR with a zero-move budget (paper Figure 14).
* :mod:`repro.harness.table2` -- move insertion in the extreme case of
  minimal register allocation (paper Table 2).
* :mod:`repro.harness.table3` -- the three ARA scenarios: spilling
  baseline vs register sharing, cycle counts per thread (paper Table 3).
* :mod:`repro.harness.report` -- plain-text table rendering shared by
  all, and :func:`~repro.harness.report.measure`, the one timing loop of
  the throughput benches.

Every harness exposes ``run(...) -> rows`` returning plain dataclasses and
``render(rows) -> str`` producing the table; the ``benchmarks/`` tree calls
``run`` under pytest-benchmark and prints ``render``.  The throughput
benches are imported from their own modules and return their
``BENCH_*.json`` payloads; :func:`repro.harness.trend.record` keeps every
finished bench run.
"""

from repro.harness.table1 import Table1Row, run_table1, render_table1
from repro.harness.fig14 import Fig14Row, run_fig14, render_fig14
from repro.harness.table2 import Table2Row, run_table2, render_table2
from repro.harness.table3 import (
    SCENARIOS,
    Table3Scenario,
    run_table3,
    render_table3,
)

__all__ = [
    "Table1Row",
    "run_table1",
    "render_table1",
    "Fig14Row",
    "run_fig14",
    "render_fig14",
    "Table2Row",
    "run_table2",
    "render_table2",
    "SCENARIOS",
    "Table3Scenario",
    "run_table3",
    "render_table3",
]
