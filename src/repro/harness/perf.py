"""Engine throughput comparison: reference interpreter vs fast engine.

Runs every suite kernel on both execution engines over identical packet
workloads, checks that the runs are *bit-identical* (MachineStats, send
queues, store traces), and reports wall-clock time, instructions per
second, and the fast/reference speedup per kernel plus the aggregate
over the whole suite.  ``repro bench perf`` prints the table;
``benchmarks/bench_perf.py`` persists it as ``BENCH_perf.json``.

Timing covers :meth:`run` only -- machine construction (including the
fast engine's decode+bind pass) is reported separately as
``fast_build_s``, the best of the fast engine's builds, since decoding
is a one-time cost amortised across runs (and shared via the decode
cache when the same program objects are reused).  Both are timed by
:func:`~repro.harness.report.measure`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.harness.report import measure, ratio, text_table
from repro.sim.engine import create_machine
from repro.sim.packets import make_workload
from repro.sim.run import PACKET_AREA_BASE, PACKET_AREA_STRIDE
from repro.suite.registry import BENCHMARKS, load

#: Threads per machine, each running its own copy of the kernel.
THREADS = 4


def _engine_arm(programs, engine: str, packets: int):
    """Best build and run seconds for one engine, and what every run
    observed: ``(stats, send queues, store traces)`` per machine.

    Each timed run gets its own machine, built (and timed) beforehand
    with its own memory and packet queues, so no state leaks between
    measurements.
    """
    build_s, machines = measure(lambda: create_machine(programs, engine))
    for machine in machines:
        for tid, thread in enumerate(machine.threads):
            workload = make_workload(
                machine.memory,
                base=PACKET_AREA_BASE + tid * PACKET_AREA_STRIDE,
                n_packets=packets,
                payload_words=16,
                seed=1 + tid,
            )
            thread.in_queue = list(workload.bases)
    pending = iter(machines)
    run_s, stats = measure(lambda: next(pending).run())
    observed = [
        (
            s,
            [list(t.out_queue) for t in m.threads],
            [list(t.stores) for t in m.threads],
        )
        for s, m in zip(stats, machines)
    ]
    return build_s, run_s, observed


def run_perf(
    names: Optional[Sequence[str]] = None, packets: int = 64
) -> Dict[str, Any]:
    """Compare both engines over the suite (all kernels by default);
    returns the ``BENCH_perf.json`` payload, ``{"rows", "summary"}``."""
    rows: List[Dict[str, Any]] = []
    for name in names or list(BENCHMARKS):
        programs = [load(name) for _ in range(THREADS)]
        _, ref_s, ref = _engine_arm(programs, "reference", packets)
        build_s, fast_s, fast = _engine_arm(programs, "fast", packets)
        instructions = sum(t.instructions for t in ref[0][0].threads)
        rows.append(
            {
                "name": name,
                "threads": THREADS,
                "packets": packets,
                "instructions": instructions,
                "ref_run_s": ref_s,
                "fast_run_s": fast_s,
                "fast_build_s": build_s,
                "ref_ips": ratio(instructions, ref_s),
                "fast_ips": ratio(instructions, fast_s),
                "speedup": ratio(ref_s, fast_s),
                "stats_match": all(o == ref[0] for o in ref + fast),
            }
        )
    # Suite aggregate: total work over total time per engine.
    instructions = sum(r["instructions"] for r in rows)
    ref_s = sum(r["ref_run_s"] for r in rows)
    fast_s = sum(r["fast_run_s"] for r in rows)
    summary = {
        "kernels": len(rows),
        "instructions": instructions,
        "ref_run_s": ref_s,
        "fast_run_s": fast_s,
        "ref_ips": ratio(instructions, ref_s),
        "fast_ips": ratio(instructions, fast_s),
        "speedup": ratio(ref_s, fast_s),
        "stats_match": all(r["stats_match"] for r in rows),
    }
    return {"rows": rows, "summary": summary}


def render_perf(data: Dict[str, Any]) -> str:
    headers = [
        "benchmark", "#instr", "ref ms", "fast ms",
        "ref Mips", "fast Mips", "speedup", "identical",
    ]
    table = [
        (
            r["name"],
            r["instructions"],
            1000.0 * r["ref_run_s"],
            1000.0 * r["fast_run_s"],
            r["ref_ips"] / 1e6,
            r["fast_ips"] / 1e6,
            r["speedup"],
            "yes" if r["stats_match"] else "NO",
        )
        for r in [*data["rows"], {**data["summary"], "name": "AGGREGATE"}]
    ]
    return (
        "Engine throughput: reference interpreter vs pre-decoded fast "
        "engine\n" + text_table(headers, table)
    )
