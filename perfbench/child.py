"""Processes the benchmark launches, one mode per process.

``serve --spans PATH -- ARGS``
    The traced server: install the :mod:`tracer` wrappers and gc hook,
    enter the ``repro serve`` entry point with ``ARGS``, and write the
    spans to ``PATH`` once it has drained.
``regen [--spans PATH] [--setup-only]``
    One cold regeneration of the paper's evaluation (Tables 1-3 and
    Figure 14, ``jobs=1``, the parameters of the committed
    ``benchmarks/out/BENCH_*.json``).  It prints one JSON line when its
    imports are done and one with the results; the rendered artifacts
    travel as sha256 digests, so nothing is written under
    ``benchmarks/out/`` or to the ledger.

Both expect ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time


def _emit(doc) -> None:
    print(json.dumps(doc), flush=True)


def peak_rss_kb(pid="self") -> int:
    """``VmHWM`` of a process, in kB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc status")


def serve(spans: str, args) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from repro.cli import main

    try:
        return main(["serve", *args])
    finally:
        tracer.dump(spans)


def regen(spans, setup_only: bool) -> int:
    from repro.harness.fig14 import run_fig14
    from repro.harness.table1 import run_table1
    from repro.harness.table2 import run_table2
    from repro.harness.table3 import run_table3
    from repro.obs.export import SCHEMA_BENCH, to_jsonable

    _emit({"ready": time.monotonic()})
    if setup_only:
        return 0
    tracer = None
    if spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        # install() rebinds module globals; re-read the harness entry
        # points so the calls below go through the wrappers.
        from repro.harness.fig14 import run_fig14
        from repro.harness.table1 import run_table1
        from repro.harness.table2 import run_table2
        from repro.harness.table3 import run_table3

    start = time.monotonic()
    table1 = run_table1(packets=8, jobs=1)
    table2 = run_table2(jobs=1)
    table3 = run_table3(packets=40, jobs=1)
    fig14 = run_fig14(jobs=1)
    end = time.monotonic()

    data = {
        "table1": [r.to_dict() for r in table1],
        "table2": [r.to_dict() for r in table2],
        "fig14": [r.to_dict() for r in fig14],
    }
    for sc in table3:
        data["table3_" + sc.label.replace("+", "_")] = sc.to_dict()
    digests = {}
    for name, payload in data.items():
        # Mirrors repro.obs.export.bench_snapshot/write_json byte for byte.
        doc = {"schema": SCHEMA_BENCH, "bench": name,
               "data": to_jsonable(payload)}
        text = json.dumps(to_jsonable(doc), indent=2, allow_nan=False) + "\n"
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    _emit({
        "start": start,
        "end": end,
        "rss_kb": peak_rss_kb(),
        "digests": digests,
    })
    if tracer is not None:
        tracer.dump(spans)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("serve")
    p.add_argument("--spans", required=True)
    p.add_argument("args", nargs=argparse.REMAINDER)
    p = sub.add_parser("regen")
    p.add_argument("--spans")
    p.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "serve":
        rest = args.args[1:] if args.args[:1] == ["--"] else args.args
        return serve(args.spans, rest)
    return regen(args.spans, args.setup_only)


if __name__ == "__main__":
    sys.exit(main())
