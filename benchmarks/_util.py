"""Shared helpers for the benchmark tree."""

from __future__ import annotations

import pathlib
from typing import Any

from repro.harness.trend import record

OUT_DIR = pathlib.Path(__file__).parent / "out"


def publish(name: str, text: str, data: Any) -> None:
    """Print a reproduced artifact and keep it under benchmarks/out/.

    :func:`repro.harness.trend.record` writes the text as
    ``<name>.txt``, ``data`` as machine-readable ``BENCH_<name>.json``
    (a diffable trajectory snapshot) and, for a watched bench, one row
    to the run ledger (``benchmarks/out/ledger.jsonl``, git-ignored),
    feeding the ``repro bench trend`` regression sentinel.
    """
    record(
        name, data, text=text, out_dir=OUT_DIR,
        ledger_path=OUT_DIR / "ledger.jsonl",
    )
    print()
    print(text)
