"""Host provenance recorded with every run.

A slow host and a slow commit look the same in one number; the
provenance tells them apart.  :func:`calibrate` times a fixed
pure-Python loop before the run: its score moves with the host and
the interpreter, never with the code under test.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import os
import pathlib
import platform
import subprocess
import time
from typing import Any, Dict, Optional

CALIBRATION_LOOPS = 200_000
CALIBRATION_REPEATS = 5


def _loop(n: int) -> int:
    acc, table = 0, {}
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFF
        table[i & 255] = acc
    return acc + len(table)


def calibrate() -> float:
    """Best-of-five rate of the fixed loop, in million iterations/s."""
    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        _loop(CALIBRATION_LOOPS)
        best = min(best, time.perf_counter() - start)
    return CALIBRATION_LOOPS / best / 1e6


def _commit(root: pathlib.Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest(root: pathlib.Path) -> str:
    """sha256 over the package source (paths and bytes, sorted): the
    identity of the code under test where no git metadata exists."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: pathlib.Path) -> Dict[str, Any]:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(root),
        "source_sha256": source_digest(root),
        "loadavg": list(os.getloadavg()),
        "calibration_mloops_per_s": calibrate(),
    }
