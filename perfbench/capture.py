"""Capture the benchmark's stored corpus from the code under test.

Run once, from the repository root, when the corpus has to be rebuilt::

    PYTHONPATH=src python3 perfbench/capture.py

It writes ``perfbench/data/corpus.json``: the assembly text of every
kernel the serve workloads send, and for every mix of 2 to 4 distinct
kernels its register *floor* (the smallest feasible ``nreg``) and
*ceiling* (the requirement before any reduction).  The request
generator (``streams.py``) reads only this file, never the package, so
a parent commit and a change under test receive byte-identical
requests.  Regenerating the corpus changes every stream digest, so it
is a benchmark change of its own.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from streams import CORPUS_PATH, HOT_KERNELS  # noqa: E402


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.cache import get_cache
    from repro.core.pipeline import allocate_programs
    from repro.errors import AllocationError
    from repro.ir.parser import parse_program
    from repro.ir.printer import format_program
    from repro.suite.registry import load

    kernels = {}
    programs = {}
    for name in HOT_KERNELS:
        original = load(name)
        asm = format_program(original)
        program = parse_program(asm, name)
        if program.fingerprint() != original.fingerprint():
            raise SystemExit(f"{name}: assembly does not round-trip")
        bounds = get_cache().bounds(program)
        kernels[name] = {
            "asm": asm,
            "instructions": len(program.instrs),
            "max_r": bounds.max_r,
            "max_pr": bounds.max_pr,
        }
        programs[name] = program

    mixes = []
    for size in (2, 3, 4):
        for mix in itertools.combinations(HOT_KERNELS, size):
            threads = [programs[k] for k in mix]
            ceiling = sum(kernels[k]["max_pr"] for k in mix) + max(
                kernels[k]["max_r"] - kernels[k]["max_pr"] for k in mix
            )
            try:
                allocate_programs(threads, nreg=1)
            except AllocationError as exc:
                floor = exc.requirement
            else:
                floor = 1
            # The floor must be exact: one below it fails, it succeeds.
            allocate_programs(threads, nreg=floor)
            if floor > 1:
                try:
                    allocate_programs(threads, nreg=floor - 1)
                except AllocationError:
                    pass
                else:
                    raise SystemExit(f"{mix}: floor {floor} is not tight")
            mixes.append(
                {"kernels": list(mix), "floor": floor, "ceiling": ceiling}
            )

    doc = {
        "schema": "perfbench.corpus/1",
        "captured_from": _commit(),
        "kernels": kernels,
        "mixes": mixes,
    }
    CORPUS_PATH.parent.mkdir(parents=True, exist_ok=True)
    CORPUS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(kernels)} kernels and {len(mixes)} mixes to "
          f"{CORPUS_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
