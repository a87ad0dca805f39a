"""Unit tests for the Chaitin baseline allocator with spilling.

The production graph build and simplify/select run on masks; the
set-based versions they replaced are kept below, verbatim, as the
oracle every suite kernel is spilled against.
"""

from typing import Dict, List, Set, Tuple

import pytest

from repro.baseline import chaitin
from repro.baseline.chaitin import chaitin_allocate, spill_until_colorable
from repro.baseline.single_thread import (
    allocate_pu_baseline,
    single_thread_register_count,
)
from repro.cfg.liveness import co_live_pairs, compute_liveness
from repro.core.analysis import analyze_thread
from repro.core.cache import scoped
from repro.core.pipeline import allocate_programs
from repro.errors import AllocationError
from repro.igraph.graph import UndirectedGraph
from repro.ir.opcodes import Opcode
from repro.ir.operands import Reg
from repro.ir.parser import parse_program
from repro.ir.printer import format_program
from repro.sim.run import outputs_match, run_reference, run_threads
from repro.suite.registry import BENCHMARKS, load
from tests.conftest import MINI_KERNEL


def kernel():
    return parse_program(MINI_KERNEL, "k")


def test_no_spills_when_k_suffices():
    p = kernel()
    need = single_thread_register_count(p)
    res = chaitin_allocate(p, k=need)
    assert res.spilled == []
    assert res.colors_used <= need
    assert not res.program.virtual_regs()


def test_spills_when_k_too_small():
    res = chaitin_allocate(kernel(), k=3)
    assert res.spilled
    assert res.spill_loads > 0
    assert res.program.count_opcode(Opcode.LOAD) > kernel().count_opcode(
        Opcode.LOAD
    )


@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_spilled_code_preserves_semantics(k):
    p = kernel()
    res = chaitin_allocate(p.copy(), k=k)
    ref = run_reference([p], packets_per_thread=5)
    got = run_threads([res.program], packets_per_thread=5, nreg=k)
    assert outputs_match(ref, got)


def test_colors_stay_in_window():
    res = chaitin_allocate(kernel(), k=4, phys_base=10)
    for reg in res.program.phys_regs():
        assert 10 <= reg.index < 14


def test_too_few_registers_to_ever_color():
    # Three live registers are required simultaneously (add d, a, b).
    p = parse_program(
        "movi %a, 1\nmovi %b, 2\nadd %d, %a, %b\nstore %d, [%a]\nhalt\n",
        "t",
    )
    with pytest.raises(AllocationError):
        chaitin_allocate(p, k=1)


def test_pu_baseline_windows_disjoint():
    programs = [kernel() for _ in range(4)]
    pu = allocate_pu_baseline(programs, nreg=128)
    assert pu.window == 32
    seen = set()
    for i, res in enumerate(pu.results):
        regs = {r.index for r in res.program.phys_regs()}
        assert regs <= set(range(i * 32, (i + 1) * 32))
        assert not regs & seen
        seen |= regs


def test_pu_baseline_spill_areas_disjoint():
    # Force spills for all threads and check spill addresses never alias.
    programs = [kernel() for _ in range(4)]
    pu = allocate_pu_baseline(programs, nreg=16)  # window = 4 each
    run = run_threads(pu.programs, packets_per_thread=4, nreg=16)
    spill_addrs = [
        {a for a, _ in trace if 0x8000 <= a < 0x10000}
        for trace in run.stores
    ]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not spill_addrs[i] & spill_addrs[j]


def test_standalone_register_count_on_suite():
    assert single_thread_register_count(load("frag")) >= 6
    assert single_thread_register_count(load("md5")) > 32


# ---------------------------------------------------------------------------
# The set-based oracle: co_live_pairs into an UndirectedGraph, and
# simplify/select over a mutated graph copy.


def _build_graph(program):
    liveness = compute_liveness(program)
    graph = UndirectedGraph()
    for instr in program.instrs:
        for reg in instr.regs:
            graph.add_node(reg)
    for a, b in co_live_pairs(liveness):
        graph.add_edge(a, b)
    return graph


def _simplify_select(
    graph: UndirectedGraph, k: int, occurrences: Dict[Reg, int]
) -> Tuple[Dict[Reg, int], List[Reg]]:
    """One coloring attempt: returns (coloring, actual_spills)."""
    work = graph.copy()
    remaining: Set[Reg] = set(work.nodes())
    stack: List[Tuple[Reg, bool]] = []  # (node, is_potential_spill)
    while remaining:
        trivial = [n for n in remaining if work.degree(n) < k]
        if trivial:
            node = min(trivial, key=str)
            stack.append((node, False))
        else:
            node = min(
                remaining,
                key=lambda n: (
                    occurrences.get(n, 0) / max(work.degree(n), 1),
                    str(n),
                ),
            )
            stack.append((node, True))
        work.remove_node(node)
        remaining.discard(node)

    coloring: Dict[Reg, int] = {}
    spills: List[Reg] = []
    for node, potential in reversed(stack):
        used = {
            coloring[nbr]
            for nbr in graph.neighbor_set(node)
            if nbr in coloring
        }
        color = next((c for c in range(k) if c not in used), None)
        if color is None:
            if not potential:
                raise AllocationError(
                    f"non-spill node {node} failed to color (k={k})"
                )
            spills.append(node)
        else:
            coloring[node] = color
    return coloring, spills


def spill_outcome(program, k):
    """Everything ``spill_until_colorable`` decides, or its error."""
    try:
        spilled, coloring, stats = spill_until_colorable(program, k)
    except AllocationError as exc:
        return f"AllocationError: {exc}"
    return format_program(spilled), list(coloring.items()), stats


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8, 16, 32])
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_mask_chaitin_matches_set_based_oracle(name, k, monkeypatch):
    got = spill_outcome(load(name), k)
    monkeypatch.setattr(chaitin, "_build_graph", _build_graph)
    monkeypatch.setattr(chaitin, "_simplify_select", _simplify_select)
    assert got == spill_outcome(load(name), k)


def test_no_graph_objects_on_cold_allocation_or_baseline(monkeypatch):
    built = []
    init = UndirectedGraph.__init__

    def counting_init(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(UndirectedGraph, "__init__", counting_init)
    programs = [parse_program(MINI_KERNEL, "cold"), load("crc")]
    with scoped():
        allocate_programs(programs, nreg=64)
    allocate_pu_baseline(programs, nreg=32)
    assert built == []
    # The counter is live: reading an analysis' graphs builds them.
    analyze_thread(programs[0]).graphs.gig
    assert built
