"""Unit tests for GIG/BIG/IIG construction and the region merge."""

import pytest

from repro.cfg.liveness import compute_liveness
from repro.cfg.nsr import compute_nsr
from repro.core.analysis import analyze_thread, analyze_thread_reference
from repro.igraph.coloring import num_colors, validate_coloring
from repro.igraph.interference import build_interference
from repro.igraph.merge import merge_region_colorings
from repro.ir.operands import VirtualReg
from repro.ir.parser import parse_program
from repro.suite.registry import load
from tests.test_service import hammer_threads


def v(name):
    return VirtualReg(name)


def graphs_for(program):
    lv = compute_liveness(program)
    nsr = compute_nsr(lv)
    return build_interference(lv, nsr)


def test_fig3_graph_shapes(fig3_t1):
    g = graphs_for(fig3_t1)
    # GIG: the a-b-c triangle.
    assert g.gig.has_edge(v("a"), v("b"))
    assert g.gig.has_edge(v("a"), v("c"))
    assert g.gig.has_edge(v("b"), v("c"))
    # BIG: only %a is boundary, so no BIG edges at all.
    assert v("a") in g.big
    assert g.big.n_edges() == 0
    # b and c are internal to the same NSR's IIG.
    iig = next(iig for iig in g.iigs.values() if v("b") in iig)
    assert iig.has_edge(v("b"), v("c"))


def test_internal_nodes_not_in_big(straight):
    g = graphs_for(straight)
    assert v("b") not in g.big
    assert v("c") not in g.big


def test_claim2_no_cross_region_internal_edges(mini_kernel):
    g = graphs_for(mini_kernel)
    for a, b in g.gig.edges():
        if a in g.internal and b in g.internal:
            rid_a = next(r for r, iig in g.iigs.items() if a in iig)
            rid_b = next(r for r, iig in g.iigs.items() if b in iig)
            assert rid_a == rid_b


def test_merge_produces_valid_gig_coloring(mini_kernel):
    g = graphs_for(mini_kernel)
    merged = merge_region_colorings(g)
    validate_coloring(g.gig, merged.coloring)
    for node in g.boundary:
        assert merged.coloring[node] < merged.max_pr
    assert merged.max_pr <= merged.max_r


def test_merge_on_paper_example(fig3_t1):
    g = graphs_for(fig3_t1)
    merged = merge_region_colorings(g)
    # Triangle forces 3 colors; only one boundary node so MaxPR = 1.
    assert merged.max_pr == 1
    assert merged.max_r == 3


def test_boundary_boundary_internal_conflict_resolved():
    # Two values live across *different* CSBs that overlap inside an NSR:
    # the BIG has no edge, yet they must get different private colors.
    p = parse_program(
        """
        movi %a, 1
        ctx
        movi %b, 2
        add %x, %a, %b
        store %x, [%a]
        store %b, [%b]
        halt
        """,
        "t",
    )
    g = graphs_for(p)
    merged = merge_region_colorings(g)
    validate_coloring(g.gig, merged.coloring)
    assert merged.coloring[v("a")] != merged.coloring[v("b")]


def edge_lists(graphs):
    return (
        graphs.gig.edges(),
        graphs.big.edges(),
        {rid: iig.edges() for rid, iig in graphs.iigs.items()},
    )


def test_graphs_built_on_a_racing_first_read_are_equal():
    # A dense analysis builds its graph objects from the masks on first
    # read; threads racing on that read each get the reference graphs.
    graphs = analyze_thread(load("crc")).graphs
    assert "gig" not in vars(graphs)
    seen = [None] * 8

    def read(i):
        seen[i] = edge_lists(graphs)

    hammer_threads(read, n=8)
    expected = edge_lists(analyze_thread_reference(load("crc")).graphs)
    assert seen == [expected] * 8
