"""Edge-case tests for the region-coloring merge (Figure 7).

Every program here also runs the mask merge against its set-based twin
(:func:`assert_merges_identical`), which ``tests/test_dense.py`` applies
to the suite, the fixtures and generated programs.  Random interference
masks reach resolution cases the programs do not, such as a blocking
neighbour moved to color 0.
"""

import random

from repro.cfg.liveness import compute_liveness, compute_liveness_reference
from repro.cfg.nsr import compute_nsr
from repro.igraph.coloring import validate_coloring
from repro.igraph.interference import (
    InterferenceGraphs,
    InterferenceMasks,
    build_interference,
)
from repro.igraph.merge import (
    merge_region_colorings,
    merge_region_colorings_reference,
)
from repro.ir.operands import VirtualReg
from repro.ir.parser import parse_program


def assert_merges_identical(dense, reference):
    """The mask merge on ``dense`` graphs against
    :func:`merge_region_colorings_reference` on reference-built ones:
    the same coloring, insertion order included, ``MaxPR`` and ``MaxR``.
    """
    assert dense.masks is not None and reference.masks is None
    m = merge_region_colorings(dense)
    r = merge_region_colorings_reference(reference)
    assert list(m.coloring.items()) == list(r.coloring.items())
    assert (m.max_pr, m.max_r) == (r.max_pr, r.max_r)
    return m


def graphs_of(program, liveness_of):
    lv = liveness_of(program)
    return build_interference(lv, compute_nsr(lv))


def merged_for(text):
    p = parse_program(text, "t")
    g = graphs_of(p, compute_liveness)
    m = assert_merges_identical(g, graphs_of(p, compute_liveness_reference))
    validate_coloring(g.gig, m.coloring)
    for node in g.boundary:
        assert m.coloring[node] < m.max_pr
    return g, m


def test_no_csb_program_all_shared():
    g, m = merged_for("movi %a, 1\nmovi %b, 2\nadd %a, %a, %b\nhalt\n")
    assert m.max_pr == 0
    assert m.max_r >= 2


def test_single_range_program():
    g, m = merged_for("movi %a, 1\nstore %a, [%a]\nhalt\n")
    assert m.max_r >= 1


def test_internal_widening_counts_only_r():
    # Three internal values overlapping in one NSR, no boundary at all.
    g, m = merged_for(
        """
        movi %a, 1
        movi %b, 2
        movi %c, 3
        add %d, %a, %b
        add %d, %d, %c
        store %d, [%a]
        halt
        """
    )
    assert m.max_pr <= 1
    assert m.max_r >= 3


def test_boundary_widening_shifts_shared_colors():
    # Two boundary ranges interfering only internally (different CSBs)
    # plus internal pressure: the merge must keep private colors a
    # contiguous prefix even when it widens PR.
    g, m = merged_for(
        """
        movi %a, 1
        ctx
        movi %b, 2
        add %x, %a, %b
        movi %t1, 5
        movi %t2, 6
        add %x, %t1, %t2
        store %x, [%a]
        store %b, [%b]
        halt
        """
    )
    for node in g.gig.nodes():
        if node not in g.boundary:
            assert 0 <= m.coloring[node] < m.max_r


def test_merge_deterministic(mini_kernel):
    g = graphs_of(mini_kernel, compute_liveness)
    assert_merges_identical(g, graphs_of(mini_kernel, compute_liveness_reference))
    a = merge_region_colorings(g)
    b = merge_region_colorings(g)
    assert a.coloring == b.coloring
    assert (a.max_pr, a.max_r) == (b.max_pr, b.max_r)


def random_masks(rng):
    """Interference masks of up to 30 ranges with claim 2 holding:
    internal ranges of different NSRs never interfere, and BIG edges
    are GIG edges between boundary ranges."""
    n = rng.randint(1, 30)
    regs = tuple(VirtualReg(f"v{i:02d}") for i in range(n))
    boundary = sum(1 << i for i in range(n) if rng.random() < 0.4)
    regions = [0] * rng.randint(1, 4)
    region_of = {}
    for i in range(n):
        if not boundary >> i & 1:
            region_of[i] = rng.randrange(len(regions))
            regions[region_of[i]] |= 1 << i
    density = rng.random()
    gig = [0] * n
    big = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if a in region_of and b in region_of:
                if region_of[a] != region_of[b]:
                    continue
            if rng.random() < density:
                gig[a] |= 1 << b
                gig[b] |= 1 << a
                both_boundary = boundary >> a & 1 and boundary >> b & 1
                if both_boundary and rng.random() < 0.5:
                    big[a] |= 1 << b
                    big[b] |= 1 << a
    on_boundary = frozenset(r for i, r in enumerate(regs) if boundary >> i & 1)
    return InterferenceGraphs(
        on_boundary,
        frozenset(regs) - on_boundary,
        masks=InterferenceMasks(regs, gig, big, boundary, regions),
    )


def test_mask_merge_matches_reference_on_random_masks():
    rng = random.Random(7)
    for _ in range(500):
        graphs = random_masks(rng)
        # The twin walks the graph objects built from the same masks.
        m = merge_region_colorings(graphs)
        r = merge_region_colorings_reference(graphs)
        assert list(m.coloring.items()) == list(r.coloring.items())
        assert (m.max_pr, m.max_r) == (r.max_pr, r.max_r)
        validate_coloring(graphs.gig, m.coloring)
