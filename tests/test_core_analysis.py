"""Unit tests for the per-thread analysis bundle."""

from repro.core.analysis import analyze_thread
from repro.ir.operands import VirtualReg
from repro.ir.parser import parse_program


def v(name):
    return VirtualReg(name)


def test_slots_cover_def_and_liveness(straight):
    an = analyze_thread(straight)
    assert an.slots[v("a")] == frozenset({0, 1, 2, 3, 4})
    # %b: defined at 2, used at 3.
    assert an.slots[v("b")] == frozenset({2, 3})


def test_flow_edges_follow_control_flow(straight):
    an = analyze_thread(straight)
    assert (0, 1) in an.flow_edges[v("a")]
    assert (3, 4) in an.flow_edges[v("c")]
    # %b dies at 3: no edge (3, 4).
    assert (3, 4) not in an.flow_edges[v("b")]


def test_occupants_sorted_and_complete(straight):
    an = analyze_thread(straight)
    occ3 = an.occupants[3]
    assert v("a") in occ3 and v("b") in occ3
    assert list(occ3) == sorted(occ3, key=str)


def test_live_across_matches_liveness(straight):
    an = analyze_thread(straight)
    assert an.live_across[1] == frozenset({v("a")})


def test_csb_slots_of_entry_sentinel():
    p = parse_program("store %x, [%x]\nhalt\n", "t")
    an = analyze_thread(p)
    assert -1 in an.csb_slots_of[v("x")]


def test_interferes_at_exception(straight):
    an = analyze_thread(straight)
    # At instruction 3 (add %c, %a, %b): %c defined, %b dies there.
    assert not an.interferes_at(v("c"), v("b"), 3)
    # %a survives (used by the store at 4): conflicts with the def.
    assert an.interferes_at(v("c"), v("a"), 3)


def test_conflicts_at_symmetry(straight):
    lists = analyze_thread(straight).conflict_lists()
    for reg, pairs in lists.items():
        for s, other in pairs:
            assert (s, reg) in lists[other]


def test_web_renaming_applied():
    p = parse_program(
        """
        movi %t, 1
        store %t, [%t]
        movi %t, 2
        store %t, [%t]
        halt
        """,
        "t",
    )
    an = analyze_thread(p)
    assert len(an.program.virtual_regs()) == 2


def test_nsr_of_slot(straight):
    an = analyze_thread(straight)
    assert an.nsr_of_slot(1) == -1  # the ctx
    assert an.nsr_of_slot(2) >= 0


def test_conflict_pairs_cover_conflicts_at(straight):
    an = analyze_thread(straight)
    pairs = an.conflict_pairs()
    lists = an.conflict_lists()
    # Each unordered pair appears exactly once, ordered by str().
    for (a, b), slots in pairs.items():
        assert str(a) < str(b)
        assert list(slots) == sorted(slots)
        for s in slots:
            assert (s, b) in lists[a]
            assert (s, a) in lists[b]
    # And every conflicts_at entry is covered.
    total = sum(len(v) for v in lists.values())
    assert 2 * sum(len(v) for v in pairs.values()) == total
    assert an.conflict_pairs() is pairs  # cached
