"""Unit tests for basic-block construction."""

from repro.cfg.blocks import build_blocks
from repro.ir.parser import parse_program


def test_straight_line_is_one_block(straight):
    blocks = build_blocks(straight)
    assert len(blocks) == 1
    assert blocks[0].start == 0 and blocks[0].end == len(straight.instrs)


def test_diamond_blocks(fig3_t1):
    blocks = build_blocks(fig3_t1)
    # entry, then-branch, else-branch (L1), join (L2)
    assert len(blocks) == 4
    entry = blocks[0]
    assert sorted(entry.succs) == [1, 2]
    join = blocks[3]
    assert sorted(join.preds) == [1, 2]


def test_loop_back_edge(mini_kernel):
    blocks = build_blocks(mini_kernel)
    by_start = {b.start: b for b in blocks}
    loop_head = by_start[mini_kernel.labels["loop"]]
    assert loop_head.bid in {
        s for b in blocks for s in b.succs if b.start > loop_head.start
    }


def test_blocks_partition_program(mini_kernel):
    blocks = build_blocks(mini_kernel)
    covered = sorted(i for b in blocks for i in b.indices())
    assert covered == list(range(len(mini_kernel.instrs)))


def test_halt_ends_block():
    p = parse_program("movi %a, 1\nhalt\nx:\n movi %b, 2\n halt\n", "t")
    blocks = build_blocks(p)
    assert len(blocks) == 2
    assert blocks[0].succs == ()
