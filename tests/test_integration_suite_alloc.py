"""Integration: allocate every benchmark and verify execution equivalence.

This is the strongest end-to-end guarantee in the repository: for each
benchmark, the allocated (physical-register) program must produce exactly
the reference run's observable behaviour, under the paranoid safety
checker, both at the comfortable budget and squeezed to the minimum.
"""

import pytest

from repro.core.analysis import analyze_thread
from repro.core.bounds import estimate_bounds
from repro.core.pipeline import allocate_programs
from repro.ir.parser import parse_program
from repro.ir.validate import validate_program
from repro.sim.memory import Memory
from repro.sim.packets import make_workload
from repro.sim.run import (
    PACKET_AREA_BASE,
    outputs_match,
    run_reference,
    run_threads,
)
from repro.suite.registry import BENCHMARKS, load


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_single_thread_allocation_equivalence(name):
    program = load(name)
    out = allocate_programs([program], nreg=128)
    ref = run_reference([program], packets_per_thread=3)
    got = run_threads(
        out.programs,
        packets_per_thread=3,
        assignment=out.assignment,
    )
    assert outputs_match(ref, got), name


@pytest.mark.parametrize("name", ["frag", "drr", "url", "l2l3fwd_send", "crc"])
def test_minimum_register_allocation_equivalence(name):
    program = load(name)
    bounds = estimate_bounds(analyze_thread(program))
    nreg = bounds.min_pr + (bounds.min_r - bounds.min_pr)
    out = allocate_programs([program], nreg=nreg)
    assert out.total_registers <= nreg
    ref = run_reference([program], packets_per_thread=3)
    got = run_threads(
        out.programs,
        packets_per_thread=3,
        nreg=nreg,
        assignment=out.assignment,
    )
    assert outputs_match(ref, got), name


def test_four_thread_mixed_pu():
    names = ("frag", "drr", "url", "ipchains")
    programs = [load(n) for n in names]
    out = allocate_programs(programs, nreg=40)
    assert out.total_registers <= 40
    ref = run_reference(programs, packets_per_thread=4)
    got = run_threads(
        out.programs,
        packets_per_thread=4,
        nreg=40,
        assignment=out.assignment,
    )
    assert outputs_match(ref, got)


def test_four_thread_squeezed_pu():
    names = ("frag", "drr", "url", "ipchains")
    programs = [load(n) for n in names]
    bounds = [estimate_bounds(analyze_thread(p)) for p in programs]
    floor = sum(b.min_pr for b in bounds) + max(
        b.min_r - b.min_pr for b in bounds
    )
    out = allocate_programs([load(n) for n in names], nreg=floor)
    assert out.total_registers <= floor
    ref = run_reference(programs, packets_per_thread=4)
    got = run_threads(
        out.programs,
        packets_per_thread=4,
        nreg=floor,
        assignment=out.assignment,
    )
    assert outputs_match(ref, got)


# Two kernels in the shape a C compiler emits: one %.tN temporary per
# subexpression and a copy into each named variable, so their live ranges
# are shorter and more numerous than in the hand-written suite kernels.

# One's-complement checksum over the payload, like the frag kernel:
# sum the 16-bit halves of every word (ctx after each), fold twice,
# store the complement after the payload.
CHECKSUM_NPIR = """
.L1:
    recv %.t1
    mov %buf, %.t1
    bnei %.t1, 0, .L3
    br .L2
.L3:
    load %.t2, [%buf]
    mov %len, %.t2
    movi %sum, 0
    movi %i, 0
.L4:
    bge %i, %len, .L5
    addi %.t5, %i, 1
    mov %i, %.t5
    add %.t6, %buf, %.t5
    load %.t7, [%.t6]
    shri %.t9, %.t7, 16
    add %.t8, %sum, %.t9
    andi %.t11, %.t7, 65535
    add %.t10, %.t8, %.t11
    mov %sum, %.t10
    ctx
    br .L4
.L5:
    andi %.t12, %sum, 65535
    shri %.t14, %sum, 16
    add %.t13, %.t12, %.t14
    andi %.t15, %.t13, 65535
    shri %.t17, %.t13, 16
    add %.t16, %.t15, %.t17
    add %.t18, %buf, %len
    xori %.t19, %.t16, 65535
    store %.t19, [%.t18 + 1]
    send %buf
    br .L1
.L2:
    halt
    halt
"""

# Tiny classifier: tag each packet by its header's parity and store a
# running count after the tag; the count lives across packets.
CLASSIFIER_NPIR = """
    movi %count, 0
.L1:
    recv %.t2
    mov %p, %.t2
    bnei %.t2, 0, .L3
    br .L2
.L3:
    load %.t3, [%p]
    mov %n, %.t3
    load %.t4, [%p + 1]
    addi %.t5, %count, 1
    mov %count, %.t5
    andi %.t6, %.t4, 1
    beqi %.t6, 0, .L4
    movi %tag, 43690
    br .L5
.L4:
    movi %tag, 21845
.L5:
    add %.t9, %p, %n
    store %tag, [%.t9 + 1]
    add %.t10, %p, %n
    store %count, [%.t10 + 2]
    send %p
    br .L1
.L2:
    halt
    halt
"""


def _kernel(text, name):
    program = parse_program(text, name)
    validate_program(program)
    return program


def test_checksum_kernel_matches_golden_model():
    program = _kernel(CHECKSUM_NPIR, "checksum")
    run = run_reference([program], packets_per_thread=3)
    mem = Memory()
    wl = make_workload(mem, PACKET_AREA_BASE, 3, 16, seed=1)
    stores = dict(run.stores[0])
    for base, size in zip(wl.bases, wl.payload_words):
        total = 0
        for w in mem.read_block(base + 1, size):
            total += (w >> 16) + (w & 0xFFFF)
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        assert stores[base + size + 1] == total ^ 0xFFFF


def test_npc_kernels_allocate_and_verify():
    programs = [
        _kernel(CHECKSUM_NPIR, "checksum"),
        _kernel(CLASSIFIER_NPIR, "classifier"),
    ]
    out = allocate_programs(programs, nreg=16)
    assert out.total_registers <= 16
    ref = run_reference(programs, packets_per_thread=5)
    got = run_threads(
        out.programs,
        packets_per_thread=5,
        nreg=16,
        assignment=out.assignment,
    )
    assert outputs_match(ref, got)


def test_npc_kernel_squeezed_to_minimum():
    program = _kernel(CHECKSUM_NPIR, "checksum")
    bounds = estimate_bounds(analyze_thread(program))
    out = allocate_programs([program], nreg=bounds.min_r)
    ref = run_reference([program], packets_per_thread=3)
    got = run_threads(
        out.programs,
        packets_per_thread=3,
        nreg=bounds.min_r,
        assignment=out.assignment,
    )
    assert outputs_match(ref, got)


def test_npc_state_persists_across_packets():
    program = _kernel(CLASSIFIER_NPIR, "classifier")
    run = run_reference([program], packets_per_thread=4)
    counts = [v for (a, v) in run.stores[0]][1::2]
    assert counts == [1, 2, 3, 4]
