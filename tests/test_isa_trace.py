"""Tests for the Trace/Program helper surface."""

from repro.isa import OpClass, assemble, run_program
from repro.isa.instructions import MEM_SIZE, Instruction, opclass_for
from repro.isa.trace import MicroOp, footprint

SOURCE = """
    li a0, 0x20000
    li a1, 4
loop:
    ld a2, 0(a0)
    sd a2, 4096(a0)
    addi a0, a0, 64
    addi a1, a1, -1
    bnez a1, loop
    ecall
"""


def make_trace():
    return run_program(assemble(SOURCE, name="helpers"))


def test_opclass_counts():
    trace = make_trace()
    counts = trace.opclass_counts()
    assert counts[OpClass.LOAD] == 4
    assert counts[OpClass.STORE] == 4
    assert counts[OpClass.BRANCH] == 4
    assert sum(counts.values()) == len(trace)


def test_memory_fraction_and_counts():
    trace = make_trace()
    assert trace.num_memory == trace.num_loads + trace.num_stores
    assert trace.memory_fraction() == trace.num_memory / len(trace)


def test_uop_static_fields_follow_the_instruction():
    # One instruction per op class, with x0 as a destination and as a
    # source; each static slot is re-derived from the instruction here.
    shapes = [("add", 5, 6, 0), ("mul", 0, 6, 7), ("div", 5, 6, 7),
              ("fadd.d", 40, 41, 42), ("fmul.d", 40, 41, 42),
              ("fdiv.d", 40, 41, 42), ("lw", 5, 6, None),
              ("sd", None, 6, 7), ("beq", None, 0, 7),
              ("jalr", 1, 6, None), ("fence", None, None, None),
              ("ecall", None, None, None), ("nop", None, None, None)]
    assert {opclass_for(m) for m, *_ in shapes} == set(OpClass)
    for pc, (mnemonic, rd, rs1, rs2) in enumerate(shapes):
        inst = Instruction(mnemonic=mnemonic, rd=rd, rs1=rs1, rs2=rs2,
                           opclass=opclass_for(mnemonic),
                           mem_size=MEM_SIZE.get(mnemonic, 0), pc=4 * pc)
        uop = MicroOp(pc, inst, addr=64, taken=True, target_pc=8)
        opclass = inst.opclass
        assert (uop.seq, uop.inst, uop.addr, uop.taken, uop.target_pc) \
            == (pc, inst, 64, True, 8)
        assert uop.pc == 4 * pc
        assert uop.opclass is opclass
        assert type(uop.opclass_i) is int and uop.opclass_i == opclass
        assert uop.dest == (rd or None)
        assert uop.srcs == tuple(r for r in (rs1, rs2) if r)
        assert uop.size == MEM_SIZE.get(mnemonic, 0)
        assert uop.is_load is (opclass is OpClass.LOAD)
        assert uop.is_store is (opclass is OpClass.STORE)
        assert uop.is_memory is opclass.is_memory
        assert uop.is_branch is (opclass is OpClass.BRANCH)
        assert uop.is_control is opclass.is_control
        assert uop.is_serializing is opclass.is_serializing


def test_trace_slice_keeps_sequence_numbers():
    trace = make_trace()
    window = trace.slice(3, 8)
    assert len(window) == 5
    assert window[0].seq == 3
    assert "[3:8]" in window.name


def test_footprint_counts_distinct_lines():
    trace = make_trace()
    # 4 iterations x (one load line + one store line 4 KiB away),
    # strided by a full line each iteration: 8 distinct lines.
    assert footprint(list(trace)) == 8


def test_program_static_mix_and_listing():
    program = assemble(SOURCE)
    mix = program.static_mix()
    assert mix["LOAD"] == 1
    assert mix["STORE"] == 1
    listing = program.listing()
    assert "loop:" in listing
    assert "ld" in listing


def test_empty_trace_metrics():
    from repro.isa.trace import Trace
    trace = Trace([], name="empty")
    assert trace.memory_fraction() == 0.0
    assert trace.num_memory == 0
