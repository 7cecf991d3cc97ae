"""White-box tests for the NCSF rename machinery (Section IV-B2)."""

import pytest

from repro.config import ProcessorConfig
from repro.isa import assemble, run_program
from repro.pipeline.rename import RenameUnit
from repro.pipeline.uop import FusionKind, PipeUop, make_tail_ghost


def uops_for(source):
    return [PipeUop(mo) for mo in run_program(assemble(source))]


def make_ncsf_pair(head_uop, tail_uop):
    head_uop.fuse_ncsf(tail_uop.head, "load_pair")
    return make_tail_ghost(tail_uop.head, head_uop)


def test_plain_rename_binds_producers():
    unit = RenameUnit(ProcessorConfig())
    add, consume = uops_for("add x5, x6, x7\nadd x8, x5, x5\necall")[:2]
    unit.rename(add)
    unit.rename(consume)
    assert consume.producers == [(add, 5)]


def test_rename_allocates_and_releases_regs():
    unit = RenameUnit(ProcessorConfig())
    free0 = unit.free_int
    uop = uops_for("add x5, x6, x7\necall")[0]
    unit.rename(uop)
    assert unit.free_int == free0 - 1
    unit.release(uop.dests)
    assert unit.free_int == free0


def test_x0_destination_consumes_nothing():
    unit = RenameUnit(ProcessorConfig())
    free0 = unit.free_int
    uop = uops_for("add x0, x6, x7\necall")[0]
    unit.rename(uop)
    assert unit.free_int == free0


def test_ncsf_head_hides_tail_destination_war_fix():
    """Catalyst µ-ops must not see the tail's renamed destination."""
    unit = RenameUnit(ProcessorConfig())
    uops = uops_for("""
        li x2, 0x20000
        ld x1, 0(x2)
        add x7, x4, x4
        ld x4, 8(x2)
        ecall
    """)
    li, head, catalyst, tail = uops[:4]
    unit.rename(li)
    ghost = make_ncsf_pair(head, tail)
    unit.rename(head)
    # The catalyst reads x4: it must NOT observe the fused µ-op as the
    # producer of x4 (that rename is deferred to the side buffer).
    unit.rename(catalyst)
    assert head not in [p for p, _reg in catalyst.producers]
    # After the ghost validates, x4's writer becomes the fused µ-op.
    outcome = unit.rename_tail_ghost(ghost)
    assert outcome == "validated"
    assert unit.writer_of(4) is head


def test_ncsf_raw_detection_binds_true_producers():
    """A catalyst write to the tail's base register is detected (RaW)."""
    unit = RenameUnit(ProcessorConfig())
    uops = uops_for("""
        li x2, 0x20000
        addi x3, x2, 16
        ld x1, 0(x2)
        addi x3, x3, 8
        ld x4, 0(x3)
        ecall
    """)
    li2, li3, head, catalyst, tail = uops[:5]
    unit.rename(li2)
    unit.rename(li3)
    ghost = make_ncsf_pair(head, tail)
    unit.rename(head)
    unit.rename(catalyst)
    outcome = unit.rename_tail_ghost(ghost)
    assert outcome == "validated"
    assert catalyst in [p for p, _reg in head.extra_producers]


def test_deadlock_detected_direct():
    """Tail's base is (indirectly) the head's result: must unfuse."""
    unit = RenameUnit(ProcessorConfig())
    uops = uops_for("""
        li x2, 0x20000
        ld x1, 0(x2)
        add x3, x1, x2
        ld x4, 0(x3)
        ecall
    """)
    li, head, catalyst, tail = uops[:4]
    unit.rename(li)
    ghost = make_ncsf_pair(head, tail)
    unit.rename(head)
    unit.rename(catalyst)  # x3 inherits the head's deadlock tag via x1
    outcome = unit.rename_tail_ghost(ghost)
    assert outcome == "deadlock"


def test_deadlock_tag_cleared_by_overwrite():
    unit = RenameUnit(ProcessorConfig())
    uops = uops_for("""
        li x2, 0x20000
        li x9, 1
        ld x1, 0(x2)
        add x3, x1, x2
        mv x3, x9
        ld x4, 8(x2)
        ecall
    """)
    li2, li9, head, tainted, overwrite, tail = uops[:6]
    unit.rename(li2)
    unit.rename(li9)
    ghost = make_ncsf_pair(head, tail)
    unit.rename(head)
    unit.rename(tainted)
    unit.rename(overwrite)  # x3 overwritten from an untainted source
    # The tail uses x2 (clean) anyway; check there is no deadlock.
    assert unit.rename_tail_ghost(ghost) == "validated"


def test_serializing_in_catalyst_unfuses():
    unit = RenameUnit(ProcessorConfig())
    uops = uops_for("""
        li x2, 0x20000
        ld x1, 0(x2)
        fence
        ld x4, 8(x2)
        ecall
    """)
    li, head, fence, tail = uops[:4]
    unit.rename(li)
    ghost = make_ncsf_pair(head, tail)
    unit.rename(head)
    unit.rename(fence)
    assert unit.ncsf_serializing
    assert unit.rename_tail_ghost(ghost) == "serializing"


def test_store_in_catalyst_unfuses_store_pair():
    unit = RenameUnit(ProcessorConfig())
    uops = uops_for("""
        li x2, 0x20000
        li x3, 0x30000
        sd x0, 0(x2)
        sd x0, 0(x3)
        sd x0, 8(x2)
        ecall
    """)
    li2, li3, head, catalyst_store, tail = uops[:5]
    unit.rename(li2)
    unit.rename(li3)
    ghost = make_ncsf_pair(head, tail)
    head.idiom = "store_pair"
    unit.rename(head)
    unit.rename(catalyst_store)
    assert unit.ncsf_storepair
    assert unit.rename_tail_ghost(ghost) == "storepair"


def test_load_pair_tolerates_catalyst_store():
    """Loads may fuse across stores (Section IV-B4)."""
    unit = RenameUnit(ProcessorConfig())
    uops = uops_for("""
        li x2, 0x20000
        ld x1, 0(x2)
        sd x1, 128(x2)
        ld x4, 8(x2)
        ecall
    """)
    li, head, store, tail = uops[:4]
    unit.rename(li)
    ghost = make_ncsf_pair(head, tail)
    unit.rename(head)
    unit.rename(store)
    assert unit.ncsf_storepair  # the bit is set...
    assert unit.rename_tail_ghost(ghost) == "validated"  # ...but loads ignore it


def test_nesting_limit_unfuses_third_pair():
    config = ProcessorConfig()
    assert config.ncsf_nesting == 2
    unit = RenameUnit(config)
    uops = uops_for("""
        li x2, 0x20000
        ld x1, 0(x2)
        ld x3, 16(x2)
        ld x4, 32(x2)
        ld x5, 8(x2)
        ld x6, 24(x2)
        ld x7, 40(x2)
        ecall
    """)
    li = uops[0]
    heads = uops[1:4]
    tails = uops[4:7]
    unit.rename(li)
    ghosts = [make_ncsf_pair(h, t) for h, t in zip(heads, tails)]
    unit.rename(heads[0])
    unit.rename(heads[1])
    unit.rename(heads[2])  # third nest: must behave as unfused
    assert heads[2].fusion is FusionKind.NONE
    assert unit.rename_tail_ghost(ghosts[0]) == "validated"
    assert unit.rename_tail_ghost(ghosts[1]) == "validated"


def test_nest_state_resets_when_last_tail_leaves():
    unit = RenameUnit(ProcessorConfig())
    uops = uops_for("""
        li x2, 0x20000
        ld x1, 0(x2)
        add x9, x9, x9
        ld x4, 8(x2)
        ecall
    """)
    li, head, catalyst, tail = uops[:4]
    unit.rename(li)
    ghost = make_ncsf_pair(head, tail)
    unit.rename(head)
    unit.rename(catalyst)
    assert unit.active_ncs == 1
    assert unit.inside_ncs  # catalyst dest got the Inside-NCS bit
    unit.rename_tail_ghost(ghost)
    assert unit.active_ncs == 0
    assert unit.max_active_ncs == 0
    assert not unit.inside_ncs
    assert not unit.deadlock_tags


def test_flush_restores_writer_mappings():
    unit = RenameUnit(ProcessorConfig())
    uops = uops_for("""
        add x5, x6, x7
        add x5, x5, x5
        ecall
    """)
    first, second = uops[:2]
    unit.rename(first)
    unit.rename(second)
    assert unit.writer_of(5) is second
    unit.flush_from(second.seq)
    assert unit.writer_of(5) is first
    unit.flush_from(first.seq)
    assert unit.writer_of(5) is None


def test_flush_below_retired_undo_log_raises():
    unit = RenameUnit(ProcessorConfig())
    uops = uops_for("""
        add x5, x6, x7
        add x5, x5, x5
        add x5, x5, x6
        ecall
    """)
    first, second, third = uops[:3]
    for uop in (first, second, third):
        unit.rename(uop)
    unit.retire_below(second.seq)
    assert [key for key, _reg, _prev in unit._writer_log] == [
        second.seq, third.seq]
    unit.flush_from(third.seq)  # at or above the boundary: restorable
    assert unit.writer_of(5) is second
    with pytest.raises(RuntimeError, match="below the retired"):
        unit.flush_from(first.seq)
