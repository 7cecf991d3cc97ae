"""Tests for the Table I idiom matchers."""

from repro.fusion.idioms import (
    IDIOMS,
    MEMORY_IDIOMS,
    OTHER_IDIOMS,
    match_idiom,
    match_memory_pair,
)
from repro.isa import assemble


def insts(source):
    return list(assemble(source).instructions)


def test_idiom_inventory():
    names = {idiom.name for idiom in IDIOMS}
    assert {"load_pair", "store_pair"} <= names
    assert all(idiom.is_memory for idiom in MEMORY_IDIOMS)
    assert not any(idiom.is_memory for idiom in OTHER_IDIOMS)
    assert len(IDIOMS) == len(names)  # unique names


def test_lui_addi_matches():
    head, tail = insts("lui x5, 0x12345\naddiw x5, x5, 0x67")
    idiom = match_idiom(head, tail)
    assert idiom is not None and idiom.name == "lui_addi"


def test_lui_addi_requires_same_rd():
    head, tail = insts("lui x5, 0x12345\naddi x6, x5, 0x67")
    assert match_idiom(head, tail) is None


def test_auipc_addi_matches():
    head, tail = insts("auipc x5, 0x1\naddi x5, x5, 16")
    idiom = match_idiom(head, tail)
    assert idiom is not None and idiom.name == "auipc_addi"


def test_slli_add_matches_index_shifts():
    for shift in (1, 2, 3):
        head, tail = insts("slli x5, x6, %d\nadd x5, x5, x7" % shift)
        idiom = match_idiom(head, tail)
        assert idiom is not None and idiom.name == "slli_add"


def test_slli_add_rejects_large_shift():
    head, tail = insts("slli x5, x6, 4\nadd x5, x5, x7")
    assert match_idiom(head, tail) is None


def test_slli_add_commutative_source():
    head, tail = insts("slli x5, x6, 3\nadd x5, x7, x5")
    idiom = match_idiom(head, tail)
    assert idiom is not None and idiom.name == "slli_add"


def test_slli_srli_zero_extend():
    head, tail = insts("slli x5, x6, 32\nsrli x5, x5, 32")
    idiom = match_idiom(head, tail)
    assert idiom is not None and idiom.name == "slli_srli"


def test_load_global():
    head, tail = insts("lui x5, 0x20\nld x5, 8(x5)")
    idiom = match_idiom(head, tail)
    assert idiom is not None and idiom.name == "load_global"


def test_load_global_requires_rd_reuse():
    head, tail = insts("lui x5, 0x20\nld x6, 8(x5)")
    assert match_idiom(head, tail) is None


def test_mulh_mul_pair():
    head, tail = insts("mulh x5, x6, x7\nmul x8, x6, x7")
    idiom = match_idiom(head, tail)
    assert idiom is not None and idiom.name == "mulh_mul"


def test_mulh_mul_rejects_dependent():
    # head writes one of the shared sources: the tail would consume it.
    head, tail = insts("mulh x6, x6, x7\nmul x8, x6, x7")
    assert match_idiom(head, tail) is None


def test_div_rem_pair():
    head, tail = insts("div x5, x6, x7\nrem x8, x6, x7")
    idiom = match_idiom(head, tail)
    assert idiom is not None and idiom.name == "div_rem"


def test_div_rem_signedness_must_match():
    head, tail = insts("div x5, x6, x7\nremu x8, x6, x7")
    assert match_idiom(head, tail) is None


# ---- memory pairing idioms -------------------------------------------------

def test_load_pair_contiguous_same_base():
    head, tail = insts("ld x4, 0(x1)\nld x5, 8(x1)")
    assert match_memory_pair(head, tail) == "load_pair"


def test_load_pair_descending_offsets():
    head, tail = insts("ld x4, 8(x1)\nld x5, 0(x1)")
    assert match_memory_pair(head, tail) == "load_pair"


def test_load_pair_rejects_gap():
    head, tail = insts("ld x4, 0(x1)\nld x5, 16(x1)")
    assert match_memory_pair(head, tail) is None


def test_load_pair_rejects_different_base():
    head, tail = insts("ld x4, 0(x1)\nld x5, 8(x2)")
    assert match_memory_pair(head, tail) is None


def test_load_pair_rejects_dependent_load():
    # Section II-B: ld x1, 0(x1); ld x5, 0(x1) must not fuse.
    head, tail = insts("ld x1, 0(x1)\nld x5, 8(x1)")
    assert match_memory_pair(head, tail) is None


def test_load_pair_rejects_same_destination():
    head, tail = insts("ld x4, 0(x1)\nld x4, 8(x1)")
    assert match_memory_pair(head, tail) is None


def test_load_pair_asymmetric_sizes():
    head, tail = insts("ld x4, 0(x1)\nlw x5, 8(x1)")
    assert match_memory_pair(head, tail) == "load_pair"


def test_asymmetric_adjacency_uses_head_size():
    # 4-byte head at 0, 8-byte tail at 4: adjacent.
    head, tail = insts("lw x4, 0(x1)\nld x5, 4(x1)")
    assert match_memory_pair(head, tail) == "load_pair"
    # gap of 4 bytes: not statically contiguous.
    head, tail = insts("lw x4, 0(x1)\nld x5, 8(x1)")
    assert match_memory_pair(head, tail) is None


def test_store_pair_contiguous():
    head, tail = insts("sd x4, 0(x1)\nsd x5, 8(x1)")
    assert match_memory_pair(head, tail) == "store_pair"


def test_store_pair_rejects_different_base():
    head, tail = insts("sd x4, 0(x1)\nsd x5, 8(x2)")
    assert match_memory_pair(head, tail) is None


def test_mixed_load_store_never_pairs():
    head, tail = insts("ld x4, 0(x1)\nsd x5, 8(x1)")
    assert match_memory_pair(head, tail) is None


def test_fp_load_pair():
    head, tail = insts("fld f4, 0(x1)\nfld f5, 8(x1)")
    assert match_memory_pair(head, tail) == "load_pair"
