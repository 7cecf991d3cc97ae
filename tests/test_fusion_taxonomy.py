"""Tests for the fusion taxonomy (Section II-A definitions)."""

import inspect
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.fusion.taxonomy import (
    BaseRegKind,
    Contiguity,
    FusedPair,
    classify_base,
    classify_contiguity_at,
    make_memory_pair,
    span,
)
from repro.isa import assemble, run_program


def memory_uops(source):
    trace = run_program(assemble(source))
    return [u for u in trace if u.is_memory]


def pair_at(base_a, off_a, size_a, off_b, size_b, base_b=None):
    """Build two real load µ-ops at controlled addresses.

    With ``base_b`` set, the second load uses a distinct base register
    (DBR); otherwise both loads share x1 (SBR).
    """
    if base_b is None:
        source = """
            li x1, %d
            %s x3, %d(x1)
            %s x4, %d(x1)
            ecall
        """ % (base_a, _op(size_a), off_a, _op(size_b), off_b)
    else:
        source = """
            li x1, %d
            li x2, %d
            %s x3, %d(x1)
            %s x4, %d(x2)
            ecall
        """ % (base_a, base_b, _op(size_a), off_a, _op(size_b), off_b)
    return memory_uops(source)


def _op(size):
    return {1: "lbu", 2: "lhu", 4: "lwu", 8: "ld"}[size]


def test_span_basic():
    assert span(0, 8, 8, 8) == 16
    assert span(8, 8, 0, 8) == 16
    assert span(0, 8, 0, 8) == 8
    assert span(0, 4, 60, 4) == 64


def test_contiguous_classification():
    head, tail = pair_at(0x20000, 0, 8, 8, 8)
    assert make_memory_pair(head, tail).contiguity is Contiguity.CONTIGUOUS


def test_contiguous_reversed_order():
    # head accesses the higher address: still contiguous.
    head, tail = pair_at(0x20000, 8, 8, 0, 8)
    assert make_memory_pair(head, tail).contiguity is Contiguity.CONTIGUOUS


def test_overlapping_classification():
    head, tail = pair_at(0x20000, 0, 8, 4, 8)
    assert make_memory_pair(head, tail).contiguity is Contiguity.OVERLAPPING


def test_identical_addresses_overlap():
    head, tail = pair_at(0x20000, 0, 8, 0, 8)
    assert make_memory_pair(head, tail).contiguity is Contiguity.OVERLAPPING


def test_same_line_with_gap():
    head, tail = pair_at(0x20000, 0, 8, 48, 8)
    assert make_memory_pair(head, tail).contiguity is Contiguity.SAME_LINE


def test_next_line_crosser():
    # 8 bytes at line end + 8 bytes at next line start, with a gap
    # within a 64B span: crosses the frame boundary.
    head, tail = pair_at(0x20000, 56, 8, 72, 8)
    assert make_memory_pair(head, tail).contiguity is Contiguity.NEXT_LINE


def test_too_far():
    head, tail = pair_at(0x20000, 0, 8, 128, 8)
    assert make_memory_pair(head, tail).contiguity is Contiguity.TOO_FAR
    assert not make_memory_pair(head, tail).contiguity.fuseable


def test_span_exactly_at_granularity_is_fuseable():
    head, tail = pair_at(0x20000, 0, 8, 56, 8)  # span == 64
    assert make_memory_pair(head, tail, granularity=64).contiguity.fuseable
    head, tail = pair_at(0x20000, 0, 8, 57, 8)  # span == 65
    assert not make_memory_pair(head, tail,
                                granularity=64).contiguity.fuseable


def test_base_register_classification():
    head, tail = pair_at(0x20000, 0, 8, 8, 8)
    assert classify_base(head, tail) is BaseRegKind.SBR
    # Same addresses via different base registers.
    head, tail = pair_at(0x20000, 0, 8, 8, 8, base_b=0x20000)
    assert classify_base(head, tail) is BaseRegKind.DBR


def test_fused_pair_distance_and_catalyst():
    pair = FusedPair(head_seq=10, tail_seq=11, idiom="load_pair", is_memory=True)
    assert pair.consecutive
    assert pair.catalyst_size == 0
    pair = FusedPair(head_seq=10, tail_seq=21, idiom="load_pair", is_memory=True)
    assert not pair.consecutive
    assert pair.distance == 11
    assert pair.catalyst_size == 10


def test_fused_pair_ordering_enforced():
    with pytest.raises(ValueError):
        FusedPair(head_seq=5, tail_seq=5, idiom="load_pair", is_memory=True)
    with pytest.raises(ValueError):
        FusedPair(head_seq=6, tail_seq=5, idiom="load_pair", is_memory=True)


def test_make_memory_pair_classifies():
    head, tail = pair_at(0x20000, 0, 8, 8, 4)
    pair = make_memory_pair(head, tail)
    assert pair.idiom == "load_pair"
    assert pair.contiguity is Contiguity.CONTIGUOUS
    assert pair.base_kind is BaseRegKind.SBR
    assert not pair.symmetric  # 8B + 4B


@given(st.integers(0, 1 << 40), st.sampled_from([1, 2, 4, 8]),
       st.integers(-64, 64), st.sampled_from([1, 2, 4, 8]))
def test_span_symmetry_property(addr, size_a, delta, size_b):
    """span() is symmetric in its two accesses."""
    other = addr + delta
    if other < 0:
        other = 0
    assert span(addr, size_a, other, size_b) == span(other, size_b, addr, size_a)


@given(st.integers(0, 1 << 40), st.sampled_from([1, 2, 4, 8]),
       st.integers(0, 70), st.sampled_from([1, 2, 4, 8]))
def test_classification_consistent_with_span(base, size_a, delta, size_b):
    """TOO_FAR exactly when the span exceeds the granularity."""

    category = classify_contiguity_at(base, size_a, base + delta, size_b,
                                      granularity=64)
    exceeds = span(base, size_a, base + delta, size_b) > 64
    assert (category is Contiguity.TOO_FAR) == exceeds


def test_fused_pair_is_an_immutable_value():
    pair = FusedPair(3, 7, "load_pair", True, Contiguity.SAME_LINE,
                     BaseRegKind.DBR, False)
    same = FusedPair(head_seq=3, tail_seq=7, idiom="load_pair",
                     is_memory=True, contiguity=Contiguity.SAME_LINE,
                     base_kind=BaseRegKind.DBR, symmetric=False)
    assert pair == same and hash(pair) == hash(same)
    assert pair != same._replace(symmetric=True)
    assert pickle.loads(pickle.dumps(pair)) == pair
    assert not hasattr(pair, "__dict__")
    with pytest.raises(AttributeError):
        pair.tail_seq = 8
    other = FusedPair(3, 4, "lui_addi", False)
    assert (other.contiguity, other.base_kind, other.symmetric) \
        == (None, None, True)
    with pytest.raises(ValueError):
        pair._replace(tail_seq=3)
    with pytest.raises(ValueError):
        FusedPair._make((7, 3, "load_pair", True))


def test_fused_pair_constructor_lists_the_fields_in_order():
    """FusedPair.__new__ builds its tuple positionally, so its
    parameters must be the record's fields, in order, with their
    defaults."""
    params = list(inspect.signature(FusedPair.__new__).parameters.values())
    assert [p.name for p in params[1:]] == list(FusedPair._fields)
    assert {p.name: p.default for p in params[1:]
            if p.default is not p.empty} == FusedPair._field_defaults
