"""Tests for the cache hierarchy, TLB, and store-to-load forwarding."""

import pytest
from hypothesis import given, strategies as st

from repro.config import CacheConfig, ProcessorConfig
from repro.memory import (
    Cache,
    MemoryHierarchy,
    StoreForwardMatch,
    TLB,
    bitvector_for,
    match_access,
)


# ---- cache -------------------------------------------------------------------

def small_cache(sets=4, ways=2):
    return Cache(CacheConfig(size_bytes=sets * ways * 64, associativity=ways,
                             latency=5))


def test_cache_miss_then_hit():
    cache = small_cache()
    assert not cache.lookup(0x1000)
    assert cache.lookup(0x1000)
    assert cache.lookup(0x1008)  # same line


def test_cache_lru_eviction():
    cache = small_cache(sets=1, ways=2)
    cache.lookup(0 * 64)
    cache.lookup(1 * 64)
    cache.lookup(0 * 64)      # line 0 is now MRU
    cache.lookup(2 * 64)      # evicts line 1
    assert cache.probe(0 * 64)
    assert not cache.probe(1 * 64)
    assert cache.probe(2 * 64)


def test_cache_sets_isolated():
    cache = small_cache(sets=4, ways=1)
    cache.lookup(0 * 64)   # set 0
    cache.lookup(1 * 64)   # set 1
    assert cache.probe(0 * 64)
    assert cache.probe(1 * 64)


def test_cache_rejects_non_power_of_two_sets():
    with pytest.raises(ValueError):
        Cache(CacheConfig(size_bytes=3 * 64, associativity=1, latency=1))


def test_probe_does_not_install():
    cache = small_cache()
    assert not cache.probe(0x4000)
    assert not cache.probe(0x4000)
    assert not cache.lookup(0x4000)  # the probes installed nothing


# ---- TLB ----------------------------------------------------------------------

def test_tlb_hit_after_walk():
    tlb = TLB(entries=4, miss_penalty=30)
    assert tlb.access(0x1000) == 30
    assert tlb.access(0x1FFF) == 0      # same page
    assert tlb.access(0x2000) == 30     # next page


def test_tlb_lru():
    tlb = TLB(entries=2, miss_penalty=30)
    tlb.access(0x1000)
    tlb.access(0x2000)
    tlb.access(0x1000)   # page 1 MRU
    tlb.access(0x3000)   # evicts page 2
    assert tlb.access(0x1000) == 0
    assert tlb.access(0x2000) == 30


# ---- hierarchy ----------------------------------------------------------------

def hierarchy():
    return MemoryHierarchy(ProcessorConfig())


def test_hierarchy_latency_laddering():
    mem = hierarchy()
    l1, l2, l3 = mem.l1d.latency, mem.l2.latency, mem.l3.latency
    # Cold: a page walk, then every level misses down to DRAM.
    first = mem.access_latency(0x10000, 8)
    assert first == mem.dtlb.miss_penalty + l1 + l2 + l3 + mem.dram_latency
    # Same line again: an L1 hit with the TLB now warm.
    assert mem.access_latency(0x10000, 8) == l1
    # A new line in the same page misses the caches but not the TLB.
    assert mem.access_latency(0x10040, 8) == l1 + l2 + l3 + mem.dram_latency


def test_hierarchy_l2_hit_after_l1_eviction():
    # Two-set direct-mapped L1D: lines 0, 2 and 4 share set 0.
    config = ProcessorConfig(l1d=CacheConfig(2 * 64, 1, 5))
    mem = MemoryHierarchy(config)
    mem.access_latency(0x0, 8)
    mem.access_latency(0x40 * 2, 8)   # evicts line 0 from the L1D
    mem.access_latency(0x40 * 4, 8)
    assert mem.access_latency(0x0, 8) == mem.l1d.latency + mem.l2.latency


def test_line_crossing_accounted():
    mem = hierarchy()
    mem.access_latency(0x10000, 8)
    mem.access_latency(0x10040, 8)    # warm both lines
    # Exactly one line: no crossing penalty.
    assert mem.access_latency(0x10000, 64) == mem.l1d.latency
    latency = mem.access_latency(0x1003C, 8)  # crosses 0x10040
    # Both lines warm: latency = L1 + crossing penalty.
    assert latency == mem.l1d.latency + mem.config.line_crossing_penalty


def test_fused_span_single_line_one_access():
    mem = hierarchy()
    mem.access_latency(0x10000, 8)
    # A fused pair's span inside one line costs one L1 access.
    assert mem.access_latency(0x10000, 48) == mem.l1d.latency


# ---- store-to-load forwarding --------------------------------------------------

def test_bitvector_basic():
    assert bitvector_for(0x1000, 8) == 0xFF
    assert bitvector_for(0x1004, 4) == 0xF


def test_bitvector_fused_pair():
    mask = bitvector_for(0x1000, 8, second_addr=0x1010, second_size=8)
    assert mask == (0xFF | (0xFF << 16))


def test_bitvector_fused_pair_reversed_addresses():
    mask = bitvector_for(0x1010, 8, second_addr=0x1000, second_size=8)
    assert mask == (0xFF << 16) | 0xFF


def test_bitvector_rejects_window_overflow():
    with pytest.raises(ValueError):
        bitvector_for(0x1000, 8, second_addr=0x1080, second_size=8)


def test_full_forward_same_address():
    store = bitvector_for(0x1000, 8)
    load = bitvector_for(0x1000, 8)
    assert match_access(0x1000, store, 0x1000, load) is StoreForwardMatch.FULL


def test_full_forward_contained():
    store = bitvector_for(0x1000, 8)
    load = bitvector_for(0x1004, 4)
    assert match_access(0x1000, store, 0x1004, load) is StoreForwardMatch.FULL


def test_partial_overlap():
    store = bitvector_for(0x1000, 8)
    load = bitvector_for(0x1004, 8)
    assert match_access(0x1000, store, 0x1004, load) is StoreForwardMatch.PARTIAL


def test_no_overlap():
    store = bitvector_for(0x1000, 8)
    load = bitvector_for(0x1008, 8)
    assert match_access(0x1000, store, 0x1008, load) is StoreForwardMatch.NONE


def test_load_below_store_base_partial():
    store = bitvector_for(0x1008, 8)
    load = bitvector_for(0x1004, 8)  # covers 4 bytes below the store
    assert match_access(0x1008, store, 0x1004, load) is StoreForwardMatch.PARTIAL


def test_load_entirely_below_store():
    store = bitvector_for(0x1008, 8)
    load = bitvector_for(0x1000, 8)
    assert match_access(0x1008, store, 0x1000, load) is StoreForwardMatch.NONE


def test_fused_store_forwards_to_simple_load():
    store = bitvector_for(0x1000, 8, second_addr=0x1010, second_size=8)
    load = bitvector_for(0x1010, 8)
    assert match_access(0x1000, store, 0x1010, load) is StoreForwardMatch.FULL
    gap_load = bitvector_for(0x1008, 8)
    assert match_access(0x1000, store, 0x1008, gap_load) is StoreForwardMatch.NONE


@given(st.integers(0, 56), st.sampled_from([1, 2, 4, 8]),
       st.integers(0, 56), st.sampled_from([1, 2, 4, 8]))
def test_match_classification_property(store_off, store_size, load_off, load_size):
    """match_access agrees with a direct byte-set computation."""
    base = 0x4000
    store_mask = bitvector_for(base + store_off, store_size)
    load_mask = bitvector_for(base + load_off, load_size)
    result = match_access(base + store_off, store_mask,
                          base + load_off, load_mask)
    store_bytes = set(range(store_off, store_off + store_size))
    load_bytes = set(range(load_off, load_off + load_size))
    if not store_bytes & load_bytes:
        assert result is StoreForwardMatch.NONE
    elif load_bytes <= store_bytes:
        assert result is StoreForwardMatch.FULL
    else:
        assert result is StoreForwardMatch.PARTIAL


def test_instruction_fetch_line():
    mem = hierarchy()
    cold = mem.fetch_line(0x10000)
    assert cold > 0                        # cold: L2/L3/DRAM fill
    assert mem.fetch_line(0x10000) == 0    # warm L1I hit
    assert mem.fetch_line(0x10020) == 0    # same line
    # The L2 is unified: a line brought in on the data side serves a
    # later instruction fetch at L2 latency.
    mem.access_latency(0x10040, 8)
    warmish = mem.fetch_line(0x10040)
    assert 0 < warmish < cold
