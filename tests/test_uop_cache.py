"""Tests for the µ-op cache (cached consecutive-fusion groupings)."""

import dataclasses

from repro import FusionMode, ProcessorConfig, simulate
from repro.isa import assemble, run_program
from repro.pipeline.core import PipelineCore
from repro.pipeline.uop_cache import CachedSlot, UopCache


def test_lookup_miss_then_hit():
    cache = UopCache()
    slots = (CachedSlot(pcs=(0x100,)), CachedSlot(pcs=(0x104, 0x108),
                                                  idiom="load_pair",
                                                  is_memory_pair=True))
    assert cache.lookup(0x100, [0x100, 0x104, 0x108]) is None
    cache.fill(0x100, slots)
    group = cache.lookup(0x100, [0x100, 0x104, 0x108])
    assert group == slots


def test_lookup_validates_slot_pcs():
    """Control flow diverging inside the group must miss."""
    cache = UopCache()
    cache.fill(0x100, (CachedSlot(pcs=(0x100,)),
                       CachedSlot(pcs=(0x104, 0x108), idiom="load_pair")))
    # A branch inside the group went the other way this time.
    assert cache.lookup(0x100, [0x100, 0x104, 0x200]) is None
    # Entry at the tail nucleus's PC is a different key: miss.
    assert cache.lookup(0x108, [0x108, 0x10C]) is None


def test_lookup_requires_complete_group_in_buffer():
    cache = UopCache()
    cache.fill(0x100, (CachedSlot(pcs=(0x100, 0x104), idiom="load_pair"),))
    assert cache.lookup(0x100, [0x100]) is None  # tail not fetched yet


def _fused_group(start):
    return (CachedSlot(pcs=(start, start + 4), idiom="load_pair",
                       is_memory_pair=True),)


def test_lru_eviction():
    cache = UopCache(capacity_groups=2)
    cache.fill(0x100, _fused_group(0x100))
    cache.fill(0x200, _fused_group(0x200))
    cache.lookup(0x100, [0x100, 0x104])   # 0x100 becomes MRU
    cache.fill(0x300, _fused_group(0x300))  # evicts 0x200
    assert cache.lookup(0x200, [0x200, 0x204]) is None
    assert cache.lookup(0x100, [0x100, 0x104]) is not None


def test_fill_ignores_fusion_free_groups():
    """The cache preserves fusions; fusion-free groupings are not
    frozen (the decoder may do better next time)."""
    cache = UopCache()
    cache.fill(0x100, (CachedSlot(pcs=(0x100,)), CachedSlot(pcs=(0x104,))))
    assert cache.lookup(0x100, [0x100, 0x104]) is None


# A loop body of 13 instructions: its consecutive pairs straddle the
# 8-wide decode groups on most iterations, so the plain window loses
# them while the µ-op cache preserves the grouping once cached.
STRADDLE = """
    li a0, 0x20000
    li a1, 400
    li s8, 0x3fff
    li s10, 0x20000
loop:
    ld a2, 0(a0)
    ld a3, 8(a0)
    add s1, s1, a2
    xor s2, s2, a3
    sd s1, 128(a0)
    sd s2, 136(a0)
    add t0, s1, s2
    and t1, t0, s8
    or t2, t1, s2
    addi a0, a0, 16
    and a0, a0, s8
    add a0, a0, s10
    addi a1, a1, -1
    bnez a1, loop
    ecall
"""


def test_uop_cache_preserves_fusion_groupings():
    trace = run_program(assemble(STRADDLE))
    plain = simulate(trace, ProcessorConfig().with_mode(FusionMode.CSF_SBR))
    cached_config = dataclasses.replace(
        ProcessorConfig(), uop_cache_enabled=True).with_mode(
        FusionMode.CSF_SBR)
    cached = simulate(trace, cached_config)
    assert cached.stats.csf_memory_pairs >= plain.stats.csf_memory_pairs
    assert cached.instructions == plain.instructions == len(trace)


def test_uop_cache_hit_rate_grows_on_loops():
    trace = run_program(assemble(STRADDLE))
    config = dataclasses.replace(
        ProcessorConfig(), uop_cache_enabled=True).with_mode(
        FusionMode.CSF_SBR)
    core = PipelineCore(trace, config)
    replays = []
    replay = core._replay_cached_group

    def counted(group):
        replays.append(group)
        replay(group)

    core._replay_cached_group = counted
    core.run()
    assert len(replays) > 100


def test_uop_cache_with_helios_still_correct():
    trace = run_program(assemble(STRADDLE))
    config = dataclasses.replace(
        ProcessorConfig(), uop_cache_enabled=True).with_mode(
        FusionMode.HELIOS)
    result = simulate(trace, config)
    assert result.instructions == len(trace)
    assert result.fp_accuracy_pct > 95.0
