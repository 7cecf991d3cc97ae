"""A µ-op cache that preserves consecutive-fusion groupings.

Section IV-A of the paper discusses integrating the fusion predictor
with a µ-op cache and notes that "directly caching consecutively fused
µ-ops in µ-op cache entries is a possibility, as long as consecutively
fused µ-ops contain enough information to be unfused at the output of
the cache if a branch jumps to the tail-nucleus", while NCSF'd µ-ops
are too control-flow-dependent to cache.

This model captures exactly that benefit: a decode group's *fusion
grouping* is remembered, so consecutive pairs that the one-cycle decode
window would lose to group misalignment on later encounters are
delivered pre-fused from the cache.  Entry into the middle of a cached
group (a branch to the tail nucleus) misses by construction, because
lookups are keyed by the group's start PC and validated slot by slot.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


@dataclass(frozen=True)
class CachedSlot:
    """One µ-op slot of a cached decode group.

    ``pcs`` are the architectural PCs the slot consumes (two for a
    consecutively fused pair) — they double as the validity check when
    the slot is replayed.
    """

    pcs: Tuple[int, ...]
    idiom: Optional[str] = None       # set for fused slots
    is_memory_pair: bool = False

    @property
    def fused(self) -> bool:
        return len(self.pcs) == 2


class UopCache:
    """LRU cache of decode-group fusion groupings, keyed by start PC."""

    def __init__(self, capacity_groups: int = 512):
        self.capacity = capacity_groups
        self._groups: "OrderedDict[int, Tuple[CachedSlot, ...]]" = OrderedDict()

    def lookup(self, start_pc: int,
               upcoming_pcs: Sequence[int]) -> Optional[Tuple[CachedSlot, ...]]:
        """Return the cached grouping if it matches the upcoming µ-ops.

        Every slot's PCs must match the incoming dynamic stream — a
        control-flow change inside the group (or entry at a tail
        nucleus) fails validation and falls back to the decoder.
        """
        group = self._groups.get(start_pc)
        if group is None:
            return None
        position = 0
        for slot in group:
            for pc in slot.pcs:
                if position >= len(upcoming_pcs) \
                        or upcoming_pcs[position] != pc:
                    return None
                position += 1
        self._groups.move_to_end(start_pc)
        return group

    def fill(self, start_pc: int, slots: Sequence[CachedSlot]) -> None:
        """Record how a decode group was formed.

        Only groups that actually contain a fused slot are cached — the
        cache exists to *preserve fusions*; freezing a fusion-free
        grouping would just stop the decoder from doing better later.
        """
        if not slots or not any(slot.fused for slot in slots):
            return
        self._groups[start_pc] = tuple(slots)
        self._groups.move_to_end(start_pc)
        while len(self._groups) > self.capacity:
            self._groups.popitem(last=False)
