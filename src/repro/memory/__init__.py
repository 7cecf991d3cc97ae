"""Memory system substrate: caches, DTLB, and store-to-load forwarding."""

from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.stlf import StoreForwardMatch, bitvector_for, match_access
from repro.memory.tlb import TLB

__all__ = [
    "Cache",
    "MemoryHierarchy",
    "StoreForwardMatch",
    "TLB",
    "bitvector_for",
    "match_access",
]
