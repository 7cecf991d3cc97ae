"""Set-associative cache model with LRU replacement.

Only tags are modeled — data values live in the functional interpreter.
Each set keeps its tags in MRU order, so a hit is a list scan plus a
move-to-front and a miss is an insert-at-front with LRU pop.
"""

from __future__ import annotations

from typing import List

from repro.config import CacheConfig


class Cache:
    """One cache level."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        if config.num_sets & (config.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self.config = config
        self.name = name
        self.latency = config.latency
        self._set_mask = config.num_sets - 1
        self._line_shift = config.line_bytes.bit_length() - 1
        self._sets: List[List[int]] = [[] for _ in range(config.num_sets)]

    def lookup(self, addr: int) -> bool:
        """Access one line; returns hit and updates recency/contents."""
        line = addr >> self._line_shift
        ways = self._sets[line & self._set_mask]
        if line in ways:
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            return True
        ways.insert(0, line)
        if len(ways) > self.config.associativity:
            ways.pop()
        return False

    def probe(self, addr: int) -> bool:
        """Check residency without updating recency or contents."""
        line = addr >> self._line_shift
        return line in self._sets[line & self._set_mask]
