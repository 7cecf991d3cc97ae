"""A small fully-associative DTLB with LRU replacement."""

from __future__ import annotations

from typing import List


class TLB:
    """Tracks resident page translations; misses cost a page walk."""

    def __init__(self, entries: int = 64, page_bytes: int = 4096,
                 miss_penalty: int = 30):
        self.capacity = entries
        self.page_shift = page_bytes.bit_length() - 1
        self.miss_penalty = miss_penalty
        self._pages: List[int] = []  # MRU order

    def access(self, addr: int) -> int:
        """Translate; returns the added latency (0 on hit)."""
        page = addr >> self.page_shift
        pages = self._pages
        if page in pages:
            if pages[0] != page:
                pages.remove(page)
                pages.insert(0, page)
            return 0
        pages.insert(0, page)
        if len(pages) > self.capacity:
            pages.pop()
        return self.miss_penalty
