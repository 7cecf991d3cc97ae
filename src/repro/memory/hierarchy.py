"""Three-level cache hierarchy with line-crossing latency.

The data cache circuit reads a full access-granularity region (64 B)
per access — this is the property Section III-C leans on to fuse
non-contiguous pairs: any set of bytes within one region costs one
access, while a fused pair spanning a region boundary performs two
serialized accesses with a small extra penalty (one cycle in modern
cores, Section II-B).
"""

from __future__ import annotations

from repro.config import ProcessorConfig
from repro.memory.cache import Cache
from repro.memory.tlb import TLB


class MemoryHierarchy:
    """L1D + L2 + L3 + DRAM, fronted by a DTLB."""

    def __init__(self, config: ProcessorConfig):
        self.config = config
        self.l1i = Cache(config.l1i, "L1I")
        self.l1d = Cache(config.l1d, "L1D")
        self.l2 = Cache(config.l2, "L2")
        self.l3 = Cache(config.l3, "L3")
        self.dtlb = TLB()
        self.dram_latency = config.dram_latency
        self.line_bytes = config.l1d.line_bytes

    def _line_latency(self, addr: int) -> int:
        """Latency of one line probe through L1D, L2, L3 and DRAM."""
        if self.l1d.lookup(addr):
            return self.l1d.latency
        if self.l2.lookup(addr):
            return self.l1d.latency + self.l2.latency
        if self.l3.lookup(addr):
            return self.l1d.latency + self.l2.latency + self.l3.latency
        return (self.l1d.latency + self.l2.latency + self.l3.latency
                + self.dram_latency)

    def access_latency(self, addr: int, size: int) -> int:
        """Latency of one load/store access of ``size`` bytes at ``addr``.

        ``size`` may cover a fused pair's whole span.  Accesses that
        cross a line boundary perform two serialized line accesses plus
        the crossing penalty.  This is the only access path: the
        sampling warmer calls it too and discards the latency, so
        warmed and timed state evolve alike.
        """
        tlb_penalty = self.dtlb.access(addr)
        line_bytes = self.line_bytes
        first_line = addr // line_bytes
        last_line = (addr + max(size, 1) - 1) // line_bytes
        latency = self._line_latency(addr)
        if last_line != first_line:
            second_latency = self._line_latency(last_line * line_bytes)
            if second_latency > latency:
                latency = second_latency
            latency += self.config.line_crossing_penalty
        return latency + tlb_penalty

    def fetch_line(self, pc: int) -> int:
        """Instruction fetch of the line containing ``pc``.

        Returns the added stall (0 on an L1I hit; the L2/L3/DRAM fill
        latency otherwise).  Instruction lines share the unified L2/L3.
        """
        if self.l1i.lookup(pc):
            return 0
        if self.l2.lookup(pc):
            return self.l2.latency
        if self.l3.lookup(pc):
            return self.l2.latency + self.l3.latency
        return self.l2.latency + self.l3.latency + self.dram_latency
