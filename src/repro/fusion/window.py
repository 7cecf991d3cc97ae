"""Consecutive fusion within a decode-group window (Section II-B).

The substitution of µ-ops by their fused equivalent happens before
Rename, inside a *fusion window* — here a decode group.  Two
back-to-back µ-ops that land in different windows cannot fuse, unless
the machine adds a queue between Decode and Rename (Helios's Allocation
Queue plays that role for its predictive scheme).
"""

from __future__ import annotations

from typing import Optional

from repro.config import FusionMode
from repro.fusion.idioms import match_idiom, match_memory_pair
from repro.isa.trace import MicroOp


class ConsecutiveFusionWindow:
    """Which adjacent µ-op pairs a decode group may fuse.

    Parameters mirror the paper's configurations:

    * ``fuse_memory`` — enable load pair / store pair idioms (of any
      access sizes, as in CSF-SBR and everything built on it).
    * ``fuse_others`` — enable the non-memory Table I idioms.

    The greedy left-to-right pairing itself runs in the pipeline's
    Decode stage (``PipelineCore._decode``).
    """

    def __init__(self, fuse_memory: bool = True, fuse_others: bool = True):
        self.fuse_memory = fuse_memory
        self.fuse_others = fuse_others
        # match_kind memo, keyed by static Instruction identity.  The
        # window lives on one core, which pins its trace (and therefore
        # every Instruction that can reach here) for the cache lifetime,
        # so id() keys cannot be recycled under us.
        self._kind_cache: dict = {}

    @classmethod
    def for_mode(cls, mode: FusionMode) -> Optional["ConsecutiveFusionWindow"]:
        """The consecutive-fusion window used by a paper configuration.

        Helios and OracleFusion build their non-consecutive machinery on
        top of the full consecutive window.  ``NoFusion`` has none.
        """
        if mode is FusionMode.NONE:
            return None
        return cls(
            fuse_memory=mode.fuses_memory_pairs,
            fuse_others=mode.fuses_other_idioms,
        )

    def match_kind(self, head: MicroOp, tail: MicroOp):
        """``(idiom name, is_memory)`` for a fuseable pair, else None.

        The verdict depends only on the *static* instruction pair,
        which repeats across the dynamic trace — so the pipeline's
        per-decode-group probe is served from a memo.
        """
        key = (id(head.inst), id(tail.inst))
        cache = self._kind_cache
        try:
            return cache[key]
        except KeyError:
            pass
        result = None
        if self.fuse_memory and head.is_memory and tail.is_memory:
            kind = match_memory_pair(head.inst, tail.inst)
            if kind is not None:
                result = (kind, True)
        if result is None and self.fuse_others:
            idiom = match_idiom(head.inst, tail.inst)
            if idiom is not None:
                result = (idiom.name, False)
        cache[key] = result
        return result
