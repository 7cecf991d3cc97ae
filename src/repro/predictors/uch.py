"""Unfused Committed History (paper Section IV-A1).

The UCH lives at Commit.  It keeps the cache lines accessed by the last
committed *unfused* memory µ-ops.  When a retiring µ-op's line matches
an entry, a fuseable pair has been discovered: the matching entry is
the would-be head nucleus and the retiring µ-op the tail nucleus.  The
match (tail PC, distance in µ-ops) trains the Fusion Predictor; the
matched entry is invalidated since a µ-op fuses at most once.

Entry layout per the paper: valid bit + 32-bit partial line tag +
7-bit commit number = 5 bytes.  Loads get a 6-entry fully-associative
history with LRU-by-commit-number; stores a single entry (stores cannot
fuse across stores).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

_CN_BITS = 7
_CN_MASK = (1 << _CN_BITS) - 1
_TAG_BITS = 32


@dataclass
class UCHMatch:
    """A discovered fuseable pair: train FP[tail_pc] with ``distance``.

    ``head_seq`` is the head's trace sequence number when the caller
    supplied one to :meth:`UnfusedCommittedHistory.observe` (the
    commit log uses it to audit discoveries); ``-1`` otherwise.  It is
    bookkeeping only — no hardware structure stores it.
    """

    head_pc: int
    distance: int
    head_seq: int = -1


class _Entry:
    __slots__ = ("valid", "tag", "cn", "pc", "seq")

    def __init__(self):
        self.valid = False
        self.tag = 0
        self.cn = 0
        self.pc = 0
        self.seq = -1


class UnfusedCommittedHistory:
    """One history (the paper instantiates one for loads, one for stores)."""

    def __init__(self, entries: int = 6, line_bytes: int = 64,
                 max_distance: int = 64):
        self.entries = [_Entry() for _ in range(entries)]
        self.line_shift = line_bytes.bit_length() - 1
        self.max_distance = max_distance

    def _tag_of(self, addr: int) -> int:
        return (addr >> self.line_shift) & ((1 << _TAG_BITS) - 1)

    def observe(self, pc: int, addr: int, commit_number: int,
                seq: int = -1) -> Optional[UCHMatch]:
        """Present one retiring unfused memory µ-op to the history.

        Returns a :class:`UCHMatch` when a fuseable pair is found (and
        invalidates the matching entry), otherwise inserts the µ-op and
        returns ``None``.  ``seq`` is optional audit provenance,
        carried through to :attr:`UCHMatch.head_seq`.
        """
        tag = self._tag_of(addr)
        cn = commit_number & _CN_MASK
        for entry in self.entries:
            if entry.valid and entry.tag == tag:
                distance = (cn - entry.cn) & _CN_MASK
                entry.valid = False
                if 0 < distance <= self.max_distance:
                    return UCHMatch(head_pc=entry.pc, distance=distance,
                                    head_seq=entry.seq)
                # Stale (wrapped) entry: fall through and re-insert.
                break
        self._insert(pc, tag, cn, seq)
        return None

    def _insert(self, pc: int, tag: int, cn: int, seq: int = -1) -> None:
        victim = None
        for entry in self.entries:
            if not entry.valid:
                victim = entry
                break
        if victim is None:
            # LRU: the entry with the oldest commit number.  Commit
            # numbers wrap at 128; distance-from-now picks the oldest.
            victim = max(self.entries, key=lambda e: (cn - e.cn) & _CN_MASK)
        victim.valid = True
        victim.tag = tag
        victim.cn = cn
        victim.pc = pc
        victim.seq = seq
