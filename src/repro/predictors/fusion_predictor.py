"""The tournament Fusion Predictor (paper Section IV-A2).

Given a µ-op PC at Decode, the FP predicts the distance, in µ-ops, to
the head nucleus this µ-op should fuse with.  It is a tournament of:

* a "local" PC-indexed table — 512 sets, 4 ways;
* a "global" gshare-like table indexed by PC XOR the global branch
  direction history — 512 sets, 4 ways;
* a 2048-entry direct-mapped, untagged selection table of 2-bit
  counters.

Each data entry is 17 bits: an 8-bit tag, a 6-bit distance, a 2-bit
saturating confidence counter, and a pseudo-LRU bit.  Fusion is
attempted only when the supplying entry's confidence is saturated.
Training comes from the UCH at commit; confidence is reset on a fusion
misprediction discovered at execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


class _Entry:
    __slots__ = ("valid", "tag", "distance", "confidence", "lru_tick")

    def __init__(self):
        self.valid = False
        self.tag = 0
        self.distance = 0
        self.confidence = 0
        self.lru_tick = 0


class _Table:
    """A set-associative FP side (local or gshare)."""

    def __init__(self, sets: int, ways: int, confidence_bump=None):
        self._entries: List[List[_Entry]] = [
            [_Entry() for _ in range(ways)] for _ in range(sets)]
        self._tick = 0
        # Hook for probabilistic counter updates (Riley & Zilles [20]):
        # returns False to skip a confidence increment.
        self._confidence_bump = confidence_bump or (lambda: True)

    def _locate(self, index: int, tag: int) -> Optional[_Entry]:
        for entry in self._entries[index]:
            if entry.valid and entry.tag == tag:
                return entry
        return None

    def lookup(self, index: int, tag: int) -> Optional[_Entry]:
        # _locate, inlined: two lookups per FP prediction make the
        # extra call visible in pipeline profiles.
        for entry in self._entries[index]:
            if entry.valid and entry.tag == tag:
                self._tick += 1
                entry.lru_tick = self._tick
                return entry
        return None

    def train(self, index: int, tag: int, distance: int) -> None:
        """UCH training: reinforce a matching distance, else (re)allocate."""
        self._tick += 1
        entry = self._locate(index, tag)
        if entry is not None:
            if entry.distance == distance:
                if entry.confidence == 0 or self._confidence_bump():
                    entry.confidence = min(3, entry.confidence + 1)
            else:
                entry.distance = distance
                entry.confidence = 1
            entry.lru_tick = self._tick
            return
        victim = None
        for candidate in self._entries[index]:
            if not candidate.valid:
                victim = candidate
                break
        if victim is None:
            victim = min(self._entries[index], key=lambda e: e.lru_tick)
        victim.valid = True
        victim.tag = tag
        victim.distance = distance
        victim.confidence = 1
        victim.lru_tick = self._tick


@dataclass
class FusionPrediction:
    """Everything the update queue must remember for one prediction.

    Mirrors the paper's dedicated in-flight prediction-information
    structure (29 bits per entry in hardware).
    """

    pc: int
    ghr: int
    distance: int
    used_global: bool
    local_entry: Optional[_Entry] = field(repr=False, default=None)
    global_entry: Optional[_Entry] = field(repr=False, default=None)
    selector_index: int = 0


class FusionPredictor:
    """Tournament FP: local + gshare sides with a selection table."""

    def __init__(self, sets: int = 512, ways: int = 4,
                 selector_entries: int = 2048, tag_bits: int = 8,
                 confidence_max: int = 3, max_distance: int = 64,
                 probabilistic: bool = False):
        self.tag_bits = tag_bits
        self.confidence_max = confidence_max
        self.max_distance = max_distance
        bump = None
        if probabilistic:
            from repro.predictors.fp_variants import _Dice
            dice = _Dice()
            bump = lambda: dice.one_in(2)  # noqa: E731
        self.local = _Table(sets, ways, confidence_bump=bump)
        self.gshare = _Table(sets, ways, confidence_bump=bump)
        self.selector = [2] * selector_entries
        self._selector_mask = selector_entries - 1
        self._set_mask = sets - 1

    # -- indexing -----------------------------------------------------------

    def _indices(self, pc: int, ghr: int) -> Tuple[int, int, int, int]:
        local_index = (pc >> 2) & self._set_mask
        gshare_index = ((pc >> 2) ^ ghr) & self._set_mask
        tag = (pc >> 2 >> 9) & ((1 << self.tag_bits) - 1)
        selector_index = (pc >> 2) & self._selector_mask
        return local_index, gshare_index, tag, selector_index

    # -- prediction ---------------------------------------------------------

    def predict(self, pc: int, ghr: int) -> Optional[FusionPrediction]:
        """Predict the distance to the head nucleus, or None.

        A prediction is only returned when the supplying entry's
        confidence counter is saturated (condition 1 of Section IV-A2).
        """
        local_index, gshare_index, tag, selector_index = self._indices(pc, ghr)
        local_entry = self.local.lookup(local_index, tag)
        global_entry = self.gshare.lookup(gshare_index, tag)
        if local_entry is None and global_entry is None:
            return None
        if local_entry is not None and global_entry is not None:
            use_global = self.selector[selector_index] >= 2
        else:
            use_global = global_entry is not None
        entry = global_entry if use_global else local_entry
        if entry.confidence < self.confidence_max:
            return None
        return FusionPrediction(
            pc=pc, ghr=ghr, distance=entry.distance, used_global=use_global,
            local_entry=local_entry, global_entry=global_entry,
            selector_index=selector_index)

    # -- UCH training (commit side) ------------------------------------------

    def train(self, pc: int, ghr: int, distance: int) -> None:
        """Train both sides from a UCH match at commit."""
        if not 0 < distance <= self.max_distance:
            return
        local_index, gshare_index, tag, _ = self._indices(pc, ghr)
        self.local.train(local_index, tag, distance)
        self.gshare.train(gshare_index, tag, distance)

    # -- execute-time outcome ---------------------------------------------

    def resolve(self, prediction: FusionPrediction, correct: bool) -> None:
        """Report the outcome of a fusion attempted on a prediction.

        On a correct prediction the data entry is left alone (confidence
        is already saturated); on a misprediction the supplying entry's
        confidence is reset to 0.  The selection table trains whenever
        the two sides would have disagreed.
        """
        local_entry = prediction.local_entry
        global_entry = prediction.global_entry
        if local_entry is not None and global_entry is not None \
                and local_entry.distance != global_entry.distance:
            other_is_global = not prediction.used_global
            if correct:
                self._bias_selector(prediction.selector_index,
                                    toward_global=prediction.used_global)
            else:
                self._bias_selector(prediction.selector_index,
                                    toward_global=other_is_global)
        if not correct:
            for entry in (local_entry, global_entry):
                if entry is not None and entry.distance == prediction.distance:
                    entry.confidence = 0

    def _bias_selector(self, index: int, toward_global: bool) -> None:
        if toward_global:
            self.selector[index] = min(3, self.selector[index] + 1)
        else:
            self.selector[index] = max(0, self.selector[index] - 1)
