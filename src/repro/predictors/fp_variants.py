"""Alternative fusion-predictor organizations.

Section IV-A2 of the paper notes that "other predictors, such as
TAGE-based [27] or local history based [32], can be employed" in place
of the tournament FP, and that "higher accuracy may always be traded
for lower coverage using better confidence estimation e.g.,
probabilistic counters [20]".  This module provides both alternatives
plus the probabilistic-confidence knob, behind the same duck-typed
interface as :class:`~repro.predictors.fusion_predictor.FusionPredictor`:

* ``predict(pc, ghr) -> Optional[prediction]`` (prediction has
  ``.distance``),
* ``train(pc, ghr, distance)`` (driven by the UCH at commit),
* ``resolve(prediction, correct)`` (execute-time outcome).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: Deterministic pseudo-random stream for probabilistic counters —
#: simulation results must be reproducible.
_LCG_MUL = 6364136223846793005
_LCG_ADD = 1442695040888963407
_MASK64 = (1 << 64) - 1


class _Dice:
    """A tiny deterministic PRNG for probabilistic counter updates."""

    def __init__(self, seed: int = 0x9E3779B9):
        self._state = seed

    def one_in(self, n: int) -> bool:
        self._state = (self._state * _LCG_MUL + _LCG_ADD) & _MASK64
        return (self._state >> 33) % n == 0


@dataclass
class _TagePrediction:
    pc: int
    ghr: int
    distance: int
    table_index: int       # which tagged table provided the prediction
    entry: object = field(repr=False, default=None)


class _TageEntry:
    __slots__ = ("valid", "tag", "distance", "confidence", "useful")

    def __init__(self):
        self.valid = False
        self.tag = 0
        self.distance = 0
        self.confidence = 0
        self.useful = 0


class TageFusionPredictor:
    """A TAGE-style fusion predictor.

    A tagless base table indexed by PC plus ``len(history_lengths)``
    tagged tables indexed by PC XOR folded global history of
    geometrically increasing lengths.  The longest-history hitting
    table provides the prediction; allocation on a misprediction picks
    a longer-history table with a not-useful entry (the standard TAGE
    policy, simplified).
    """

    def __init__(self, base_entries: int = 1024, tagged_entries: int = 256,
                 history_lengths=(4, 8, 16), tag_bits: int = 8,
                 confidence_max: int = 3, max_distance: int = 64,
                 probabilistic: bool = False):
        self.confidence_max = confidence_max
        self.max_distance = max_distance
        self.history_lengths = tuple(history_lengths)
        self._base = [_TageEntry() for _ in range(base_entries)]
        self._base_mask = base_entries - 1
        self._tagged: List[List[_TageEntry]] = [
            [_TageEntry() for _ in range(tagged_entries)]
            for _ in self.history_lengths]
        self._tagged_mask = tagged_entries - 1
        self._tag_mask = (1 << tag_bits) - 1
        self.probabilistic = probabilistic
        self._dice = _Dice()

    def _indices(self, pc: int, ghr: int, table: int) -> int:
        history = ghr & ((1 << self.history_lengths[table]) - 1)
        return ((pc >> 2) ^ history ^ (history << 3)) & self._tagged_mask

    def _tag(self, pc: int, ghr: int, table: int) -> int:
        history = ghr & ((1 << self.history_lengths[table]) - 1)
        return ((pc >> 6) ^ (history << 1)) & self._tag_mask

    def _lookup(self, pc: int, ghr: int):
        """Longest-history hit, or the base entry."""
        for table in reversed(range(len(self._tagged))):
            entry = self._tagged[table][self._indices(pc, ghr, table)]
            if entry.valid and entry.tag == self._tag(pc, ghr, table):
                return table, entry
        return -1, self._base[(pc >> 2) & self._base_mask]

    def predict(self, pc: int, ghr: int) -> Optional[_TagePrediction]:
        table, entry = self._lookup(pc, ghr)
        if table == -1 and not entry.valid:
            return None
        if entry.confidence < self.confidence_max:
            return None
        return _TagePrediction(pc=pc, ghr=ghr, distance=entry.distance,
                               table_index=table, entry=entry)

    def _bump(self, entry: _TageEntry, distance: int) -> None:
        if entry.valid and entry.distance == distance:
            if not self.probabilistic or self._dice.one_in(2) \
                    or entry.confidence == 0:
                entry.confidence = min(self.confidence_max,
                                       entry.confidence + 1)
        else:
            entry.valid = True
            entry.distance = distance
            entry.confidence = 1

    def train(self, pc: int, ghr: int, distance: int) -> None:
        if not 0 < distance <= self.max_distance:
            return
        table, entry = self._lookup(pc, ghr)
        if table == -1:
            base = self._base[(pc >> 2) & self._base_mask]
            previous = base.valid and base.distance != distance
            self._bump(base, distance)
            if previous:
                # The base keeps flip-flopping: allocate a tagged entry
                # so history can disambiguate.
                self._allocate(pc, ghr, distance, above=-1)
        else:
            if entry.distance == distance:
                self._bump(entry, distance)
                entry.useful = min(3, entry.useful + 1)
            else:
                entry.useful = max(0, entry.useful - 1)
                if entry.useful == 0:
                    self._bump(entry, distance)
                self._allocate(pc, ghr, distance, above=table)

    def _allocate(self, pc: int, ghr: int, distance: int, above: int) -> None:
        for table in range(above + 1, len(self._tagged)):
            entry = self._tagged[table][self._indices(pc, ghr, table)]
            if not entry.valid or entry.useful == 0:
                entry.valid = True
                entry.tag = self._tag(pc, ghr, table)
                entry.distance = distance
                entry.confidence = 1
                entry.useful = 0
                return
        # Nothing allocatable: age usefulness (TAGE's global reset, in
        # miniature).
        for table in range(above + 1, len(self._tagged)):
            entry = self._tagged[table][self._indices(pc, ghr, table)]
            entry.useful = max(0, entry.useful - 1)

    def resolve(self, prediction: _TagePrediction, correct: bool) -> None:
        entry = prediction.entry
        if correct:
            if prediction.table_index >= 0:
                entry.useful = min(3, entry.useful + 1)
            return
        if entry is not None and entry.distance == prediction.distance:
            entry.confidence = 0
            if prediction.table_index >= 0:
                entry.useful = max(0, entry.useful - 1)


@dataclass
class _LocalPrediction:
    pc: int
    ghr: int
    distance: int
    entry: object = field(repr=False, default=None)


class _LocalEntry:
    __slots__ = ("valid", "tag", "history", "distance", "confidence")

    def __init__(self):
        self.valid = False
        self.tag = 0
        self.history = 0
        self.distance = 0
        self.confidence = 0


class LocalHistoryFusionPredictor:
    """A two-level local-history fusion predictor (after Yeh & Patt).

    Level 1: a PC-indexed table records a small history of the last
    distances observed for each µ-op.  Level 2: a pattern table indexed
    by PC XOR the folded local history holds (distance, confidence).
    Captures µ-ops that alternate between a small set of distances.
    """

    def __init__(self, l1_entries: int = 512, l2_entries: int = 2048,
                 tag_bits: int = 8, confidence_max: int = 3,
                 max_distance: int = 64, probabilistic: bool = False):
        self._l1 = [0] * l1_entries
        self._l1_mask = l1_entries - 1
        self._l2 = [_LocalEntry() for _ in range(l2_entries)]
        self._l2_mask = l2_entries - 1
        self._tag_mask = (1 << tag_bits) - 1
        self.confidence_max = confidence_max
        self.max_distance = max_distance
        self.probabilistic = probabilistic
        self._dice = _Dice()

    def _l2_entry(self, pc: int) -> _LocalEntry:
        history = self._l1[(pc >> 2) & self._l1_mask]
        index = ((pc >> 2) ^ history) & self._l2_mask
        return self._l2[index]

    def _tag(self, pc: int) -> int:
        return (pc >> 4) & self._tag_mask

    def predict(self, pc: int, ghr: int) -> Optional[_LocalPrediction]:
        entry = self._l2_entry(pc)
        if not entry.valid or entry.tag != self._tag(pc):
            return None
        if entry.confidence < self.confidence_max:
            return None
        return _LocalPrediction(pc=pc, ghr=ghr, distance=entry.distance,
                                entry=entry)

    def train(self, pc: int, ghr: int, distance: int) -> None:
        if not 0 < distance <= self.max_distance:
            return
        entry = self._l2_entry(pc)
        tag = self._tag(pc)
        if entry.valid and entry.tag == tag and entry.distance == distance:
            if not self.probabilistic or self._dice.one_in(2) \
                    or entry.confidence == 0:
                entry.confidence = min(self.confidence_max,
                                       entry.confidence + 1)
        else:
            entry.valid = True
            entry.tag = tag
            entry.distance = distance
            entry.confidence = 1
        # Update the level-1 local distance history (6 bits shifted in).
        slot = (pc >> 2) & self._l1_mask
        self._l1[slot] = ((self._l1[slot] << 6) | (distance & 0x3F)) & 0xFFF

    def resolve(self, prediction: _LocalPrediction, correct: bool) -> None:
        if correct:
            return
        entry = prediction.entry
        if entry is not None and entry.distance == prediction.distance:
            entry.confidence = 0


def make_fusion_predictor(config):
    """Build the fusion predictor selected by ``config.fp_kind``."""
    from repro.predictors.fusion_predictor import FusionPredictor

    kind = getattr(config, "fp_kind", "tournament")
    probabilistic = getattr(config, "fp_probabilistic_confidence", False)
    if kind == "tournament":
        return FusionPredictor(
            sets=config.fp_sets, ways=config.fp_ways,
            selector_entries=config.fp_selector_entries,
            tag_bits=config.fp_tag_bits,
            confidence_max=config.fp_confidence_max,
            max_distance=config.max_fusion_distance,
            probabilistic=probabilistic)
    if kind == "tage":
        return TageFusionPredictor(
            confidence_max=config.fp_confidence_max,
            max_distance=config.max_fusion_distance,
            probabilistic=probabilistic)
    if kind == "local":
        return LocalHistoryFusionPredictor(
            confidence_max=config.fp_confidence_max,
            max_distance=config.max_fusion_distance,
            probabilistic=probabilistic)
    raise ValueError("unknown fusion predictor kind %r" % kind)
