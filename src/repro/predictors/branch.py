"""Tournament branch predictor.

A classic Alpha-21264-style tournament: a bimodal (local) side, a
gshare (global) side, and a chooser table.  It stands in for the
paper's L-TAGE — only the misprediction *rate* and the global history
register (consumed by the fusion predictor's gshare side) matter to the
experiments.
"""

from __future__ import annotations


class BranchPredictor:
    """Bimodal + gshare + chooser, with a global history register."""

    def __init__(self, table_bits: int = 12, history_bits: int = 12):
        self.table_size = 1 << table_bits
        self.history_bits = history_bits
        self._mask = self.table_size - 1
        self._history_mask = (1 << history_bits) - 1
        # 2-bit saturating counters, initialized weakly taken.
        self._bimodal = [2] * self.table_size
        self._gshare = [2] * self.table_size
        # Chooser: 0/1 prefer bimodal, 2/3 prefer gshare.
        self._chooser = [2] * self.table_size
        self.ghr = 0

    def _indices(self, pc: int):
        base = (pc >> 2) & self._mask
        return base, (base ^ self.ghr) & self._mask

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        bi_index, gs_index = self._indices(pc)
        if self._chooser[bi_index] >= 2:
            return self._gshare[gs_index] >= 2
        return self._bimodal[bi_index] >= 2

    def update(self, pc: int, taken: bool) -> bool:
        """Train with the resolved direction; returns mispredicted.

        The returned verdict uses the same pre-update table state as
        :meth:`predict`, so callers that train immediately after
        predicting can rely on this one call for both.
        """
        bimodal = self._bimodal
        gshare = self._gshare
        chooser = self._chooser
        bi_index = (pc >> 2) & self._mask
        gs_index = (bi_index ^ self.ghr) & self._mask
        bimodal_pred = bimodal[bi_index] >= 2
        gshare_pred = gshare[gs_index] >= 2
        prediction = gshare_pred if chooser[bi_index] >= 2 else bimodal_pred
        mispredicted = prediction != taken

        # Chooser trains only when the two sides disagree.
        if bimodal_pred != gshare_pred:
            if gshare_pred == taken:
                if chooser[bi_index] < 3:
                    chooser[bi_index] += 1
            elif chooser[bi_index] > 0:
                chooser[bi_index] -= 1

        if taken:
            if bimodal[bi_index] < 3:
                bimodal[bi_index] += 1
            if gshare[gs_index] < 3:
                gshare[gs_index] += 1
            self.ghr = ((self.ghr << 1) | 1) & self._history_mask
        else:
            if bimodal[bi_index] > 0:
                bimodal[bi_index] -= 1
            if gshare[gs_index] > 0:
                gshare[gs_index] -= 1
            self.ghr = (self.ghr << 1) & self._history_mask
        return mispredicted
