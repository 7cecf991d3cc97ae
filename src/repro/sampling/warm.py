"""Functional warming for sampled simulation (SMARTS-style).

Between detail windows, the sampler does not simulate cycles — it
*functionally* streams the skipped µ-ops through the long-lived
predictor and cache state so each window starts from a representative
micro-architectural context instead of a cold one:

* **Branch predictor** — every control µ-op trains direction tables
  and advances the global history register.
* **Memory hierarchy** — every memory µ-op performs its access
  (LRU/content updates, no timing consumed), and instruction lines are
  touched on line change, warming the L1I.
* **UCH + fusion predictor** (Helios) — every memory µ-op is presented
  to the Unfused Committed History exactly like an unfused committing
  µ-op, and discovered pairs train the fusion predictor.  This is an
  *approximation* of the pipeline's training stream: the real commit
  stage skips µ-ops that fused and throttles through the post-commit
  decoupling queue, while the warmer presents every memory µ-op at one
  per "commit".  The short detailed-but-unmeasured prefix ahead of
  each measurement window re-converges the recent state (see
  DESIGN §4e).

The accumulated state is handed to :class:`~repro.pipeline.core.
PipelineCore` through its ``warm_state`` parameter; the
:attr:`WarmState.commit_counter` continues the warmer's commit
numbering so UCH distances stay valid across the handoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.config import FusionMode, ProcessorConfig
from repro.isa.trace import MicroOp
from repro.memory.hierarchy import MemoryHierarchy
from repro.predictors.branch import BranchPredictor
from repro.predictors.fp_variants import make_fusion_predictor
from repro.predictors.uch import UnfusedCommittedHistory


@dataclass
class WarmState:
    """Functionally-warmed long-lived state, consumed by
    ``PipelineCore(..., warm_state=...)``.

    Any field left ``None`` keeps the core's cold default.  The Helios
    fields (``fp``/``uch_*``) are only adopted when the core runs in
    Helios mode.
    """

    memory: Optional[MemoryHierarchy] = None
    branch_pred: Optional[BranchPredictor] = None
    fp: Optional[object] = None
    uch_loads: Optional[UnfusedCommittedHistory] = None
    uch_stores: Optional[UnfusedCommittedHistory] = None
    commit_counter: int = 0


class FunctionalWarmer:
    """Streams µ-ops through predictor/cache state without timing."""

    def __init__(self, config: ProcessorConfig):
        self.config = config
        self.memory = MemoryHierarchy(config)
        self.branch_pred = BranchPredictor()
        self.fp = None
        self.uch_loads = None
        self.uch_stores = None
        if config.fusion_mode is FusionMode.HELIOS:
            self.fp = make_fusion_predictor(config)
            self.uch_loads = UnfusedCommittedHistory(
                entries=config.uch_load_entries,
                line_bytes=config.cache_access_granularity,
                max_distance=config.max_fusion_distance)
            self.uch_stores = UnfusedCommittedHistory(
                entries=config.uch_store_entries,
                line_bytes=config.cache_access_granularity,
                max_distance=config.max_fusion_distance)
        self.commit_counter = 0
        self._line = None
        self._line_shift = config.l1i.line_bytes.bit_length() - 1

    def warm(self, uops: Sequence[MicroOp]) -> None:
        """Functionally execute one µ-op range (no cycles consumed)."""
        memory = self.memory
        access = memory.access_latency
        fetch_line = memory.fetch_line
        bp_update = self.branch_pred.update
        uch_loads = self.uch_loads
        uch_stores = self.uch_stores
        fp_train = self.fp.train if self.fp is not None else None
        bp = self.branch_pred
        line = self._line
        shift = self._line_shift
        cc = self.commit_counter
        for mo in uops:
            pc_line = mo.pc >> shift
            if pc_line != line:
                fetch_line(mo.pc)
                line = pc_line
            if mo.is_memory:
                access(mo.addr, mo.size)
                if uch_loads is not None:
                    uch = uch_loads if mo.is_load else uch_stores
                    match = uch.observe(mo.pc, mo.addr, cc)
                    if match is not None:
                        fp_train(mo.pc, bp.ghr, match.distance)
            elif mo.is_control:
                bp_update(mo.pc, mo.taken)
            cc += 1
        self._line = line
        self.commit_counter = cc

    def state(self) -> WarmState:
        """The accumulated warm state, ready for ``PipelineCore``."""
        return WarmState(
            memory=self.memory,
            branch_pred=self.branch_pred,
            fp=self.fp,
            uch_loads=self.uch_loads,
            uch_stores=self.uch_stores,
            commit_counter=self.commit_counter,
        )
