"""Processor configuration (the paper's Table II) and fusion modes.

The model follows the paper's description of an Intel-Icelake-like
out-of-order core with an 8-wide frontend (Fetch/Decode widened so the
Allocation Queue actually fills — Section V-A) and a 140-entry
Allocation Queue between Decode and Rename.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict


#: Default dynamic µ-op cap for every trace-consuming entry point
#: (``repro simulate/bench/analyze/debug/profile`` and
#: :func:`repro.workloads.build_workload`).  This is deliberately lower
#: than the functional ``Interpreter``'s own 2M safety cap
#: (:data:`repro.isa.interp.DEFAULT_INTERP_MAX_UOPS`): 200k µ-ops is
#: the full-detail budget, while multi-million-µop regions are reached
#: through sampled simulation (:mod:`repro.sampling`).
DEFAULT_MAX_UOPS = 200_000


class FusionMode(enum.Enum):
    """The fusion configurations evaluated in the paper (Section V-A)."""

    #: Baseline: no fusion at all.
    NONE = "NoFusion"
    #: Non-memory Table I idioms only, consecutive (Celio et al.).
    RISCV = "RISCVFusion"
    #: Consecutive, contiguous, same-base-register memory pairs only
    #: (asymmetric sizes allowed).
    CSF_SBR = "CSF-SBR"
    #: All Table I idioms, consecutive only.
    RISCV_PP = "RISCVFusion++"
    #: Predictive non-consecutive / non-contiguous / different-base
    #: memory fusion on top of RISCVFusion++ (the paper's proposal).
    HELIOS = "Helios"
    #: Upper bound: fuses all eligible pairs using oracle addresses.
    ORACLE = "OracleFusion"

    @property
    def fuses_memory_pairs(self) -> bool:
        return self not in (FusionMode.NONE, FusionMode.RISCV)

    @property
    def fuses_other_idioms(self) -> bool:
        return self in (FusionMode.RISCV, FusionMode.RISCV_PP,
                        FusionMode.HELIOS, FusionMode.ORACLE)

    @property
    def non_consecutive(self) -> bool:
        return self in (FusionMode.HELIOS, FusionMode.ORACLE)


@dataclass(frozen=True)
class CacheConfig:
    """One cache level."""

    size_bytes: int
    associativity: int
    latency: int
    line_bytes: int = 64

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class ProcessorConfig:
    """All timing-model parameters (paper Table II, Icelake-like)."""

    # Frontend (Section V-A: 8-wide Fetch and Decode so the AQ fills).
    fetch_width: int = 8
    decode_width: int = 8
    rename_width: int = 5
    dispatch_width: int = 5
    issue_width: int = 10
    commit_width: int = 8

    # Window structures.
    rob_size: int = 352
    iq_size: int = 160
    lq_size: int = 128
    sq_size: int = 72
    aq_size: int = 140          # Allocation Queue (paper Section IV-B1)
    int_prf_size: int = 280
    fp_prf_size: int = 224

    # Execution ports (per cycle issue bandwidth per class).
    alu_ports: int = 4
    mul_ports: int = 1
    div_ports: int = 1
    load_ports: int = 2
    store_ports: int = 2
    fp_ports: int = 2
    branch_ports: int = 2

    # Memory hierarchy.
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 8, 0))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(48 * 1024, 12, 5))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(512 * 1024, 8, 13))
    l3: CacheConfig = field(default_factory=lambda: CacheConfig(2 * 1024 * 1024, 16, 40))
    dram_latency: int = 200
    line_crossing_penalty: int = 1   # AMD-style single extra cycle (Section II-B)

    # Control flow.
    branch_mispredict_penalty: int = 12
    pipeline_depth_to_execute: int = 7

    # Fusion parameters.
    fusion_mode: FusionMode = FusionMode.NONE
    cache_access_granularity: int = 64   # NCTF span limit (Section III-C)
    max_fusion_distance: int = 64        # UCH commit-number range (IV-A1)
    ncsf_nesting: int = 2                # supported nesting depth (IV-B2)

    # Helios predictor sizing (Section IV-A2).
    uch_load_entries: int = 6
    uch_store_entries: int = 1
    fp_sets: int = 512
    fp_ways: int = 4
    fp_selector_entries: int = 2048
    fp_tag_bits: int = 8
    fp_confidence_max: int = 3
    uch_queue_entries: int = 8           # post-commit decoupling queue
    #: Fusion predictor organization: "tournament" (the paper's),
    #: "tage", or "local" (the alternatives Section IV-A2 mentions).
    fp_kind: str = "tournament"
    #: Probabilistic confidence updates (Riley & Zilles): trade
    #: coverage for accuracy.
    fp_probabilistic_confidence: bool = False
    #: µ-op cache that preserves consecutive-fusion groupings across
    #: decode-group misalignment (Section IV-A; off in the paper's
    #: evaluation and by default here).
    uop_cache_enabled: bool = False

    def with_mode(self, mode: FusionMode) -> "ProcessorConfig":
        """A copy of this configuration with a different fusion mode."""
        return replace(self, fusion_mode=mode)

    def to_dict(self) -> Dict:
        """JSON-safe dict of every timing parameter (enums by value)."""
        data = dataclasses.asdict(self)
        data["fusion_mode"] = self.fusion_mode.value
        return data

    def fingerprint(self) -> str:
        """Stable short hash over every parameter that affects results.

        Two configurations share a fingerprint iff every field —
        including the fusion mode and nested cache geometries — is
        equal, so it is safe to key persistent result caches on
        ``(workload, fingerprint)``.  Every field is a timing parameter:
        diagnostics (the event observer, the sanitizer) are armed by
        passing their objects to the core, never through the config.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def paper_configurations(base: ProcessorConfig = None) -> Dict[str, ProcessorConfig]:
    """The six configurations of the evaluation (baseline + Section V-A five).

    Returns a name-keyed dict in the paper's presentation order.
    """
    base = base or ProcessorConfig()
    return {
        mode.value: base.with_mode(mode)
        for mode in (
            FusionMode.NONE, FusionMode.RISCV, FusionMode.CSF_SBR,
            FusionMode.RISCV_PP, FusionMode.HELIOS, FusionMode.ORACLE,
        )
    }
