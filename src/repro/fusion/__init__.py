"""Fusion substrate: taxonomy, idioms, windows, and the oracle.

* :mod:`repro.fusion.taxonomy` — the paper's Section II-A vocabulary
  (CSF/NCSF, CTF/NCTF, SBR/DBR, head/tail nucleus, catalyst) as code.
* :mod:`repro.fusion.idioms` — the Table I idiom set.
* :mod:`repro.fusion.window` — consecutive fusion within a decode group.
* :mod:`repro.fusion.oracle` — address-aware oracle pair discovery used
  by the OracleFusion configuration and the motivation figures.
"""

from repro.fusion.idioms import (
    IDIOMS,
    MEMORY_IDIOMS,
    OTHER_IDIOMS,
    Idiom,
    match_idiom,
    match_memory_pair,
)
from repro.fusion.oracle import (
    OracleAnalysis,
    analyze_trace,
    consecutive_memory_pairs,
    oracle_memory_pairs,
    oracle_other_pairs,
)
from repro.fusion.taxonomy import (
    BaseRegKind,
    Contiguity,
    FusedPair,
    span,
)

__all__ = [
    "BaseRegKind",
    "Contiguity",
    "FusedPair",
    "IDIOMS",
    "Idiom",
    "MEMORY_IDIOMS",
    "OTHER_IDIOMS",
    "OracleAnalysis",
    "analyze_trace",
    "consecutive_memory_pairs",
    "match_idiom",
    "match_memory_pair",
    "oracle_memory_pairs",
    "oracle_other_pairs",
    "span",
]
