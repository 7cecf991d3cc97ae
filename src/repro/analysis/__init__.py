"""Correctness tooling: legality analysis, differential checking, and
the µ-architectural sanitizer.

* :mod:`repro.analysis.legality` — static dataflow analyzer emitting
  the provably-legal fusion pair set with reason-coded rejections.
* :mod:`repro.analysis.differential` — cross-validates the oracle,
  the UCH, and the pipeline's committed fusions against the legal set
  and bit-matches committed architectural state against a fresh
  interpreter replay.
* :mod:`repro.analysis.sanitizer` — always-off invariant assertions
  over rename/LSQ/ROB, armed by passing a :class:`Sanitizer` to the
  pipeline core.

``differential`` is exposed lazily: it imports :mod:`repro.fusion`,
which itself imports :mod:`repro.analysis.legality` for the shared
:class:`Reason` enum.
"""

from repro.analysis.legality import (
    AliasClass,
    LegalityAnalyzer,
    LegalityReport,
    PairVerdict,
    Reason,
    analyze_trace_legality,
)
from repro.analysis.sanitizer import Sanitizer, SanitizerError

_LAZY = (
    "AnalysisReport",
    "Divergence",
    "ModeCheck",
    "analyze_trace",
    "analyze_workload",
)

__all__ = [
    "AliasClass",
    "LegalityAnalyzer",
    "LegalityReport",
    "PairVerdict",
    "Reason",
    "analyze_trace_legality",
    "Sanitizer",
    "SanitizerError",
] + list(_LAZY)


def __getattr__(name):
    if name in _LAZY:
        from repro.analysis import differential

        return getattr(differential, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
