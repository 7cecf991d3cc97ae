"""Aggregate math used by the experiment reports.

The paper reports IPC uplifts as geometric means over workloads and
fusion-pair percentages as arithmetic means — both helpers live here.
"""

from __future__ import annotations

import math
from typing import Iterable


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; 0.0 for an empty input, ignores non-positives."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def amean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty input."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def percent(numerator: float, denominator: float) -> float:
    """``100 * numerator / denominator`` guarded against zero."""
    if not denominator:
        return 0.0
    return 100.0 * numerator / denominator
