"""Named counters and histograms with a zero-overhead no-op mode.

A :class:`StatsRegistry` hands out named instruments — monotonic
:class:`Counter`\\ s and integer-valued :class:`Histogram`\\ s — that
hot loops can hold direct references to.  A *disabled* registry hands
out shared null instruments whose ``add``/``observe`` are empty
methods, so instrumented code pays a single no-op call (or nothing at
all, if the caller checks :attr:`StatsRegistry.enabled` and skips the
call site entirely).

The pipeline's per-structure occupancy sampling is built on these
histograms; anything else in the simulator can register ad-hoc
instruments under its own dotted name without touching
:class:`~repro.pipeline.core.CoreStats`.
"""

from __future__ import annotations

from typing import Dict, List


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return "<Counter %s=%d>" % (self.name, self.value)


class Histogram:
    """A named histogram over small integer observations.

    Occupancies and queue depths are small bounded integers, so the
    distribution is kept exactly, as a value -> count map — no binning
    error, O(1) observes, and percentiles computed on demand.
    """

    __slots__ = ("name", "counts", "count", "total", "max")

    def __init__(self, name: str):
        self.name = name
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.max = 0

    def observe(self, value: int) -> None:
        counts = self.counts
        counts[value] = counts.get(value, 0) + 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        if not self.count:
            return 0.0
        return self.total / self.count

    def percentile(self, fraction: float) -> int:
        """Smallest observed value covering ``fraction`` of samples."""
        if not self.count:
            return 0
        needed = fraction * self.count
        seen = 0
        for value in sorted(self.counts):
            seen += self.counts[value]
            if seen >= needed:
                return value
        return self.max

    def summary(self) -> Dict[str, float]:
        """JSON-safe digest: count/mean/max plus p50/p90/p99."""
        return {
            "count": self.count,
            "mean": self.mean,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }

    def __repr__(self) -> str:
        return "<Histogram %s n=%d mean=%.2f max=%d>" % (
            self.name, self.count, self.mean, self.max)


class _NullCounter(Counter):
    """Shared do-nothing counter handed out by disabled registries."""

    __slots__ = ()

    def add(self, amount: int = 1) -> None:
        pass


class _NullHistogram(Histogram):
    """Shared do-nothing histogram handed out by disabled registries."""

    __slots__ = ()

    def observe(self, value: int) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class StatsRegistry:
    """A namespace of counters and histograms.

    ``StatsRegistry(enabled=False)`` is the no-op mode: every lookup
    returns a shared null instrument, nothing is ever stored, and
    :meth:`as_dict` reports empty — instrumented code runs unchanged
    with near-zero cost.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------ lookups --

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def histogram(self, name: str) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(name)
        return found

    # --------------------------------------------------------- inspection --

    def counters(self) -> List[Counter]:
        return [self._counters[name] for name in sorted(self._counters)]

    def histograms(self) -> List[Histogram]:
        return [self._histograms[name] for name in sorted(self._histograms)]

    def as_dict(self) -> Dict[str, Dict]:
        """JSON-safe snapshot of every registered instrument."""
        return {
            "counters": {c.name: c.value for c in self.counters()},
            "histograms": {h.name: h.summary()
                           for h in self.histograms()},
        }


#: Shared always-disabled registry for callers that want a default.
NULL_REGISTRY = StatsRegistry(enabled=False)
