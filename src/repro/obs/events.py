"""Ring-buffered pipeline event trace.

Every µ-op's journey through the pipeline can be recorded as a stream
of ``(cycle, kind, seq, detail)`` events — one event per stage
transition (fetch/decode/rename/dispatch/issue/execute/commit) plus
irregular events (flush, fuse, unfuse, stall).  Events land in a
bounded ring buffer (:class:`EventRing`), so tracing a long run keeps
the *last* N events instead of exhausting memory; the number of
events that fell off the front is reported so exporters can say so.

Tracing is opt-in, and there is one way to opt in: construct a
:class:`PipelineObserver` and pass it to
:func:`repro.core.simulator.simulate` or
:class:`~repro.pipeline.core.PipelineCore` (``repro debug`` does).
With no observer attached the pipeline's emission sites reduce to a
single ``is None`` test per site.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

#: Default ring capacity — 65536 events is plenty for our kernels while
#: bounding a pathological run to a few MB.
DEFAULT_RING_CAPACITY = 1 << 16

#: Every event kind the pipeline emits, in rough pipeline order.
#: ``detail`` is a short free-form string (flush cause, fusion kind,
#: unfuse reason, stall reason ...) or "" when there is nothing to add.
EVENT_KINDS = (
    "fetch",
    "decode",
    "rename",
    "dispatch",
    "issue",
    "execute",
    "commit",
    "flush",
    "fuse",
    "unfuse",
    "stall",
)

#: Stage-transition kinds, i.e. the per-µ-op milestones that become
#: duration slices in the Chrome trace export.  Order matters: it is
#: the order slices are stacked per µ-op.
STAGE_KINDS = (
    "fetch", "decode", "rename", "dispatch", "issue", "execute", "commit",
)

#: An event is a flat tuple — cheap to allocate in the hot loop.
Event = Tuple[int, str, int, str]


class EventRing:
    """A bounded FIFO of pipeline events.

    Backed by ``deque(maxlen=capacity)``: appending when full silently
    evicts the oldest event, which we count in :attr:`dropped`.
    """

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        if capacity <= 0:
            raise ValueError("EventRing capacity must be positive, got %r"
                             % (capacity,))
        self.capacity = capacity
        self._events: Deque[Event] = deque(maxlen=capacity)
        self.emitted = 0

    def append(self, event: Event) -> None:
        self.emitted += 1
        self._events.append(event)

    @property
    def dropped(self) -> int:
        """Events evicted from the front because the ring was full."""
        return self.emitted - len(self._events)

    def events(self) -> List[Event]:
        """The retained events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)


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


class PipelineObserver:
    """Collects everything the pipeline can tell us about one run.

    Owns an :class:`EventRing`, a count of emissions per event kind and
    one occupancy :class:`Histogram` per pipeline structure.  The
    pipeline calls :meth:`emit` at stage transitions and
    :meth:`sample_occupancy` once per cycle; both are written to be
    cheap, and neither is called at all when no observer is attached.
    """

    def __init__(self, ring_capacity: int = DEFAULT_RING_CAPACITY):
        self.ring = EventRing(ring_capacity)
        self._counts: Dict[str, int] = dict.fromkeys(EVENT_KINDS, 0)
        self._occupancy: Dict[str, Histogram] = {}

    # ------------------------------------------------------------- events --

    def emit(self, cycle: int, kind: str, seq: int, detail: str = "") -> None:
        """Record one pipeline event.  ``kind`` must be in EVENT_KINDS."""
        self.ring.append((cycle, kind, seq, detail))
        self._counts[kind] += 1

    def events(self) -> List[Event]:
        return self.ring.events()

    def event_counts(self) -> Dict[str, int]:
        """Total emissions per kind (independent of ring eviction)."""
        return {kind: count for kind, count in self._counts.items() if count}

    # ---------------------------------------------------------- occupancy --

    def sample_occupancy(self, structure: str, depth: int) -> None:
        """Record one cycle's occupancy of a pipeline structure."""
        hist = self._occupancy.get(structure)
        if hist is None:
            hist = self._occupancy[structure] = Histogram(structure)
        hist.observe(depth)

    def occupancy_histograms(self):
        """(structure, Histogram) pairs in registration order."""
        return list(self._occupancy.items())
