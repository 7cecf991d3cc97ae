"""Observability layer: pipeline event trace and observer, exporters.

See DESIGN.md ("Observability") for the event schema, the top-down
CPI bucket definitions, and Perfetto loading instructions.
"""

from .commit_log import CommitLog
from .events import (
    DEFAULT_RING_CAPACITY,
    EVENT_KINDS,
    STAGE_KINDS,
    EventRing,
    Histogram,
    PipelineObserver,
)
from .export import (
    chrome_trace,
    cpi_report,
    occupancy_report,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "CommitLog",
    "DEFAULT_RING_CAPACITY",
    "EVENT_KINDS",
    "STAGE_KINDS",
    "EventRing",
    "Histogram",
    "PipelineObserver",
    "chrome_trace",
    "cpi_report",
    "occupancy_report",
    "validate_chrome_trace",
    "write_chrome_trace",
]
