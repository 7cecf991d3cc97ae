"""Statistics helpers: aggregate math and report rendering."""

from repro.stats.counters import amean, geomean, percent
from repro.stats.report import ascii_table

__all__ = ["amean", "ascii_table", "geomean", "percent"]
