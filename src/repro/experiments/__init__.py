"""Experiment harness: regenerates every table and figure of the
paper's evaluation (see DESIGN.md §5 for the experiment index).

* :mod:`repro.experiments.engine` — the one sweep path: memo + disk
  cache + parallel fan-out over (workload, config) jobs.
* :mod:`repro.experiments.faults` — fault-tolerant job scheduler
  (lost-worker recovery, one serial re-run of a job that failed the
  pool) and its per-attempt report.
* :mod:`repro.experiments.cache` — persistent on-disk result cache
  keyed by the replayed trace's key + configuration fingerprint.
* :mod:`repro.experiments.figures` — Figures 2, 3, 4, 5, 8, 9, 10.
* :mod:`repro.experiments.tables` — Tables I, II, III.
"""

from repro.experiments.analysis_suite import legality_census
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.engine import SweepEngine, SweepJobError
from repro.experiments.faults import JobFailure, SweepReport, run_jobs
from repro.experiments.figures import (
    SWEEP_MODES,
    cpi_accounting,
    figure2,
    figure3,
    figure4,
    figure5,
    figure8,
    figure9,
    figure10,
)
from repro.experiments.tables import table1, table2, table3

__all__ = [
    "ResultCache", "SweepEngine", "SweepJobError", "default_cache_dir",
    "JobFailure", "SweepReport", "run_jobs",
    "SWEEP_MODES", "cpi_accounting",
    "figure2", "figure3", "figure4", "figure5",
    "figure8", "figure9", "figure10",
    "legality_census",
    "table1", "table2", "table3",
]
