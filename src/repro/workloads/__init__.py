"""Workload catalog: stand-ins for the paper's SPEC CPU 2017 and
MiBench applications.

Each named workload is a small assembly kernel crafted to exhibit the
fusion-relevant characteristics the paper reports for the application
it stands in for (memory-pair density, non-consecutive pair distance,
base-register behaviour, store-queue pressure, branchiness).  See
DESIGN.md §2 for the substitution rationale.
"""

from repro.workloads.catalog import (
    CATALOG,
    DEFAULT_MAX_UOPS,
    WorkloadSpec,
    build_program,
    build_workload,
    ensure_known,
    workload_names,
)
from repro.workloads.synthesis import synthesize_trace
from repro.workloads.trace_store import (
    TRACE_DIR_ENV,
    TraceStore,
    clear_trace_memo,
    default_trace_dir,
    workload_salt,
)

__all__ = [
    "CATALOG",
    "DEFAULT_MAX_UOPS",
    "TRACE_DIR_ENV",
    "TraceStore",
    "WorkloadSpec",
    "build_program",
    "build_workload",
    "clear_trace_memo",
    "default_trace_dir",
    "ensure_known",
    "synthesize_trace",
    "workload_names",
    "workload_salt",
]
