"""Wall-clock performance harness (``repro bench``).

Times the stages every sweep pays for — cold trace capture, trace
store serialization/replay, oracle pair extraction, and the
cycle-level pipeline run per fusion mode — and emits
``BENCH_pipeline.json`` so each PR's perf delta is measurable against
the accumulated trajectory.
"""

from repro.perf.harness import (
    BENCH_OUTPUT_DEFAULT,
    DEFAULT_BENCH_WORKLOADS,
    QUICK_BENCH_WORKLOADS,
    SAMPLED_BENCH_WORKLOADS,
    bench_workloads,
    compare_with_previous,
    load_bench,
    measure_sampled,
    run_bench,
    write_bench,
)
from repro.perf.profile import (
    dump_pstats,
    profile_run,
    render_profile,
    serializable,
)

__all__ = [
    "BENCH_OUTPUT_DEFAULT",
    "DEFAULT_BENCH_WORKLOADS",
    "QUICK_BENCH_WORKLOADS",
    "SAMPLED_BENCH_WORKLOADS",
    "bench_workloads",
    "compare_with_previous",
    "dump_pstats",
    "load_bench",
    "measure_sampled",
    "profile_run",
    "render_profile",
    "run_bench",
    "serializable",
    "write_bench",
]
