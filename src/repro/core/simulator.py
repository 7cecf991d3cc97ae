"""Top-level simulation entry points (the library's main public API).

Typical use::

    from repro import simulate, ProcessorConfig, FusionMode
    from repro.workloads import build_workload

    trace = build_workload("dijkstra")
    result = simulate(trace, ProcessorConfig().with_mode(FusionMode.HELIOS))
    print(result.summary())
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

from repro.config import FusionMode, ProcessorConfig
from repro.core.results import SimResult
from repro.isa.interp import run_program
from repro.isa.program import Program
from repro.isa.trace import Trace
from repro.obs import PipelineObserver
from repro.pipeline.core import PipelineCore


def simulate(workload: Union[Program, Trace],
             config: Optional[ProcessorConfig] = None,
             name: Optional[str] = None,
             observer: Optional[PipelineObserver] = None) -> SimResult:
    """Run one workload under one configuration.

    ``workload`` may be an assembled :class:`Program` (interpreted
    first) or an already-captured :class:`Trace`.  Pass an
    ``observer`` to record the per-µ-op pipeline event trace; it is
    returned on ``result.observer``.
    """
    config = config or ProcessorConfig()
    trace = run_program(workload) if isinstance(workload, Program) else workload
    core = PipelineCore(trace, config, observer=observer)
    stats = core.run()
    # The core already computed the oracle prediction-needing pair set
    # for its coverage accounting; its size is the coverage denominator.
    eligible = len(core.predictive_pairs)
    return SimResult(
        workload=name or trace.name,
        mode=config.fusion_mode,
        stats=stats,
        total_memory_uops=trace.num_memory,
        eligible_predictive_pairs=eligible,
        commit_width=config.commit_width,
        observer=observer,
    )


def simulate_modes(workload: Union[Program, Trace],
                   modes: Optional[Iterable[FusionMode]] = None,
                   base_config: Optional[ProcessorConfig] = None,
                   name: Optional[str] = None) -> Dict[str, SimResult]:
    """Sweep fusion modes over one workload; returns mode-name -> result."""
    base = base_config or ProcessorConfig()
    trace = run_program(workload) if isinstance(workload, Program) else workload
    if modes is None:
        modes = list(FusionMode)
    return {
        mode.value: simulate(trace, base.with_mode(mode), name=name)
        for mode in modes
    }


def ipc_uplift(results: Dict[str, SimResult],
               baseline: str = FusionMode.NONE.value) -> Dict[str, float]:
    """IPC of each configuration normalized to a baseline (Figure 10)."""
    base_ipc = results[baseline].ipc
    if base_ipc == 0:
        return {name: 0.0 for name in results}
    return {name: result.ipc / base_ipc for name, result in results.items()}
