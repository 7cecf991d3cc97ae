"""Iteration-scaled workload traces for multi-million-µop runs.

The catalog kernels terminate naturally at ~20–30k dynamic µ-ops —
far below the region sizes that make sampled simulation interesting.
This module rebuilds a catalog kernel with its ``iters`` parameter
multiplied until the captured trace reaches a target length (each
kernel builder takes ``iters``; dynamic length is roughly linear in
it, and the builder iterates on the observed ratio when it is not).

Scaled traces take the catalog traces' one path
(:func:`repro.workloads.trace_store.cached_trace`) under a
``name@target`` key salted by the *unscaled* kernel source plus the
target, so a 1M-µop bench trace is interpreted once and replayed
thereafter — and editing the kernel or its catalog parameters
invalidates the scaled capture too.
"""

from __future__ import annotations

import math

from repro.isa.assembler import assemble
from repro.isa.interp import run_program
from repro.isa.trace import Trace
from repro.workloads.catalog import CATALOG
from repro.workloads.trace_store import cached_trace, workload_salt


def _scaled_source(name: str, factor: int) -> str:
    spec = CATALOG[name]
    params = dict(spec.params)
    if "iters" not in params:
        raise ValueError(
            "workload %r has no iters parameter to scale" % name)
    params["iters"] = int(params["iters"]) * factor
    return spec.builder(**params)


def build_scaled_workload(name: str, target_uops: int) -> Trace:
    """A trace for catalog workload ``name`` of ~``target_uops`` length.

    The kernel's iteration count is multiplied so the functional trace
    reaches ``target_uops``; capture is capped there, so the result is
    *at most* ``target_uops`` long and usually exactly that (a kernel
    whose dynamic length stops scaling with ``iters`` yields whatever
    maximum it reaches).
    """
    if name not in CATALOG:
        raise ValueError("unknown workload %r" % name)
    if target_uops < 1:
        raise ValueError("target_uops must be positive")
    store_name = "%s@%d" % (name, target_uops)

    def capture() -> Trace:
        factor = 1
        trace = run_program(
            assemble(_scaled_source(name, 1), name=store_name),
            max_uops=target_uops)
        for _attempt in range(4):
            if len(trace) >= target_uops:
                break
            # Undershot: rescale by the observed µ-ops-per-iteration
            # ratio with 10% headroom (kernels need not be exactly
            # linear).
            factor = max(factor + 1,
                         math.ceil(factor * 1.1 * target_uops
                                   / max(1, len(trace))))
            trace = run_program(
                assemble(_scaled_source(name, factor), name=store_name),
                max_uops=target_uops)
        return trace

    return cached_trace(store_name, target_uops,
                        workload_salt(name, target_uops), capture)
