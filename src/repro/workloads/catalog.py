"""The workload catalog: one stand-in per application in the paper's
evaluation (Table III lists 32 workloads: 14 SPEC CPU 2017 sub-runs and
18 MiBench programs).

Each entry names the kernel archetype and parameters chosen to mimic
the fusion-relevant behaviour the paper reports for that application —
e.g. 657.xz_1 is store-queue bound (88 % of cycles stalled on a full
SQ in the paper's baseline), 605.mcf chases pointers with wild
data-dependent offsets (lowest predictor accuracy), bitcount and susan
are dominated by non-memory idioms (Figure 2's exceptions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.config import DEFAULT_MAX_UOPS as _DEFAULT_MAX_UOPS
from repro.isa.assembler import assemble
from repro.isa.interp import run_program
from repro.isa.program import Program
from repro.isa.trace import Trace
from repro.workloads import kernels


@dataclass(frozen=True)
class WorkloadSpec:
    """One catalog entry."""

    name: str
    suite: str                      # "SPEC" or "MiBench"
    builder: Callable[..., str]
    params: Tuple[Tuple[str, object], ...]
    description: str

    def source(self) -> str:
        return self.builder(**dict(self.params))


def _spec(name: str, suite: str, builder: Callable[..., str],
          description: str, **params) -> WorkloadSpec:
    return WorkloadSpec(name=name, suite=suite, builder=builder,
                        params=tuple(sorted(params.items())),
                        description=description)


CATALOG: Dict[str, WorkloadSpec] = {spec.name: spec for spec in [
    # ---- SPEC CPU 2017 ----------------------------------------------------
    _spec("600.perlbench_1", "SPEC", kernels.hash_probe,
          "symbol-table probing with paired field compares",
          iters=1300, buckets_kb=32, compare_fields=2, stores_per_hit=3,
          hit_mask=1),
    _spec("600.perlbench_2", "SPEC", kernels.hash_probe,
          "wider buckets, three-field compares",
          iters=1200, buckets_kb=64, compare_fields=3, stores_per_hit=3,
          hit_mask=1),
    _spec("600.perlbench_3", "SPEC", kernels.hash_probe,
          "small hot table, store-heavy hits",
          iters=1300, buckets_kb=16, compare_fields=2, stores_per_hit=4,
          hit_mask=1),
    _spec("602.gcc_1", "SPEC", kernels.streaming_stores,
          "IR emission: store bursts with input loads",
          iters=1200, stores_per_iter=4, loads_per_iter=2,
          footprint_kb=32, alu_ops=3),
    _spec("602.gcc_2", "SPEC", kernels.streaming_stores,
          "larger output window",
          iters=1100, stores_per_iter=5, loads_per_iter=2,
          footprint_kb=64, alu_ops=2),
    _spec("602.gcc_3", "SPEC", kernels.struct_walk,
          "tree-node field walks, mixed widths, same-line gaps",
          iters=1300, fields=3, field_gap=16, field_sizes=(8, 4),
          alu_between=1, footprint_kb=32),
    _spec("605.mcf", "SPEC", kernels.pointer_chase,
          "network-simplex pointer chasing, wild offsets",
          iters=1500, nodes=1024, wild_offset=True, alu_between=1),
    _spec("620.omnetpp", "SPEC", kernels.event_queue,
          "event-heap sift with different-base pairs",
          iters=1400, heap_kb=32),
    _spec("623.xalancbmk", "SPEC", kernels.struct_walk,
          "DOM node field walks (highest coverage)",
          iters=1400, fields=4, field_gap=8, alu_between=2,
          footprint_kb=16),
    _spec("631.deepsjeng", "SPEC", kernels.pointer_chase,
          "transposition-table probing, branchy",
          iters=1700, nodes=512, wild_offset=True, alu_between=2),
    _spec("641.leela", "SPEC", kernels.pointer_chase,
          "MCTS tree walks (lowest accuracy)",
          iters=1300, nodes=1024, wild_offset=True, alu_between=1,
          payload_loads=3),
    _spec("648.exchange2", "SPEC", kernels.block_transform,
          "sudoku block copies",
          iters=650, block_loads=8, block_stores=8, macs=4,
          footprint_kb=8),
    _spec("657.xz_1", "SPEC", kernels.streaming_stores,
          "match-table writes between coder updates: SQ-bound with "
          "non-consecutive store pairs (the paper's +70% case)",
          iters=900, stores_per_iter=6, loads_per_iter=1,
          footprint_kb=32, alu_ops=2, alu_between_stores=1),
    _spec("657.xz_2", "SPEC", kernels.bit_ops,
          "range-coder bit manipulation (Others-idiom heavy)",
          iters=550, idiom_groups=3, memory_ops=2),
    # ---- MiBench ------------------------------------------------------------
    _spec("adpcm", "MiBench", kernels.byte_scan,
          "16/32-bit sample stream (asymmetric contiguous pairs)",
          iters=1700, element_bytes=2, elements_per_iter=4,
          rotate_mix=True, mixed_sizes=True),
    _spec("basicmath", "MiBench", kernels.fp_butterfly,
          "double-precision kernels",
          iters=1000, footprint_kb=8),
    _spec("bitcount", "MiBench", kernels.bit_ops,
          "bit tricks, almost no memory (Others-dominant)",
          iters=600, idiom_groups=4, memory_ops=0),
    _spec("blowfish", "MiBench", kernels.table_mix,
          "4 S-box lookups per round (lowest coverage)",
          iters=500, table_kb=4, lookups=4, stores_per_iter=1),
    _spec("crc32", "MiBench", kernels.byte_scan,
          "byte-at-a-time table CRC",
          iters=1800, element_bytes=1, elements_per_iter=4),
    _spec("dijkstra", "MiBench", kernels.two_stream_walk,
          "adjacency and distance arrays in lockstep (DBR pairs)",
          iters=1800, gap=40, alu_between=3, footprint_kb=64),
    _spec("fft", "MiBench", kernels.fp_butterfly,
          "radix-2 butterflies over a larger window",
          iters=1000, footprint_kb=32),
    _spec("gsm_toast", "MiBench", kernels.block_transform,
          "LPC analysis blocks (MAC heavy, same-line load gaps)",
          iters=600, block_loads=8, block_stores=4, macs=8, load_gap=16),
    _spec("gsm_untoast", "MiBench", kernels.block_transform,
          "synthesis filter blocks",
          iters=650, block_loads=4, block_stores=6, macs=4),
    _spec("jpeg", "MiBench", kernels.block_transform,
          "8x8 DCT blocks",
          iters=620, block_loads=8, block_stores=4, macs=6),
    _spec("patricia", "MiBench", kernels.pointer_chase,
          "trie descent with small payloads",
          iters=1800, nodes=1024, wild_offset=False, alu_between=2),
    _spec("qsort", "MiBench", kernels.sort_partition,
          "partition compare-and-swap",
          iters=1600, footprint_kb=8),
    _spec("rijndael", "MiBench", kernels.table_mix,
          "T-table rounds with paired state writes",
          iters=520, table_kb=16, lookups=4, stores_per_iter=2),
    _spec("rsynth", "MiBench", kernels.streaming_stores,
          "synthesis buffers: store bursts behind loads",
          iters=1150, stores_per_iter=4, loads_per_iter=2,
          footprint_kb=16, alu_ops=4),
    _spec("sha", "MiBench", kernels.byte_scan,
          "message-schedule word loads with rotates",
          iters=1500, element_bytes=4, elements_per_iter=4,
          rotate_mix=True),
    _spec("stringsearch", "MiBench", kernels.byte_scan,
          "byte scanning, six probes per step",
          iters=1400, element_bytes=1, elements_per_iter=6),
    _spec("susan", "MiBench", kernels.bit_ops,
          "pixel mask arithmetic (Others-dominant, Figure 2 exception)",
          iters=550, idiom_groups=4, memory_ops=1),
    _spec("typeset", "MiBench", kernels.streaming_stores,
          "glyph placement: store bursts with position updates between "
          "them (+20% in the paper)",
          iters=1000, stores_per_iter=5, loads_per_iter=1,
          footprint_kb=64, stride=40, alu_ops=2, alu_between_stores=1),
]}


def workload_names(suite: str = None) -> List[str]:
    """All catalog names, optionally filtered by suite."""
    return [name for name, spec in CATALOG.items()
            if suite is None or spec.suite == suite]


def ensure_known(names: List[str]) -> List[str]:
    """Validate workload names against the catalog up front.

    Raises :class:`ValueError` naming every unknown workload and the
    available catalog, so a typo surfaces immediately instead of as an
    opaque ``KeyError`` deep inside ``build_workload``.
    """
    unknown = [name for name in names if name not in CATALOG]
    if unknown:
        raise ValueError(
            "unknown workload%s %s (see `repro workloads`); available: %s"
            % ("s" if len(unknown) > 1 else "",
               ", ".join(repr(name) for name in unknown),
               ", ".join(workload_names())))
    return list(names)


def build_program(name: str) -> Program:
    """Assemble the named workload's kernel."""
    spec = CATALOG[name]
    return assemble(spec.source(), name=name)


#: Default dynamic µ-op cap per workload trace — re-exported from
#: :mod:`repro.config`, the single authoritative definition shared by
#: every CLI entry point (run/bench/analyze/debug/profile).
DEFAULT_MAX_UOPS = _DEFAULT_MAX_UOPS


def build_workload(name: str, max_uops: int = DEFAULT_MAX_UOPS) -> Trace:
    """The named workload's dynamic trace: capture once, replay many.

    Traces are deterministic, so each ``(name, max_uops)`` goes through
    :func:`repro.workloads.trace_store.cached_trace`: every call in one
    process returns the *same* :class:`~repro.isa.trace.Trace` object,
    and other processes and later runs replay the stored trace instead
    of re-interpreting the kernel.
    """
    # Imported lazily: trace_store imports this module for the catalog.
    from repro.workloads.trace_store import cached_trace, workload_salt
    return cached_trace(
        name, max_uops, workload_salt(name),
        lambda: run_program(build_program(name), max_uops=max_uops))
