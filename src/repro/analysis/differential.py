"""Differential fusion checker: prove the pipeline's fusions correct.

Three independent producers of "what got fused" are cross-validated
against the reference legality analyzer
(:mod:`repro.analysis.legality`) and against a fresh functional
re-execution:

1. **Oracle containment** — every pair
   :func:`~repro.fusion.oracle.cached_oracle_pairs` discovers must be
   in the analyzer's provably-legal set (the oracle is an optimized
   scan; the analyzer is the reference semantics).
2. **Pipeline containment** — every fused pair the pipeline actually
   *commits* (observed through an armed
   :class:`~repro.obs.commit_log.CommitLog`) must be legal; committed
   'Others' pairs must be adjacent Table I idioms; UCH discoveries
   must honour the hardware contract (same kind, in commit order,
   same granularity-line tag).
3. **Architectural state** — the committed stream must contain every
   trace µ-op exactly once with heads in program order, and replaying
   the committed store drains (values from a fresh
   :class:`~repro.isa.interp.Interpreter` with ``record_stores``) into
   a clean memory image must bit-match the fresh interpreter's final
   memory.

Register-state equivalence follows without a separate register
comparison: the pipeline is trace-driven, so it executes *exactly* the
µ-op stream the interpreter produced (checked here by replaying the
workload's program on a fresh interpreter and comparing the streams
µ-op by µ-op).  Registers are a deterministic function of that stream,
so stream identity plus commit completeness plus memory bit-equality
is architectural-state equality.  Fusion can therefore only corrupt
state through *memory ordering* — which is exactly what the drain
replay checks, byte for byte.

Every mismatch is reported as a :class:`Divergence` with µ-op
provenance; ``repro analyze`` renders the report and exits non-zero on
any divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Optional

from repro.analysis.legality import LegalityAnalyzer, LegalityReport, Reason
from repro.analysis.sanitizer import Sanitizer, SanitizerError
from repro.config import FusionMode, ProcessorConfig
from repro.fusion.idioms import match_idiom
from repro.fusion.oracle import cached_oracle_pairs, oracle_rejection_census
from repro.isa.interp import Interpreter, Memory
from repro.isa.trace import Trace
from repro.obs import CommitLog
from repro.pipeline.core import CoreStats, PipelineCore

__all__ = [
    "AnalysisReport",
    "Divergence",
    "ModeCheck",
    "analyze_trace",
    "analyze_workload",
]

#: Fusion kinds (``FusionKind.value``) that carry a memory pair.
_MEMORY_KINDS = ("csf", "ncsf")


@dataclass(frozen=True)
class Divergence:
    """One cross-validation failure, with µ-op provenance."""

    #: Machine-readable kind: ``replay-stream``, ``oracle-illegal``,
    #: ``fused-illegal``, ``other-idiom``, ``uch-contract``,
    #: ``commit-incomplete``, ``commit-order``, ``drain-coverage``,
    #: ``memory-mismatch``, ``sanitizer``, ``hang``.
    kind: str
    detail: str
    head_seq: Optional[int] = None
    tail_seq: Optional[int] = None

    def __str__(self) -> str:
        where = ""
        if self.head_seq is not None:
            where = " [seq %d%s]" % (
                self.head_seq,
                "" if self.tail_seq is None else " + %d" % self.tail_seq)
        return "%s%s: %s" % (self.kind, where, self.detail)


@dataclass
class ModeCheck:
    """Differential results for one fusion mode."""

    mode: str
    #: The run's counters.  A run the sanitizer or the cycle limit
    #: stopped reports the cycle it stopped at.
    stats: CoreStats = field(default_factory=CoreStats)
    committed_pairs: int = 0
    uch_discoveries: int = 0
    sanitizer_checks: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass
class AnalysisReport:
    """Full legality + differential report for one workload."""

    workload: str
    num_uops: int
    legality: LegalityReport
    oracle_pairs: int
    oracle_census: dict[Reason, int]
    trace_divergences: list[Divergence] = field(default_factory=list)
    checks: list[ModeCheck] = field(default_factory=list)

    @property
    def divergences(self) -> list[Divergence]:
        out = list(self.trace_divergences)
        for check in self.checks:
            out.extend(check.divergences)
        return out

    @property
    def ok(self) -> bool:
        return not self.divergences

    def render(self) -> str:
        lines = []
        lines.append("workload %s: %d uops, %d legal pairs / %d candidates"
                     % (self.workload, self.num_uops,
                        len(self.legality.legal), self.legality.candidates))
        for reason in sorted(self.legality.reason_counts,
                             key=lambda r: r.value):
            lines.append("  %-22s %d"
                         % (reason.value, self.legality.reason_counts[reason]))
        lines.append("oracle: %d pairs (all legal: %s); rejections:"
                     % (self.oracle_pairs,
                        "yes" if not any(
                            d.kind == "oracle-illegal"
                            for d in self.trace_divergences) else "NO"))
        for reason in sorted(self.oracle_census, key=lambda r: r.value):
            lines.append("  %-22s %d"
                         % (reason.value, self.oracle_census[reason]))
        for check in self.checks:
            lines.append(
                "%-14s %8d cycles  ipc %.3f  %5d fused pairs  "
                "%d uch  %d repairs  %d sanitizer checks  -> %s"
                % (check.mode, check.stats.cycles, check.stats.ipc,
                   check.committed_pairs, check.uch_discoveries,
                   check.stats.fusion_flushes, check.sanitizer_checks,
                   "ok" if check.ok else
                   "%d DIVERGENCES" % len(check.divergences)))
        for divergence in self.divergences:
            lines.append("DIVERGENCE %s" % divergence)
        if self.ok:
            lines.append("no divergences; committed state bit-matches the "
                         "functional replay")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "num_uops": self.num_uops,
            "legality": self.legality.to_dict(),
            "oracle_pairs": self.oracle_pairs,
            "oracle_census": {reason.value: count for reason, count
                              in self.oracle_census.items()},
            "modes": [{
                "mode": check.mode,
                "stats": check.stats.to_dict(),
                "committed_pairs": check.committed_pairs,
                "uch_discoveries": check.uch_discoveries,
                "sanitizer_checks": check.sanitizer_checks,
                "divergences": [str(d) for d in check.divergences],
            } for check in self.checks],
            "trace_divergences": [str(d) for d in self.trace_divergences],
            "ok": self.ok,
        }


# -- stream comparison -------------------------------------------------------

def _compare_streams(trace: Trace, fresh: Trace,
                     limit: int = 10) -> list[Divergence]:
    """The stored/shared trace must be the fresh interpreter's stream."""
    out: list[Divergence] = []
    if len(trace) != len(fresh):
        out.append(Divergence(
            "replay-stream",
            "trace has %d uops, fresh interpretation %d"
            % (len(trace), len(fresh))))
    for stored, replay in zip(trace, fresh):
        if (stored.pc != replay.pc
                or stored.inst.mnemonic != replay.inst.mnemonic
                or stored.addr != replay.addr
                or stored.size != replay.size
                or stored.taken != replay.taken):
            out.append(Divergence(
                "replay-stream",
                "uop mismatch: stored %r vs fresh %r" % (stored, replay),
                head_seq=stored.seq))
            if len(out) >= limit:
                break
    return out


# -- per-mode pipeline check -------------------------------------------------

def check_pipeline(trace: Trace, config: ProcessorConfig,
                   legality: LegalityReport,
                   store_values: Optional[dict[int, int]] = None,
                   baseline_memory: Optional[Memory] = None,
                   expected_memory: Optional[dict[int, bytes]] = None,
                   sanitize: bool = True) -> ModeCheck:
    """Run one mode with the commit log armed and validate everything.

    ``store_values`` / ``baseline_memory`` / ``expected_memory`` enable
    the architectural-state half (drain replay); without them only the
    fusion-legality and completeness checks run (synthesized traces
    have no program to re-interpret).
    """
    check = ModeCheck(mode=config.fusion_mode.value)
    clog = CommitLog()
    sanitizer = Sanitizer() if sanitize else None
    core = PipelineCore(trace, config, commit_log=clog, sanitizer=sanitizer)
    completed = False
    try:
        core.run()
        completed = True
    except SanitizerError as exc:
        check.divergences.append(Divergence("sanitizer", str(exc)))
    except RuntimeError as exc:
        check.divergences.append(Divergence("hang", str(exc)))
    check.stats = core.stats
    # ``run`` publishes the cycle count only when it returns.
    check.stats.cycles = core.now
    if sanitizer is not None:
        check.sanitizer_checks = sanitizer.checks_run
    check.uch_discoveries = len(clog.uch_pairs)

    # 1. Completeness: every trace µ-op commits exactly once, heads in
    #    program order.
    if completed:
        committed = clog.committed_seqs()
        if sorted(committed) != list(range(len(trace))):
            seen = set(committed)
            missing = [s for s in range(len(trace)) if s not in seen][:5]
            check.divergences.append(Divergence(
                "commit-incomplete",
                "%d commits for %d uops; first missing: %s"
                % (len(committed), len(trace), missing)))
        heads = [seq for seq, _tail, _kind in clog.commits]
        if any(b <= a for a, b in zip(heads, heads[1:])):
            check.divergences.append(Divergence(
                "commit-order", "fused heads committed out of order"))

    # 2. Every committed fused pair is statically legal.
    fused = clog.fused_pairs()
    check.committed_pairs = len(fused)
    for head_seq, tail_seq, kind in fused:
        if kind in _MEMORY_KINDS:
            if not legality.is_legal(head_seq, tail_seq):
                verdict = legality.explain(head_seq, tail_seq)
                check.divergences.append(Divergence(
                    "fused-illegal",
                    "committed %s pair is illegal: %s"
                    % (kind, verdict.describe()),
                    head_seq=head_seq, tail_seq=tail_seq))
        else:  # 'other' idiom pairs: adjacent and a real Table I idiom
            if tail_seq != head_seq + 1 \
                    or match_idiom(trace[head_seq].inst,
                                   trace[tail_seq].inst) is None:
                check.divergences.append(Divergence(
                    "other-idiom",
                    "committed 'others' pair is not an adjacent idiom",
                    head_seq=head_seq, tail_seq=tail_seq))

    # 3. UCH discoveries honour the hardware contract.
    granularity = config.cache_access_granularity
    for head_seq, tail_seq, kind in clog.uch_pairs:
        if head_seq < 0:
            continue  # entry predates seq provenance (cannot happen live)
        head, tail = trace[head_seq], trace[tail_seq]
        same_kind = (head.is_load and tail.is_load) \
            or (head.is_store and tail.is_store)
        if (not same_kind or head_seq >= tail_seq
                or head.addr // granularity != tail.addr // granularity):
            check.divergences.append(Divergence(
                "uch-contract",
                "%s discovery %r + %r violates the UCH contract"
                % (kind, head, tail),
                head_seq=head_seq, tail_seq=tail_seq))

    # 4. Architectural memory: replay the committed drains.
    if completed and store_values is not None \
            and baseline_memory is not None and expected_memory is not None:
        drained = [sub for _head, subs in clog.drains for sub in subs]
        expected_stores = sorted(
            u.seq for u in trace if u.is_store)
        if sorted(seq for _a, _s, seq in drained) != expected_stores:
            check.divergences.append(Divergence(
                "drain-coverage",
                "%d drained store accesses vs %d trace stores"
                % (len(drained), len(expected_stores))))
        else:
            for addr, size, seq in drained:
                baseline_memory.write(addr, store_values[seq], size)
            image = baseline_memory.snapshot()
            if image != expected_memory:
                pages = sorted(set(image) ^ set(expected_memory)) or sorted(
                    page for page in image
                    if image[page] != expected_memory.get(page))
                check.divergences.append(Divergence(
                    "memory-mismatch",
                    "drain replay diverges from functional memory on "
                    "page(s) %s" % pages[:5]))
    return check


# -- entry points ------------------------------------------------------------

def _fresh_baseline(program) -> Memory:
    memory = Memory()
    for base, data in program.data_segments.items():
        memory.load_segment(base, data)
    return memory


def analyze_trace(trace: Trace,
                  modes: Optional[Sequence[FusionMode]] = None,
                  config: Optional[ProcessorConfig] = None,
                  sanitize: bool = True,
                  store_values: Optional[dict[int, int]] = None,
                  program=None,
                  expected_memory: Optional[dict[int, bytes]] = None,
                  ) -> AnalysisReport:
    """Differential analysis of one (possibly synthesized) trace."""
    config = config or ProcessorConfig()
    analyzer = LegalityAnalyzer(
        trace, granularity=config.cache_access_granularity,
        max_distance=config.max_fusion_distance, name=trace.name)
    legality = analyzer.analyze()

    census: dict[Reason, int] = oracle_rejection_census(
        trace, granularity=config.cache_access_granularity,
        max_distance=config.max_fusion_distance)
    pairs = cached_oracle_pairs(
        trace, granularity=config.cache_access_granularity,
        max_distance=config.max_fusion_distance)
    report = AnalysisReport(
        workload=trace.name, num_uops=len(trace), legality=legality,
        oracle_pairs=len(pairs), oracle_census=census)
    for pair in pairs:
        if not legality.is_legal(pair.head_seq, pair.tail_seq):
            verdict = legality.explain(pair.head_seq, pair.tail_seq)
            report.trace_divergences.append(Divergence(
                "oracle-illegal",
                "oracle pair outside the legal set: %s"
                % verdict.describe(),
                head_seq=pair.head_seq, tail_seq=pair.tail_seq))

    for mode in (modes if modes is not None else list(FusionMode)):
        baseline = _fresh_baseline(program) if program is not None else None
        report.checks.append(check_pipeline(
            trace, config.with_mode(mode), legality,
            store_values=store_values, baseline_memory=baseline,
            expected_memory=expected_memory, sanitize=sanitize))
    return report


def analyze_workload(name: str,
                     modes: Optional[Sequence[FusionMode]] = None,
                     config: Optional[ProcessorConfig] = None,
                     max_uops: Optional[int] = None,
                     sanitize: bool = True) -> AnalysisReport:
    """Full differential analysis of one catalog workload.

    Re-interprets the workload's program on a fresh interpreter
    (recording every stored value), cross-checks the shared trace
    against that stream, then runs every requested fusion mode with the
    commit log (and optionally the sanitizer) armed.
    """
    from repro.workloads.catalog import (
        DEFAULT_MAX_UOPS, build_program, build_workload, ensure_known)
    ensure_known([name])
    cap = max_uops or DEFAULT_MAX_UOPS
    trace = build_workload(name, max_uops=cap)
    program = build_program(name)
    interp = Interpreter(program, max_uops=cap, record_stores=True)
    fresh = interp.run()
    report = analyze_trace(
        trace, modes=modes, config=config, sanitize=sanitize,
        store_values=interp.store_values, program=program,
        expected_memory=interp.memory.snapshot())
    report.workload = name
    report.trace_divergences[:0] = _compare_streams(trace, fresh)
    return report
