"""Static↔dynamic differential contract.

The static enumerator (:mod:`repro.analysis.static.candidates`) claims
to see every fusion opportunity a decoder could; the dynamic side (the
oracle scan and the pipeline's committed pairs) claims to realize only
legal ones.  The contract that keeps both honest:

    every dynamically-legal pair — oracle-identified or committed
    fused by the pipeline — must map, at its PC pair, to a static
    candidate with verdict YES, or carry a *machine-checkable* reason
    class why the static pass could not see it.

The admissible reason classes are closed and checkable:

* ``alias-dependent`` — the static candidate exists with verdict
  MAYBE: legality hinged on runtime addresses the dynamic run
  happened to resolve favourably;
* ``indirect-target`` — the dynamic catalyst crossed a ``jalr``;
  the static CFG has no edge to follow (the block is flagged
  ``indirect_exit``);
* ``distance>window`` — the dynamic pair's distance exceeds the
  static window (only possible when the static analyzer was run with
  a smaller window than the dynamic one);
* ``path-budget`` — the head's abstract walk was truncated by the
  path budget before reaching the tail.

Anything else is a contract violation: a bug in one of the two
analyzers.  ``repro static`` renders the per-workload table and exits
non-zero on any violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Optional

from repro.config import FusionMode, ProcessorConfig
from repro.isa.instructions import OpClass
from repro.isa.trace import Trace
from repro.isa.program import Program

from .candidates import (DEFAULT_PATH_BUDGET, StaticFusionAnalyzer,
                         StaticReport, StaticVerdict)

__all__ = [
    "Explanation",
    "PairCheck",
    "ModeContract",
    "WorkloadStaticContract",
    "explain_dynamic_pair",
    "check_workload_contract",
    "static_report_for",
    "render_contract_table",
]

#: Fusion kinds (``FusionKind.value``) that carry a memory pair.
_MEMORY_KINDS = ("csf", "ncsf")


class Explanation:
    """Machine-checkable explanation classes (plain str constants)."""

    STATIC_YES = "static-candidate"
    ALIAS_DEPENDENT = "alias-dependent"
    INDIRECT_TARGET = "indirect-target"
    DISTANCE = "distance>window"
    PATH_BUDGET = "path-budget"
    # -- violations (contract failures) -------------------------------
    STATIC_NO = "static-no"
    MISSING = "missing-candidate"
    UNKNOWN_PC = "pc-outside-program"

    OK = (STATIC_YES, ALIAS_DEPENDENT, INDIRECT_TARGET, DISTANCE,
          PATH_BUDGET)
    VIOLATIONS = (STATIC_NO, MISSING, UNKNOWN_PC)


@dataclass(frozen=True)
class PairCheck:
    """One dynamic pair mapped through the static report."""

    head_seq: int
    tail_seq: int
    head_pc: int
    tail_pc: int
    source: str          # "oracle" | "committed:<mode>"
    explanation: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.explanation in Explanation.OK

    def describe(self) -> str:
        return ("%s pair (%d @0x%x -> %d @0x%x): %s%s"
                % (self.source, self.head_seq, self.head_pc,
                   self.tail_seq, self.tail_pc, self.explanation,
                   " — " + self.detail if self.detail else ""))


def explain_dynamic_pair(trace: Trace, static: StaticReport,
                         head_seq: int, tail_seq: int,
                         source: str = "oracle",
                         analyzer: Optional[StaticFusionAnalyzer] = None,
                         ) -> PairCheck:
    """Classify one dynamically-legal pair against the static report.

    ``analyzer`` (when given) supplies the CFG for PC mapping; without
    it PCs are mapped arithmetically from the report's program size.
    """
    head = trace[head_seq]
    tail = trace[tail_seq]

    def build(explanation: str, detail: str = "") -> PairCheck:
        return PairCheck(
            head_seq=head_seq, tail_seq=tail_seq,
            head_pc=head.pc, tail_pc=tail.pc,
            source=source, explanation=explanation, detail=detail)

    from repro.isa.program import CODE_BASE, INSTRUCTION_BYTES
    indices = []
    for pc in (head.pc, tail.pc):
        index, rem = divmod(pc - CODE_BASE, INSTRUCTION_BYTES)
        if rem or not 0 <= index < static.instructions:
            return build(Explanation.UNKNOWN_PC,
                         "pc 0x%x not in the static table" % pc)
        indices.append(index)
    head_index, tail_index = indices

    candidate = static.candidate(head_index, tail_index)
    if candidate is not None:
        if candidate.verdict is StaticVerdict.YES:
            return build(Explanation.STATIC_YES, candidate.describe())
        if candidate.verdict is StaticVerdict.MAYBE:
            return build(Explanation.ALIAS_DEPENDENT,
                         candidate.describe())
    # No usable candidate: look for a checkable reason the walker
    # could not see this dynamic path.
    for seq in range(head_seq, tail_seq):
        inst = trace[seq].inst
        if inst.opclass is OpClass.JUMP and inst.target is None:
            return build(Explanation.INDIRECT_TARGET,
                         "catalyst crosses jalr at seq %d (0x%x)"
                         % (seq, trace[seq].pc))
    if tail_seq - head_seq > static.window:
        return build(Explanation.DISTANCE,
                     "dynamic distance %d > static window %d"
                     % (tail_seq - head_seq, static.window))
    if head_index in static.truncated_heads:
        return build(Explanation.PATH_BUDGET,
                     "head walk truncated at budget %d"
                     % static.path_budget)
    if candidate is not None:
        return build(
            Explanation.STATIC_NO,
            "static verdict NO (%s) but the pair was dynamically legal"
            % ",".join(r.value for r in candidate.reasons))
    return build(Explanation.MISSING,
                 "no static candidate at (0x%x, 0x%x)"
                 % (head.pc, tail.pc))


@dataclass
class ModeContract:
    """Contract results for one dynamic pair source."""

    mode: str            # "oracle" or a FusionMode value
    dynamic_pairs: int = 0
    explained: dict = field(default_factory=dict)  # explanation -> count
    violations: list = field(default_factory=list)  # PairCheck
    #: Static candidate keys witnessed by this source.
    witnessed: frozenset = frozenset()

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def exact(self) -> int:
        return self.explained.get(Explanation.STATIC_YES, 0)

    @property
    def coverage(self) -> float:
        """Fraction of dynamic pairs the static pass fully explains."""
        if not self.dynamic_pairs:
            return 1.0
        ok = sum(count for explanation, count in self.explained.items()
                 if explanation in Explanation.OK)
        return ok / self.dynamic_pairs

    @property
    def exact_coverage(self) -> float:
        """Fraction mapped to a definite (YES) static candidate."""
        if not self.dynamic_pairs:
            return 1.0
        return self.exact / self.dynamic_pairs

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "dynamic_pairs": self.dynamic_pairs,
            "explained": dict(sorted(self.explained.items())),
            "coverage": self.coverage,
            "exact_coverage": self.exact_coverage,
            "violations": [check.describe() for check in self.violations],
            "ok": self.ok,
        }


@dataclass
class WorkloadStaticContract:
    """Static report + contract results for one workload."""

    workload: str
    num_uops: int
    static: StaticReport
    modes: list = field(default_factory=list)  # ModeContract

    @property
    def ok(self) -> bool:
        return all(mode.ok for mode in self.modes)

    @property
    def violations(self) -> list:
        out = []
        for mode in self.modes:
            out.extend(mode.violations)
        return out

    @property
    def realized_keys(self) -> frozenset:
        keys: frozenset = frozenset()
        for mode in self.modes:
            keys |= mode.witnessed
        return keys

    @property
    def realized_fraction(self) -> float:
        """Static candidates (YES/MAYBE) witnessed by any dynamic run."""
        fusable = self.static.fusable
        if not fusable:
            return 0.0
        realized = sum(
            1 for key in self.realized_keys
            if self.static.candidates.get(key) is not None
            and self.static.candidates[key].verdict
            is not StaticVerdict.NO)
        return realized / fusable

    def mode(self, name: str) -> Optional[ModeContract]:
        for mode in self.modes:
            if mode.mode == name:
                return mode
        return None

    def render(self) -> str:
        counts = self.static.verdict_counts()
        lines = [
            "workload %s: %d uops, %d static instructions in %d blocks"
            % (self.workload, self.num_uops, self.static.instructions,
               self.static.blocks),
            "  static candidates: %d yes, %d maybe, %d no"
            " (%d loop-carried, %d cross-block, %d truncated heads)"
            % (counts[StaticVerdict.YES], counts[StaticVerdict.MAYBE],
               counts[StaticVerdict.NO],
               sum(1 for c in self.static.candidates.values()
                   if c.loop_carried),
               sum(1 for c in self.static.candidates.values()
                   if c.cross_block),
               len(self.static.truncated_heads)),
        ]
        for mode in self.modes:
            lines.append(
                "  %-18s %6d pairs  coverage %6.2f%% (exact %6.2f%%)"
                "  -> %s"
                % (mode.mode, mode.dynamic_pairs, 100 * mode.coverage,
                   100 * mode.exact_coverage,
                   "ok" if mode.ok
                   else "%d VIOLATIONS" % len(mode.violations)))
        lines.append("  dynamically realized: %.2f%% of fusable "
                     "static candidates" % (100 * self.realized_fraction))
        for check in self.violations:
            lines.append("  VIOLATION %s" % check.describe())
        return "\n".join(lines)

    def to_dict(self, include_candidates: bool = False) -> dict:
        return {
            "workload": self.workload,
            "num_uops": self.num_uops,
            "static": self.static.to_dict(
                include_candidates=include_candidates),
            "modes": [mode.to_dict() for mode in self.modes],
            "realized_fraction": self.realized_fraction,
            "ok": self.ok,
        }


# -- dynamic pair sources ----------------------------------------------------

def _oracle_pairs(trace: Trace, config: ProcessorConfig) -> list:
    from repro.fusion.oracle import cached_oracle_pairs
    pairs = cached_oracle_pairs(
        trace, granularity=config.cache_access_granularity,
        max_distance=config.max_fusion_distance)
    return [(pair.head_seq, pair.tail_seq) for pair in pairs]


def _committed_pairs(trace: Trace, config: ProcessorConfig) -> list:
    """Memory pairs the pipeline commits fused under ``config``."""
    from repro.obs import CommitLog
    from repro.pipeline.core import PipelineCore
    clog = CommitLog()
    PipelineCore(trace, config, commit_log=clog).run()
    return [(head_seq, tail_seq)
            for head_seq, tail_seq, kind in clog.fused_pairs()
            if kind in _MEMORY_KINDS]


def _check_pairs(trace: Trace, static: StaticReport, pairs: Sequence,
                 source: str, mode_name: str) -> ModeContract:
    contract = ModeContract(mode=mode_name)
    contract.dynamic_pairs = len(pairs)
    witnessed = set()
    from repro.isa.program import CODE_BASE, INSTRUCTION_BYTES
    for head_seq, tail_seq in pairs:
        check = explain_dynamic_pair(trace, static, head_seq, tail_seq,
                                     source=source)
        contract.explained[check.explanation] = \
            contract.explained.get(check.explanation, 0) + 1
        if not check.ok:
            contract.violations.append(check)
        head_index = (check.head_pc - CODE_BASE) // INSTRUCTION_BYTES
        tail_index = (check.tail_pc - CODE_BASE) // INSTRUCTION_BYTES
        witnessed.add((head_index, tail_index))
    contract.witnessed = frozenset(witnessed)
    return contract


def _fusion_mode_of(label) -> FusionMode:
    """Tolerant mode lookup: ``"helios"`` → ``FusionMode.HELIOS``."""
    if isinstance(label, FusionMode):
        return label
    for mode in FusionMode:
        if label.lower() in (mode.value.lower(), mode.name.lower()):
            return mode
    return FusionMode(label)  # raises ValueError with the full repr


# -- entry points ------------------------------------------------------------

def static_report_for(program: Program,
                      config: Optional[ProcessorConfig] = None,
                      path_budget: int = DEFAULT_PATH_BUDGET,
                      ) -> tuple[StaticFusionAnalyzer, StaticReport]:
    """Analyzer + report for one program under ``config``'s window."""
    config = config or ProcessorConfig()
    analyzer = StaticFusionAnalyzer(
        program, granularity=config.cache_access_granularity,
        max_distance=config.max_fusion_distance,
        path_budget=path_budget)
    return analyzer, analyzer.enumerate()


def check_workload_contract(name: str,
                            modes: Sequence[str] = ("oracle", "helios"),
                            config: Optional[ProcessorConfig] = None,
                            max_uops: Optional[int] = None,
                            path_budget: int = DEFAULT_PATH_BUDGET,
                            ) -> WorkloadStaticContract:
    """Full static↔dynamic contract for one catalog workload.

    ``modes`` entries are either the literal ``"oracle"`` (the greedy
    oracle's legal pair set — no pipeline run) or a
    :class:`~repro.config.FusionMode` value such as ``"helios"`` (the
    pairs that mode's pipeline actually commits).
    """
    from repro.workloads.catalog import (
        DEFAULT_MAX_UOPS, build_program, build_workload, ensure_known)
    ensure_known([name])
    config = config or ProcessorConfig()
    cap = max_uops or DEFAULT_MAX_UOPS
    trace = build_workload(name, max_uops=cap)
    program = build_program(name)
    _analyzer, static = static_report_for(
        program, config=config, path_budget=path_budget)
    result = WorkloadStaticContract(
        workload=name, num_uops=len(trace), static=static)
    for mode in modes:
        if mode == "oracle":
            pairs = _oracle_pairs(trace, config)
            result.modes.append(_check_pairs(
                trace, static, pairs, "oracle", "oracle"))
        else:
            fusion_mode = _fusion_mode_of(mode)
            pairs = _committed_pairs(trace, config.with_mode(fusion_mode))
            result.modes.append(_check_pairs(
                trace, static, pairs, "committed:%s" % fusion_mode.value,
                fusion_mode.value))
    return result


def render_contract_table(contracts: Sequence[WorkloadStaticContract],
                          ) -> str:
    """The per-workload static-vs-dynamic opportunity table."""
    header = ("%-16s %6s %6s %6s  %8s %8s  %8s %9s  %5s"
              % ("workload", "yes", "maybe", "no",
                 "oracle", "cov%", "helios", "realized%", "ok"))
    lines = [header, "-" * len(header)]
    for contract in contracts:
        counts = contract.static.verdict_counts()
        oracle = contract.mode("oracle")
        committed = None
        for mode in contract.modes:
            if mode.mode != "oracle":
                committed = mode
                break
        lines.append(
            "%-16s %6d %6d %6d  %8s %8s  %8s %8.1f%%  %5s"
            % (contract.workload,
               counts[StaticVerdict.YES], counts[StaticVerdict.MAYBE],
               counts[StaticVerdict.NO],
               "%d" % oracle.dynamic_pairs if oracle else "-",
               "%.1f%%" % (100 * oracle.coverage) if oracle else "-",
               "%d" % committed.dynamic_pairs if committed else "-",
               100 * contract.realized_fraction,
               "yes" if contract.ok else "NO"))
    total_ok = all(contract.ok for contract in contracts)
    lines.append("contract: %s (%d workloads)"
                 % ("ok" if total_ok else "VIOLATED", len(contracts)))
    return "\n".join(lines)
