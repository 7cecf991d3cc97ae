"""Static fusion-candidate enumeration over CFG paths.

The dynamic legality analyzer (:mod:`repro.analysis.legality`)
classifies one *occurrence* of a ``(head, tail)`` pair; this walker
classifies every ``(head PC, tail PC)`` pair the code could ever
produce, by abstractly executing each CFG path out of every memory
instruction up to the fusion window.

Every legality rule from ``LegalityAnalyzer._classify`` is mirrored
with three-valued truth:

* facts that are decidable from the static stream alone (kind,
  catalyst stores, serializing µ-ops, destination/base register
  identity, path distance) are evaluated exactly;
* facts that depend on runtime addresses (span/contiguity, catalyst
  load overlap, memory-carried deadlock) are evaluated over the
  symbolic ``(root, offset)`` domain of
  :class:`~repro.analysis.static.dataflow.ValueResolver` — provable
  on *this* path gives a definite answer, anything else degrades the
  path to MAYBE with a machine-readable uncertainty code.

The soundness contract the differential layer relies on: if a dynamic
execution realizes a pair legally along some path, that path's static
classification is YES or MAYBE — a definite NO is only ever derived
from facts true in *every* execution of the path.  Per-candidate the
verdict joins over all walked paths with ``YES > MAYBE > NO``, since a
single realizable path makes the static opportunity real.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Optional, Union

from repro.fusion.taxonomy import (Contiguity, classify_contiguity_at,
                                   classify_relative, span)
from repro.isa.instructions import Instruction, OpClass
from repro.isa.interp import _MASK64
from repro.isa.program import Program
from repro.analysis.legality import Reason

from .cfg import CFG, build_cfg
from .dataflow import DefUse, ReachingDefs, ValueResolver, signed_delta

__all__ = [
    "StaticVerdict",
    "Uncertainty",
    "StaticCandidate",
    "StaticReport",
    "StaticFusionAnalyzer",
    "analyze_program",
]

#: Default abstract-execution budget (instruction visits) per head.
DEFAULT_PATH_BUDGET = 20_000

_MUST = 2
_MAY = 1


class StaticVerdict(enum.IntEnum):
    """Three-valued path-join verdict; lattice join is ``max``."""

    NO = 0
    MAYBE = 1
    YES = 2

    def join(self, other: "StaticVerdict") -> "StaticVerdict":
        return self if self >= other else other


class Uncertainty(enum.Enum):
    """Why a path is MAYBE instead of YES (alias-dependent facts)."""

    #: Head/tail bases resolve to different symbolic roots: the span
    #: rule (and contiguity class) depends on runtime values.
    SPAN_UNKNOWN = "span-unknown"
    #: The tail may transitively consume the head's result through a
    #: may-aliasing catalyst store→load forward.
    MAY_DEADLOCK = "may-deadlock"
    #: A catalyst load may partially overlap the head store's bytes.
    MAY_LOAD_OVERLAP = "may-catalyst-load-overlap"

    def __repr__(self) -> str:
        return "<%s>" % self.value


class _PathState:
    """Mutable abstract machine state along one catalyst path."""

    __slots__ = ("regs", "taint", "mem_taint", "serializing",
                 "store_seen", "load_overlap", "fresh")

    def __init__(self) -> None:
        self.regs: dict = {}        # reg -> (root, offset); path writes only
        self.taint: dict = {}       # reg -> _MUST | _MAY
        self.mem_taint: list = []   # (root, offset, size, level)
        self.serializing = False
        self.store_seen = False
        self.load_overlap = 0       # 0 none / _MAY / _MUST
        self.fresh = 0

    def clone(self) -> "_PathState":
        twin = _PathState.__new__(_PathState)
        twin.regs = dict(self.regs)
        twin.taint = dict(self.taint)
        twin.mem_taint = list(self.mem_taint)
        twin.serializing = self.serializing
        twin.store_seen = self.store_seen
        twin.load_overlap = self.load_overlap
        twin.fresh = self.fresh
        return twin


@dataclass
class StaticCandidate:
    """Joined classification of one static ``(head, tail)`` PC pair."""

    head_index: int
    tail_index: int
    head_pc: int
    tail_pc: int
    kind: str                      # "load" | "store"
    verdict: StaticVerdict
    #: Definite legality violations on the best path (NO verdicts).
    reasons: tuple = ()
    #: Alias-dependent facts keeping the best path at MAYBE.
    uncertain: tuple = ()
    min_distance: int = 0
    paths: int = 0
    backedge_paths: int = 0
    same_base: bool = False
    #: Provable tail-minus-head byte displacement, when the bases
    #: share a symbolic root on the best path.
    delta: Optional[int] = None
    contiguity: Optional[Contiguity] = None
    cross_block: bool = False

    @property
    def loop_carried(self) -> bool:
        """Pair only materializes across a loop iteration boundary."""
        return self.paths > 0 and self.backedge_paths == self.paths

    @property
    def consecutive(self) -> bool:
        """CSF-shaped: some path realizes the pair with no catalyst."""
        return self.min_distance == 1

    def describe(self) -> str:
        bits = ["%s" % self.verdict.name]
        if self.reasons:
            bits.append(",".join(r.value for r in self.reasons))
        if self.uncertain:
            bits.append(",".join(u.value for u in self.uncertain))
        shape = "SBR" if self.same_base else "DBR"
        if self.delta is not None:
            shape += " delta=%+d" % self.delta
        if self.contiguity is not None:
            shape += " %s" % self.contiguity.value
        return ("[0x%x -> 0x%x] %s d>=%d %s%s%s"
                % (self.head_pc, self.tail_pc, " ".join(bits),
                   self.min_distance, shape,
                   " loop-carried" if self.loop_carried else "",
                   " cross-block" if self.cross_block else ""))

    def to_dict(self) -> dict:
        return {
            "head_pc": self.head_pc, "tail_pc": self.tail_pc,
            "kind": self.kind, "verdict": self.verdict.name,
            "reasons": [r.value for r in self.reasons],
            "uncertain": [u.value for u in self.uncertain],
            "min_distance": self.min_distance,
            "paths": self.paths,
            "loop_carried": self.loop_carried,
            "same_base": self.same_base,
            "delta": self.delta,
            "contiguity": (self.contiguity.value
                           if self.contiguity else None),
            "cross_block": self.cross_block,
        }


@dataclass
class StaticReport:
    """Result of :meth:`StaticFusionAnalyzer.enumerate`."""

    name: str
    instructions: int
    blocks: int
    memory_heads: int
    window: int
    granularity: int
    path_budget: int
    candidates: dict               # (head_index, tail_index) -> candidate
    truncated_heads: frozenset
    indirect_blocks: int

    def candidate(self, head_index: int,
                  tail_index: int) -> Optional[StaticCandidate]:
        return self.candidates.get((head_index, tail_index))

    def verdict_counts(self) -> dict:
        counts = {v: 0 for v in StaticVerdict}
        for candidate in self.candidates.values():
            counts[candidate.verdict] += 1
        return counts

    def candidates_at_pc(self, pc: int) -> list:
        return sorted(
            (c for c in self.candidates.values()
             if c.head_pc == pc or c.tail_pc == pc),
            key=lambda c: (c.head_index, c.tail_index))

    @property
    def fusable(self) -> int:
        """Candidates a decoder could pursue (YES or alias-MAYBE)."""
        return sum(1 for c in self.candidates.values()
                   if c.verdict is not StaticVerdict.NO)

    def to_dict(self, include_candidates: bool = False) -> dict:
        counts = self.verdict_counts()
        payload = {
            "program": self.name,
            "instructions": self.instructions,
            "blocks": self.blocks,
            "memory_heads": self.memory_heads,
            "window": self.window,
            "granularity": self.granularity,
            "path_budget": self.path_budget,
            "truncated_heads": len(self.truncated_heads),
            "indirect_blocks": self.indirect_blocks,
            "pairs": {v.name.lower(): counts[v] for v in StaticVerdict},
            "loop_carried": sum(1 for c in self.candidates.values()
                                if c.loop_carried),
            "cross_block": sum(1 for c in self.candidates.values()
                               if c.cross_block),
        }
        if include_candidates:
            payload["candidates"] = [
                c.to_dict() for (_, _), c in sorted(self.candidates.items())]
        return payload


class StaticFusionAnalyzer:
    """CFG + dataflow walker enumerating static fusion candidates."""

    def __init__(self, program: Union[Program, Sequence[Instruction]],
                 granularity: int = 64,
                 max_distance: int = 64,
                 path_budget: int = DEFAULT_PATH_BUDGET,
                 name: Optional[str] = None) -> None:
        self.cfg = build_cfg(program, name=name)
        self.instructions = self.cfg.instructions
        self.granularity = granularity
        self.max_distance = max_distance
        self.path_budget = path_budget
        self.rdefs = ReachingDefs(self.cfg)
        self.defuse = DefUse(self.rdefs)
        self.resolver = ValueResolver(self.rdefs)
        self._report: Optional[StaticReport] = None

    # -- value helpers -------------------------------------------------

    def _value(self, state: _PathState, head_index: int,
               reg: Optional[int]):
        """Path value of ``reg``: path write, else value at the head."""
        if reg is None or reg == 0:
            return (None, 0)
        value = state.regs.get(reg)
        if value is None:
            value = self.resolver.resolve(reg, head_index)
        return value

    def _address(self, state: _PathState, head_index: int,
                 inst: Instruction):
        root, offset = self._value(state, head_index, inst.rs1)
        return (root, offset + (inst.imm or 0))

    @staticmethod
    def _mem_read_level(state: _PathState, root, offset: int,
                        size: int) -> int:
        """Taint level a load at ``(root, offset, size)`` picks up."""
        level = 0
        for t_root, t_off, t_size, t_level in state.mem_taint:
            if t_root == root:
                delta = signed_delta(t_off, offset)
                if delta < size and -t_size < delta:
                    level = max(level, t_level)
            else:
                level = max(level, min(t_level, _MAY))
            if level == _MUST:
                break
        return level

    # -- abstract transfer ---------------------------------------------

    def _absorb(self, state: _PathState, head: Instruction,
                head_index: int, head_addr, inst: Instruction) -> None:
        """Mirror of ``legality._CatalystState.absorb`` over symbols."""
        opclass = inst.opclass
        if opclass.is_serializing:
            state.serializing = True
            return
        taint = state.taint
        level = 0
        for src in inst.sources:
            level = max(level, taint.get(src, 0))
        if opclass is OpClass.LOAD:
            root, offset = self._address(state, head_index, inst)
            if level < _MUST:
                level = max(level, self._mem_read_level(
                    state, root, offset, inst.mem_size))
            if head.opclass is OpClass.STORE and state.load_overlap < _MUST:
                h_root, h_off = head_addr
                if h_root == root:
                    delta = signed_delta(offset, h_off)
                    # PARTIAL overlap exactly as legality._alias_of:
                    # shares bytes but the head store does not cover
                    # the catalyst load.
                    overlaps = (delta < head.mem_size
                                and -inst.mem_size < delta)
                    covered = (delta >= 0 and
                               delta + inst.mem_size <= head.mem_size)
                    if overlaps and not covered:
                        state.load_overlap = _MUST
                else:
                    state.load_overlap = max(state.load_overlap, _MAY)
        elif opclass is OpClass.STORE:
            state.store_seen = True
            if level:
                root, offset = self._address(state, head_index, inst)
                state.mem_taint.append((root, offset, inst.mem_size, level))
        dest = inst.destination
        if dest is not None:
            if opclass is OpClass.LOAD or opclass is OpClass.STORE:
                state.fresh += 1
                value = (("path", head_index, state.fresh), 0)
            else:
                state.fresh += 1
                operands = {
                    src: self._value(state, head_index, src)
                    for src in inst.sources}
                value = ValueResolver.eval_instruction(
                    inst, operands, ("path", head_index, state.fresh))
            state.regs[dest] = value
            if level:
                taint[dest] = level
            else:
                taint.pop(dest, None)

    # -- per-path classification ---------------------------------------

    def _classify_path(self, head: Instruction, head_addr,
                       head_index: int, tail: Instruction,
                       tail_index: int, state: _PathState):
        """(verdict, reasons, uncertain, delta, contiguity) on a path."""
        reasons: list = []
        uncertain: list = []
        delta: Optional[int] = None
        contiguity: Optional[Contiguity] = None
        h_root, h_off = head_addr
        t_root, t_off = self._address(state, head_index, tail)
        if h_root == t_root:
            if h_root is None:
                a0, b0 = h_off & _MASK64, t_off & _MASK64
                delta = signed_delta(b0, a0)
                if span(a0, head.mem_size, b0, tail.mem_size) \
                        > self.granularity:
                    reasons.append(Reason.SPAN)
                else:
                    contiguity = classify_contiguity_at(
                        a0, head.mem_size, b0, tail.mem_size,
                        self.granularity)
            else:
                delta = signed_delta(t_off, h_off)
                if span(0, head.mem_size, delta, tail.mem_size) \
                        > self.granularity:
                    reasons.append(Reason.SPAN)
                else:
                    contiguity = classify_relative(
                        delta, head.mem_size, tail.mem_size,
                        self.granularity)
        else:
            uncertain.append(Uncertainty.SPAN_UNKNOWN)
        if state.serializing:
            reasons.append(Reason.SERIALIZING_OP)
        # Deadlock rule: register-carried dependences along a path are
        # definite; memory-carried ones inherit the alias lattice.
        level = 0
        for src in tail.sources:
            level = max(level, state.taint.get(src, 0))
        if level < _MUST and tail.opclass is OpClass.LOAD:
            level = max(level, self._mem_read_level(
                state, t_root, t_off, tail.mem_size))
        if level == _MUST:
            reasons.append(Reason.DEADLOCK_DEPENDENCE)
        elif level == _MAY:
            uncertain.append(Uncertainty.MAY_DEADLOCK)
        if head.opclass is OpClass.LOAD:
            if head.destination is not None \
                    and head.destination == tail.destination:
                reasons.append(Reason.SAME_DEST)
        else:  # store pair
            if state.store_seen:
                reasons.append(Reason.ALIASING_STORE)
            if state.load_overlap == _MUST:
                reasons.append(Reason.CATALYST_LOAD_OVERLAP)
            elif state.load_overlap == _MAY:
                uncertain.append(Uncertainty.MAY_LOAD_OVERLAP)
            if head.rs1 != tail.rs1:
                reasons.append(Reason.DBR_STORE)
        if reasons:
            verdict = StaticVerdict.NO
        elif uncertain:
            verdict = StaticVerdict.MAYBE
        else:
            verdict = StaticVerdict.YES
        return verdict, tuple(reasons), tuple(uncertain), delta, contiguity

    # -- walking -------------------------------------------------------

    def _walk_head(self, head_index: int, out: dict,
                   truncated: set) -> None:
        insts = self.instructions
        head = insts[head_index]
        head_is_load = head.opclass is OpClass.LOAD
        state0 = _PathState()
        head_addr = self._address(state0, head_index, head)
        if head_is_load:
            if head.destination is not None:
                state0.taint[head.destination] = _MUST
                state0.fresh += 1
                state0.regs[head.destination] = (
                    ("path", head_index, state0.fresh), 0)
        else:
            state0.mem_taint.append(
                (head_addr[0], head_addr[1], head.mem_size, _MUST))
        succs = self.cfg.instruction_successors(head_index)
        stack: list = []
        for j, (succ, back) in enumerate(succs):
            branch_state = state0.clone() if j + 1 < len(succs) else state0
            stack.append((succ, branch_state, 1, back))
        budget = self.path_budget
        cfg = self.cfg
        head_block = cfg.block_of[head_index]
        while stack:
            if budget <= 0:
                truncated.add(head_index)
                return
            budget -= 1
            index, state, distance, crossed = stack.pop()
            inst = insts[index]
            opclass = inst.opclass
            if (opclass is OpClass.LOAD) == head_is_load and \
                    (opclass is OpClass.LOAD or opclass is OpClass.STORE):
                self._record(out, head, head_addr, head_index,
                             inst, index, state, distance, crossed,
                             head_block)
            if distance >= self.max_distance:
                continue
            self._absorb(state, head, head_index, head_addr, inst)
            succs = cfg.instruction_successors(index)
            for j, (succ, back) in enumerate(succs):
                branch_state = (state.clone()
                                if j + 1 < len(succs) else state)
                stack.append((succ, branch_state, distance + 1,
                              crossed or back))

    def _record(self, out: dict, head: Instruction, head_addr,
                head_index: int, tail: Instruction, tail_index: int,
                state: _PathState, distance: int, crossed: bool,
                head_block: int) -> None:
        verdict, reasons, uncertain, delta, contiguity = \
            self._classify_path(head, head_addr, head_index, tail,
                                tail_index, state)
        key = (head_index, tail_index)
        candidate = out.get(key)
        if candidate is None:
            out[key] = StaticCandidate(
                head_index=head_index, tail_index=tail_index,
                head_pc=self.cfg.pc_of(head_index),
                tail_pc=self.cfg.pc_of(tail_index),
                kind="load" if head.opclass is OpClass.LOAD else "store",
                verdict=verdict, reasons=reasons, uncertain=uncertain,
                min_distance=distance, paths=1,
                backedge_paths=1 if crossed else 0,
                same_base=head.rs1 == tail.rs1,
                delta=delta, contiguity=contiguity,
                cross_block=self.cfg.block_of[tail_index] != head_block)
            return
        candidate.paths += 1
        if crossed:
            candidate.backedge_paths += 1
        better = (verdict > candidate.verdict
                  or (verdict == candidate.verdict
                      and distance < candidate.min_distance))
        if verdict > candidate.verdict:
            candidate.verdict = verdict
        if better:
            candidate.reasons = reasons
            candidate.uncertain = uncertain
            candidate.delta = delta
            candidate.contiguity = contiguity
        if distance < candidate.min_distance:
            candidate.min_distance = distance

    def enumerate(self) -> StaticReport:
        """Walk every memory head; cache and return the report."""
        if self._report is not None:
            return self._report
        out: dict = {}
        truncated: set = set()
        for index, inst in enumerate(self.instructions):
            opclass = inst.opclass
            if opclass is OpClass.LOAD or opclass is OpClass.STORE:
                self._walk_head(index, out, truncated)
        memory_heads = sum(
            1 for inst in self.instructions
            if inst.opclass is OpClass.LOAD
            or inst.opclass is OpClass.STORE)
        self._report = StaticReport(
            name=self.cfg.name,
            instructions=len(self.instructions),
            blocks=len(self.cfg.blocks),
            memory_heads=memory_heads,
            window=self.max_distance,
            granularity=self.granularity,
            path_budget=self.path_budget,
            candidates=out,
            truncated_heads=frozenset(truncated),
            indirect_blocks=sum(1 for b in self.cfg.blocks
                                if b.indirect_exit))
        return self._report


def analyze_program(program: Union[Program, Sequence[Instruction]],
                    granularity: int = 64,
                    max_distance: int = 64,
                    path_budget: int = DEFAULT_PATH_BUDGET,
                    name: Optional[str] = None) -> StaticReport:
    """Convenience wrapper: analyzer + report in one call."""
    return StaticFusionAnalyzer(
        program, granularity=granularity, max_distance=max_distance,
        path_budget=path_budget, name=name).enumerate()
