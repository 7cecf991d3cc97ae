"""Trace-level static fusion-legality analysis.

Helios' correctness argument (paper Section IV) is that an NCSF pair
may only stay fused when executing the tail nucleus *early* — at the
head's position, ahead of the catalyst — preserves ISA semantics.
This module re-derives that argument from first principles over a
captured trace: for every candidate ``(head, tail)`` memory pair it
computes the register def-use chains and a conservative byte-interval
memory-alias lattice across the catalyst window and classifies the
pair with a machine-readable :class:`Reason`.

The analyzer is the *reference* implementation: it is deliberately
simple and exhaustive (every same-kind memory pair within the fusion
window is classified, whether or not the greedy oracle would pick it).
``fusion/oracle.py`` keeps its optimized single-pass scan but must
agree with this module — the differential checker
(:mod:`repro.analysis.differential`) and the property tests assert
``oracle_pairs ⊆ legal_pairs`` on every workload.

Legality semantics
------------------

"Legal" means: the pipeline can commit the pair fused and the
architectural state is bit-identical to the unfused execution, given
the machinery the model actually has (per-byte LSQ ordering with
store-to-load forwarding, extended commit groups, and ghost-rename
re-binding of the tail's sources to the catalyst's writers).  Two
consequences worth spelling out:

* A catalyst *store* aliasing a **load** pair's accesses is legal —
  the LSQ forwards per byte using sequence numbers, exactly as it
  would unfused.  The alias lattice still annotates the pair
  (:attr:`PairVerdict.alias`) because the forward is the risky path
  the differential checker most wants exercised.
* ``CATALYST_WRITES_BASE`` is only a legality violation for a
  *non-rebinding* producer (decode-time fusion that keeps the tail's
  original rename bindings).  Helios' tail ghost renames *after* the
  catalyst, so it naturally re-binds; the default analyzer therefore
  treats a catalyst-written base as an annotation
  (:attr:`PairVerdict.rebound_srcs`), not a rejection.  Pass
  ``rebinding=False`` to get the strict classification.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from typing import Optional

from repro.fusion.taxonomy import span
from repro.isa.trace import MicroOp, Trace

__all__ = [
    "AliasClass",
    "LegalityAnalyzer",
    "LegalityReport",
    "PairVerdict",
    "Reason",
    "analyze_trace_legality",
]


class Reason(enum.Enum):
    """Machine-readable verdict codes for a fusion candidate.

    Two families share the enum so the oracle can reuse it:

    * **legality** codes — fusing would (or could) change
      architectural state or wedge the machine.  These are what the
      differential checker enforces.
    * **policy** codes (``policy`` is ``True``) — the pair is legal
      but a producer declined it (already paired greedily, pointer
      chase filter, configuration such as ``require_same_base``).
    """

    #: Set per-member in ``__new__`` (bare annotations are not members).
    policy: bool

    LEGAL = ("legal", False)
    #: Nucleii are not both loads or both stores (or not memory at all).
    KIND_MISMATCH = ("kind-mismatch", False)
    #: ``tail.seq - head.seq`` outside ``(0, max_fusion_distance]``.
    DISTANCE = ("distance>window", False)
    #: Combined byte span exceeds the cache access granularity.
    SPAN = ("span>granularity", False)
    #: A fence/system µ-op inside the catalyst window.
    SERIALIZING_OP = ("serializing-op", False)
    #: The tail (transitively) consumes the head's result — through
    #: registers or through memory (catalyst store of a tainted value
    #: forwarded to a catalyst load) — so the fused pair would wait on
    #: its own catalyst: the paper's deadlock rule.
    DEADLOCK_DEPENDENCE = ("deadlock-dependence", False)
    #: Store pair with a store in the catalyst (memory ordering: the
    #: catalyst store would be overtaken by the early tail store).
    ALIASING_STORE = ("aliasing-store", False)
    #: Store pair with a catalyst load that partially overlaps the
    #: head's bytes: the load can neither forward (not fully covered)
    #: nor wait for the drain (the pair cannot commit before the
    #: catalyst load completes) — a structural deadlock.
    CATALYST_LOAD_OVERLAP = ("catalyst-load-overlap", False)
    #: A catalyst µ-op writes one of the tail's source registers.
    #: Only illegal for non-rebinding producers (``rebinding=False``).
    CATALYST_WRITES_BASE = ("catalyst-writes-base", False)
    #: Load pair writing the same destination register (the early tail
    #: write would be clobbered ordering-sensitively).
    SAME_DEST = ("same-dest", False)
    #: Store pair with different base registers: the µ-arch only
    #: supports SBR store pairs (a DBR store pair would need four
    #: source operands through rename).
    DBR_STORE = ("dbr-store", False)

    # -- policy codes (legal, but a producer declined) ----------------
    POINTER_CHASE = ("pointer-chase", True)
    ALREADY_FUSED = ("already-fused", True)
    BASE_MISMATCH = ("base-mismatch", True)

    def __new__(cls, code: str, policy: bool) -> "Reason":
        obj = object.__new__(cls)
        obj._value_ = code
        obj.policy = policy
        return obj

    def __repr__(self) -> str:  # "Reason.ALIASING_STORE" is noise in reports
        return "<%s>" % self.value


class AliasClass(enum.IntEnum):
    """Conservative catalyst-store/pair-access alias lattice.

    Ordered so that lattice join is ``max()``:
    ``NO_ALIAS < PARTIAL < COVERS``.
    """

    NO_ALIAS = 0
    #: At least one catalyst store shares bytes with the pair's
    #: accesses but does not fully cover the overlapping access.
    PARTIAL = 1
    #: Some catalyst store fully covers one of the pair's accesses
    #: (a store-to-load forward, if the pair is a load pair).
    COVERS = 2

    def join(self, other: "AliasClass") -> "AliasClass":
        return self if self >= other else other


def _alias_of(store_lo: int, store_hi: int, lo: int, hi: int) -> AliasClass:
    """Alias class of one store byte-range against one access range."""
    if store_lo >= hi or lo >= store_hi:
        return AliasClass.NO_ALIAS
    if store_lo <= lo and hi <= store_hi:
        return AliasClass.COVERS
    return AliasClass.PARTIAL


def _overlaps_any(ranges: list[tuple[int, int]], lo: int, hi: int) -> bool:
    for r_lo, r_hi in ranges:
        if r_lo < hi and lo < r_hi:
            return True
    return False


def _alias_join(stores: list[tuple[int, int]], head_lo: int, head_hi: int,
                tail_lo: int, tail_hi: int) -> AliasClass:
    """Join of every store range's alias class against the pair's two
    byte ranges; stops at ``COVERS``, the lattice top."""
    alias = AliasClass.NO_ALIAS
    accesses = ((head_lo, head_hi), (tail_lo, tail_hi))
    for store_lo, store_hi in stores:
        for lo, hi in accesses:
            # (_alias_of, inlined: this runs per catalyst store for
            # every candidate.)
            if store_lo < hi and lo < store_hi:
                if store_lo <= lo and hi <= store_hi:
                    return AliasClass.COVERS
                alias = AliasClass.PARTIAL
    return alias


@dataclass(frozen=True)
class PairVerdict:
    """Classification of one ``(head, tail)`` candidate."""

    head_seq: int
    tail_seq: int
    head_pc: int
    tail_pc: int
    #: Every legality reason that applies (empty tuple when legal).
    reasons: tuple[Reason, ...]
    #: Join over the catalyst stores against the pair's byte ranges.
    alias: AliasClass = AliasClass.NO_ALIAS
    #: Tail sources written inside the catalyst — the registers a
    #: Helios tail ghost re-binds to catalyst writers at rename.
    rebound_srcs: tuple[int, ...] = ()

    @property
    def legal(self) -> bool:
        return not self.reasons

    @property
    def distance(self) -> int:
        return self.tail_seq - self.head_seq

    def describe(self) -> str:
        verdict = ("legal" if self.legal
                   else ",".join(r.value for r in self.reasons))
        extra = ""
        if self.alias is not AliasClass.NO_ALIAS:
            extra += " alias=%s" % self.alias.name
        if self.rebound_srcs:
            extra += " rebound=%s" % (list(self.rebound_srcs),)
        return ("(%d @0x%x -> %d @0x%x) d=%d: %s%s"
                % (self.head_seq, self.head_pc, self.tail_seq,
                   self.tail_pc, self.distance, verdict, extra))


#: What :meth:`LegalityAnalyzer._classify` returns: a
#: :class:`PairVerdict`'s ``(reasons, alias, rebound_srcs)``.
_Verdict = tuple[tuple[Reason, ...], AliasClass, tuple[int, ...]]


class _CatalystState(object):
    """Incremental dataflow state while scanning forward from a head.

    Tracks, per the analyzer's lattice:

    * ``reg_taint`` — registers whose value (transitively) depends on
      the head nucleus' result, through registers *or* memory.
    * ``mem_taint`` — byte intervals whose contents depend on the head
      (the head store's own bytes, plus any catalyst store whose data
      or address is tainted).
    * catalyst stores' byte intervals (for the alias lattice and the
      store-pair rule) and catalyst register writes (for re-binding /
      base liveness).
    """

    __slots__ = ("head", "head_lo", "head_hi", "serializing", "reg_taint",
                 "mem_taint", "catalyst_stores", "catalyst_writes",
                 "load_overlaps_head")

    def __init__(self, head: MicroOp) -> None:
        self.head = head
        self.head_lo = head.addr
        self.head_hi = head.addr + head.size
        self.serializing = False
        self.reg_taint = (
            {head.dest} if head.dest is not None else set())
        self.mem_taint = (
            [(self.head_lo, self.head_hi)] if head.is_store else [])
        #: ``(addr, end)`` of each catalyst store, in program order.
        self.catalyst_stores: list[tuple[int, int]] = []
        self.catalyst_writes: set[int] = set()
        #: A catalyst load overlapping the head store's bytes without
        #: being fully covered by them (store-pair deadlock shape).
        self.load_overlaps_head = False

    def tainted_srcs(self, uop: MicroOp) -> bool:
        taint = self.reg_taint
        if taint:
            for src in uop.srcs:
                if src in taint:
                    return True
        return False

    def reads_tainted_bytes(self, uop: MicroOp) -> bool:
        return bool(self.mem_taint) and _overlaps_any(
            self.mem_taint, uop.addr, uop.addr + uop.size)

    def absorb(self, uop: MicroOp) -> None:
        """Account ``uop`` as a catalyst member."""
        if uop.is_serializing:
            self.serializing = True
            return
        tainted = self.tainted_srcs(uop)
        if uop.is_load:
            if not tainted and self.reads_tainted_bytes(uop):
                tainted = True  # memory-carried dependence on the head
            if self.head.is_store and not self.load_overlaps_head:
                alias = _alias_of(self.head_lo, self.head_hi,
                                  uop.addr, uop.addr + uop.size)
                if alias is AliasClass.PARTIAL:
                    self.load_overlaps_head = True
        elif uop.is_store:
            stored = (uop.addr, uop.addr + uop.size)
            self.catalyst_stores.append(stored)
            if tainted:
                self.mem_taint.append(stored)
        dest = uop.dest
        if dest is not None:
            self.catalyst_writes.add(dest)
            if tainted:
                self.reg_taint.add(dest)
            else:
                self.reg_taint.discard(dest)


@dataclass
class LegalityReport:
    """Result of :meth:`LegalityAnalyzer.analyze`.

    ``legal`` is the set of ``(head_seq, tail_seq)`` pairs that may be
    committed fused; ``reason_counts`` histograms every *illegal*
    same-kind candidate in the window (a candidate contributes one
    count per reason that applies).
    """

    trace_name: str
    uops: int
    granularity: int
    max_distance: int
    rebinding: bool
    legal: frozenset[tuple[int, int]]
    candidates: int
    reason_counts: dict[Reason, int] = field(default_factory=dict)
    #: Alias-lattice census over the *legal* pairs.
    alias_counts: dict[AliasClass, int] = field(default_factory=dict)
    _analyzer: Optional["LegalityAnalyzer"] = field(
        default=None, repr=False, compare=False)

    def is_legal(self, head_seq: int, tail_seq: int) -> bool:
        return (head_seq, tail_seq) in self.legal

    def explain(self, head_seq: int, tail_seq: int) -> PairVerdict:
        """Full verdict for one pair (recomputed on demand)."""
        if self._analyzer is None:
            raise ValueError("report was detached from its analyzer")
        return self._analyzer.classify_pair(head_seq, tail_seq)

    def explain_pc(self, pc: int, limit: int = 20) -> list[PairVerdict]:
        """Verdicts for candidates whose head or tail sits at ``pc``."""
        if self._analyzer is None:
            raise ValueError("report was detached from its analyzer")
        return self._analyzer.explain_pc(pc, limit=limit)

    def to_dict(self) -> dict:
        return {
            "trace": self.trace_name,
            "uops": self.uops,
            "granularity": self.granularity,
            "max_distance": self.max_distance,
            "rebinding": self.rebinding,
            "candidates": self.candidates,
            "legal_pairs": len(self.legal),
            "reasons": {reason.value: count for reason, count
                        in sorted(self.reason_counts.items(),
                                  key=lambda item: item[0].value)},
            "alias": {alias.name.lower(): count for alias, count
                      in sorted(self.alias_counts.items())},
        }


class LegalityAnalyzer(object):
    """Exhaustive legality classification over one trace."""

    def __init__(self, trace: Iterable[MicroOp],
                 granularity: int = 64,
                 max_distance: int = 64,
                 rebinding: bool = True,
                 name: Optional[str] = None) -> None:
        uops = trace.uops if isinstance(trace, Trace) else list(trace)
        self.uops: Sequence[MicroOp] = uops
        self.granularity = granularity
        self.max_distance = max_distance
        self.rebinding = rebinding
        self.name = name or getattr(trace, "name", "<trace>")
        # Traces are seq-contiguous (seq == index for a full capture;
        # slices keep original seqs but stay contiguous).
        self._base = uops[0].seq if uops else 0

    # -- lookup --------------------------------------------------------

    def _index_of(self, seq: int) -> int:
        index = seq - self._base
        if index < 0 or index >= len(self.uops) or \
                self.uops[index].seq != seq:
            raise KeyError("seq %d not in trace %r" % (seq, self.name))
        return index

    # -- classification ------------------------------------------------

    def _classify(self, head: MicroOp, tail: MicroOp,
                  state: _CatalystState) -> _Verdict:
        """``(reasons, alias, rebound_srcs)`` of a :class:`PairVerdict`
        for ``(head, tail)``, with the catalyst absorbed into ``state``."""
        reasons: list[Reason] = []
        distance = tail.seq - head.seq
        same_kind = (tail.is_memory and head.is_memory
                     and tail.is_load == head.is_load)
        if not same_kind:
            reasons.append(Reason.KIND_MISMATCH)
        if distance <= 0 or distance > self.max_distance:
            reasons.append(Reason.DISTANCE)
        if same_kind and span(head.addr, head.size, tail.addr,
                              tail.size) > self.granularity:
            reasons.append(Reason.SPAN)
        if state.serializing:
            reasons.append(Reason.SERIALIZING_OP)
        # Deadlock rule: the tail must not (transitively) consume the
        # head's result — the fused pair issues at the head's position
        # and can never wait on its own catalyst.
        deadlock = state.tainted_srcs(tail)
        if not deadlock and tail.is_load and state.reads_tainted_bytes(tail):
            # The tail load would forward from a catalyst store whose
            # data depends on the head: value-carried deadlock.
            deadlock = True
        if deadlock:
            reasons.append(Reason.DEADLOCK_DEPENDENCE)
        if head.is_load and same_kind:
            if head.dest is not None and head.dest == tail.dest:
                reasons.append(Reason.SAME_DEST)
        if head.is_store and same_kind:
            if state.catalyst_stores:
                reasons.append(Reason.ALIASING_STORE)
            if state.load_overlaps_head:
                reasons.append(Reason.CATALYST_LOAD_OVERLAP)
            if head.base_reg != tail.base_reg:
                reasons.append(Reason.DBR_STORE)
        rebound: tuple[int, ...] = ()
        writes = state.catalyst_writes
        if writes:
            rebound = tuple([src for src in tail.srcs if src in writes])
        if rebound and not self.rebinding:
            reasons.append(Reason.CATALYST_WRITES_BASE)
        alias = AliasClass.NO_ALIAS
        if same_kind and state.catalyst_stores:
            alias = _alias_join(state.catalyst_stores, state.head_lo,
                                state.head_hi, tail.addr,
                                tail.addr + tail.size)
        return tuple(reasons), alias, rebound

    def _verdict(self, head: MicroOp, tail: MicroOp,
                 state: _CatalystState) -> PairVerdict:
        reasons, alias, rebound = self._classify(head, tail, state)
        return PairVerdict(
            head_seq=head.seq, tail_seq=tail.seq,
            head_pc=head.pc, tail_pc=tail.pc,
            reasons=reasons, alias=alias, rebound_srcs=rebound)

    def classify_pair(self, head_seq: int, tail_seq: int) -> PairVerdict:
        """Verdict for an arbitrary pair (any distance, any kinds)."""
        head = self.uops[self._index_of(head_seq)]
        tail = self.uops[self._index_of(tail_seq)]
        state = _CatalystState(head)
        for index in range(self._index_of(head_seq) + 1,
                           self._index_of(tail_seq)):
            state.absorb(self.uops[index])
        return self._verdict(head, tail, state)

    def verdicts_for_head(self, head_seq: int) -> list[PairVerdict]:
        """Verdicts for every same-kind candidate in the head's window."""
        start = self._index_of(head_seq)
        head = self.uops[start]
        out: list[PairVerdict] = []
        if not head.is_memory:
            return out
        state = _CatalystState(head)
        horizon = min(len(self.uops), start + self.max_distance + 1)
        for index in range(start + 1, horizon):
            tail = self.uops[index]
            if tail.is_memory and tail.is_load == head.is_load:
                out.append(self._verdict(head, tail, state))
            state.absorb(tail)
        return out

    def explain_pc(self, pc: int, limit: int = 20) -> list[PairVerdict]:
        """Candidate verdicts for heads at ``pc`` (first ``limit``)."""
        out: list[PairVerdict] = []
        for uop in self.uops:
            if uop.pc != pc or not uop.is_memory:
                continue
            out.extend(self.verdicts_for_head(uop.seq))
            if len(out) >= limit:
                break
        return out[:limit]

    def analyze(self) -> LegalityReport:
        """Classify every same-kind memory pair within the window."""
        legal = set()
        reasons: Counter = Counter()
        alias_counts: Counter = Counter()
        candidates = 0
        classify = self._classify
        uops = self.uops
        total = len(uops)
        horizon = self.max_distance
        for start in range(total):
            head = uops[start]
            if not head.is_memory:
                continue
            state = _CatalystState(head)
            absorb = state.absorb
            head_seq = head.seq
            head_is_load = head.is_load
            stop = min(total, start + horizon + 1)
            for index in range(start + 1, stop):
                tail = uops[index]
                if tail.is_memory and tail.is_load == head_is_load:
                    found, alias, _rebound = classify(head, tail, state)
                    candidates += 1
                    if found:
                        for reason in found:
                            reasons[reason] += 1
                    else:
                        legal.add((head_seq, tail.seq))
                        alias_counts[alias] += 1
                absorb(tail)
        return LegalityReport(
            trace_name=self.name, uops=total,
            granularity=self.granularity, max_distance=self.max_distance,
            rebinding=self.rebinding, legal=frozenset(legal),
            candidates=candidates, reason_counts=dict(reasons),
            alias_counts=dict(alias_counts), _analyzer=self)


def analyze_trace_legality(trace, granularity: int = 64,
                           max_distance: int = 64,
                           rebinding: bool = True) -> LegalityReport:
    """Convenience wrapper: analyzer + report in one call."""
    return LegalityAnalyzer(
        trace, granularity=granularity, max_distance=max_distance,
        rebinding=rebinding).analyze()
