"""Oracle fusion-pair discovery (the paper's OracleFusion and the
motivation studies of Section III).

The oracle sees resolved effective addresses and the full dynamic
stream, so it can pair µ-ops that static decode-time information cannot
(non-consecutive, non-contiguous, different-base-register pairs).  It
still honours the correctness constraints that any implementation must:

* both µ-ops are loads, or both are stores;
* the combined byte span fits in the cache access granularity;
* the tail nucleus does not depend — directly or transitively through
  the catalyst — on the head nucleus (the deadlock case, Section IV-B2);
* no serializing µ-op inside the catalyst;
* store pairs have no other store inside the catalyst (memory
  consistency, Section IV-B4) and no catalyst load partially
  overlapping the head store's bytes (the load could neither forward
  nor wait out the drain: a structural deadlock);
* the deadlock rule tracks dependences carried through *memory* as
  well as registers (a catalyst store of a tainted value forwarded to
  a catalyst load re-taints the load's destination);
* each µ-op fuses at most once (2-µop fusion).

Every rejection carries a machine-readable
:class:`~repro.analysis.legality.Reason`; pass ``reason_counts`` to
collect the census.  The reference semantics live in
:mod:`repro.analysis.legality` — the property tests assert this
optimized scan never pairs outside the analyzer's legal set.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.analysis.legality import Reason
from repro.fusion.idioms import _IDIOMS_BY_HEAD, match_idiom
from repro.fusion.taxonomy import (
    BaseRegKind,
    Contiguity,
    FusedPair,
    make_memory_pair,
)
from repro.gcpause import paused_gc
from repro.isa.trace import MicroOp, Trace

T = TypeVar("T")


def _note(reason_counts: Optional[Dict[Reason, int]], reason: Reason) -> None:
    if reason_counts is not None:
        reason_counts[reason] = reason_counts.get(reason, 0) + 1


def oracle_memory_pairs(trace: Sequence[MicroOp],
                        granularity: int = 64,
                        max_distance: int = 64,
                        consecutive_only: bool = False,
                        require_same_base: bool = False,
                        reason_counts: Optional[Dict[Reason, int]] = None,
                        ) -> List[FusedPair]:
    """Greedy oldest-first oracle pairing of memory µ-ops (fast scan).

    With ``consecutive_only`` and ``require_same_base`` the same routine
    also produces Figure 4's census of adjacent same-base pairs
    (:func:`consecutive_memory_pairs`).  ``reason_counts`` (optional,
    mutated in place) histograms the :class:`Reason` for every
    same-kind candidate the scan examined and declined.  Candidates
    past an early loop exit (serializing µ-op or a catalyst store under
    a store head) are not enumerated; the exit itself is counted once.

    Semantically identical to the readable, helper-factored reference
    formulation the test suite keeps (``tests/oracle_reference.py``) —
    same pairs, same census, same greedy order — but candidate-first:

    * each head visits only the same-kind memory µ-ops of its window
      (from per-kind position lists built once per call), which ends
      at the first serializing µ-op.  A store head has one candidate,
      the window's first store: any later one has that store in its
      catalyst (``ALIASING_STORE``);
    * a candidate is first put through the checks that need no
      catalyst state (already fused, base register, span), which
      decide almost every rejection;
    * only a candidate that passes them advances the register/memory
      taint walk through the catalyst, from where the previous such
      candidate left it, so a head none of whose candidates passes the
      address checks costs no walk.

    The work per head is bounded by its window's same-kind µ-ops plus
    the catalyst up to the last candidate that passed the address
    checks.  The tier-1 suite asserts identical pair lists and
    censuses against the reference on every catalog workload and
    every flag; when the pairing rules change, edit the reference
    first, then mirror the change here.
    """
    uops = list(trace)
    n = len(uops)
    # Positions of the memory µ-ops, of the loads and the stores among
    # them, and of the serializing µ-ops.  The per-kind lists are
    # closed by a sentinel past the last window.
    memory: List[int] = []
    loads: List[int] = []
    stores: List[int] = []
    fences: List[int] = []
    for i, uop in enumerate(uops):
        if uop.is_memory:
            memory.append(i)
            (loads if uop.is_load else stores).append(i)
        elif uop.is_serializing:
            fences.append(i)
    loads.append(n)
    stores.append(n)
    fences.append(n)
    fused = [False] * (uops[-1].seq + 1 if uops else 0)
    pairs: List[FusedPair] = []
    horizon = 1 if consecutive_only else max_distance
    census = reason_counts
    LEGAL = Reason.LEGAL
    next_load = next_store = next_fence = 0
    fence = fences[0]

    for i in memory:
        head = uops[i]
        head_is_store = head.is_store
        # candidates[k]: the first same-kind µ-op after the head.
        if head_is_store:
            candidates = stores
            next_store += 1
            k = next_store
        else:
            candidates = loads
            next_load += 1
            k = next_load
        head_seq = head.seq
        if fused[head_seq]:
            continue
        stop = i + 1 + horizon
        if stop > n:
            stop = n
        # What closes the window when no pair does: a serializing µ-op
        # (counted once), a store head's first candidate (every later
        # store has it in its catalyst), or the window's end (not
        # counted).
        closing = None
        while fence < i:
            next_fence += 1
            fence = fences[next_fence]
        if fence < stop:
            stop = fence
            closing = Reason.SERIALIZING_OP
        j = candidates[k]
        if j < stop:  # head state, read once the window holds a candidate
            head_addr = head.addr
            head_end = head_addr + head.size
            head_base = head.inst.rs1
            # Only SBR store pairs fuse (Section IV-B).
            check_base = require_same_base or head_is_store
            head_dest = head.dest
            tainted = {head_dest} if head_dest is not None else set()
            tainted_mem = [(head_addr, head_end)] if head_is_store else None
            load_overlap = False
            walked = i + 1  # first catalyst µ-op the taint walk has not seen
        while j < stop:
            tail = uops[j]
            tail_seq = tail.seq
            if fused[tail_seq]:
                reason = Reason.ALREADY_FUSED
            else:
                tail_addr = tail.addr
                tail_end = tail_addr + tail.size
                if check_base and head_base != tail.inst.rs1:
                    reason = (Reason.BASE_MISMATCH if require_same_base
                              else Reason.DBR_STORE)
                elif ((head_end if head_end > tail_end else tail_end)
                      - (head_addr if head_addr < tail_addr
                         else tail_addr)) > granularity:
                    reason = Reason.SPAN
                else:
                    # Bring the taint state up to the tail through the
                    # catalyst µ-ops not yet walked.  With nothing
                    # tainted the walk would change nothing.
                    if tainted or tainted_mem:
                        for uop in uops[walked:j]:
                            dest = uop.dest
                            if dest is not None or uop.is_store:
                                if tainted and not tainted.isdisjoint(
                                        uop.srcs):
                                    src_tainted = True
                                elif uop.is_load and tainted_mem \
                                        and _reads_any(tainted_mem, uop):
                                    src_tainted = True
                                else:
                                    src_tainted = False
                                if src_tainted and uop.is_store:
                                    if tainted_mem is None:
                                        tainted_mem = []
                                    tainted_mem.append(
                                        (uop.addr, uop.addr + uop.size))
                                if dest is not None:
                                    if src_tainted:
                                        tainted.add(dest)
                                    else:
                                        tainted.discard(dest)
                            # A catalyst load straddling the head
                            # store's bytes.
                            if head_is_store and uop.is_load \
                                    and not load_overlap:
                                lo = uop.addr
                                hi = lo + uop.size
                                if not (lo >= head_end or head_addr >= hi) \
                                        and not (lo >= head_addr
                                                 and hi <= head_end):
                                    load_overlap = True
                    walked = j
                    if tainted and not tainted.isdisjoint(tail.srcs):
                        reason = Reason.DEADLOCK_DEPENDENCE
                    elif head_is_store:
                        reason = (Reason.CATALYST_LOAD_OVERLAP
                                  if load_overlap else LEGAL)
                    elif tainted_mem and _reads_any(tainted_mem, tail):
                        reason = Reason.DEADLOCK_DEPENDENCE
                    elif head_dest is not None and head_dest == tail.dest:
                        reason = Reason.SAME_DEST
                    elif tail_seq != head_seq + 1 \
                            and tail.dest is not None \
                            and tail.dest == tail.inst.rs1:
                        reason = Reason.POINTER_CHASE
                    else:
                        reason = LEGAL
                    if reason is LEGAL:
                        fused[head_seq] = True
                        fused[tail_seq] = True
                        pairs.append(make_memory_pair(head, tail,
                                                      granularity))
                        closing = None
                        break
            if census is not None:
                census[reason] = census.get(reason, 0) + 1
            if head_is_store:
                closing = Reason.ALIASING_STORE
                break
            k += 1
            j = candidates[k]
        if closing is not None:
            _note(census, closing)
    return pairs


def _reads_any(ranges: List[Tuple[int, int]], uop: MicroOp) -> bool:
    addr, end = uop.addr, uop.end_addr
    for lo, hi in ranges:
        if lo < end and addr < hi:
            return True
    return False


def oracle_rejection_census(trace: Sequence[MicroOp],
                            granularity: int = 64,
                            max_distance: int = 64) -> Dict[Reason, int]:
    """Reason histogram of one unrestricted oracle pairing pass.

    The pass's pairs are memoised as :func:`cached_oracle_pairs`'
    result, so a caller that wants both (``repro analyze``) scans the
    trace once.
    """
    census: Dict[Reason, int] = {}
    with paused_gc():
        pairs = oracle_memory_pairs(trace, granularity=granularity,
                                    max_distance=max_distance,
                                    reason_counts=census)
    _memoised(trace, _pairs_key(granularity, max_distance), lambda: pairs)
    return census


#: Per-trace memo of the oracle's results: the unrestricted pairing
#: (:func:`cached_oracle_pairs`) and the full census
#: (:func:`analyze_trace`), each keyed by its parameters.  Weak keys: a
#: trace's entries die with the trace, so sweeps and figures holding a
#: shared Trace (the trace store / workload memo) pay for each once per
#: process while one-shot traces cost nothing to track.
_ORACLE_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _memoised(trace: Sequence[MicroOp], key: tuple,
              compute: Callable[[], T]) -> T:
    """``compute()``, cached in ``trace``'s :data:`_ORACLE_MEMO` entry
    under ``key``.  Sequences that cannot be weakly referenced (plain
    lists of µ-ops) are computed afresh on every call.

    The cyclic GC is paused while ``compute`` runs: a census allocates
    one object per pair found while the whole trace is resident, and
    makes no reference cycle, so generational collections would only
    walk the trace.
    """
    try:
        memo = _ORACLE_MEMO.setdefault(trace, {})
    except TypeError:
        memo = {}
    value = memo.get(key)
    if value is None:
        with paused_gc():
            value = memo[key] = compute()
    return value


def _pairs_key(granularity: int, max_distance: int) -> tuple:
    """Memo key of the unrestricted pairing, which both
    :func:`cached_oracle_pairs` and :func:`oracle_rejection_census`
    store."""
    return ("pairs", granularity, max_distance)


def cached_oracle_pairs(trace: Sequence[MicroOp],
                        granularity: int = 64,
                        max_distance: int = 64) -> List[FusedPair]:
    """Memoised :func:`oracle_memory_pairs` (unrestricted shape).

    The pairing is a pure function of the trace contents, so the result
    is cached on the trace *object*.  The returned list is shared by
    every caller asking for the same (trace, granularity,
    max_distance): read it, never mutate it.
    """
    return _memoised(trace, _pairs_key(granularity, max_distance),
                     lambda: oracle_memory_pairs(
                         trace, granularity=granularity,
                         max_distance=max_distance))


def predictive_pairs_from(pairs: Sequence[FusedPair]) -> Set[Tuple[int, int]]:
    """``(head_seq, tail_seq)`` of every oracle pair in ``pairs`` that
    *needs* a prediction: NCSF pairs plus CSF pairs a static decode
    window cannot see (different base register or non-contiguous
    addresses)."""
    eligible = set()
    for pair in pairs:
        statically_visible = (
            pair.consecutive
            and pair.base_kind is BaseRegKind.SBR
            and pair.contiguity is Contiguity.CONTIGUOUS)
        if not statically_visible:
            eligible.add((pair.head_seq, pair.tail_seq))
    return eligible


def consecutive_memory_pairs(trace: Sequence[MicroOp],
                             granularity: int = 64) -> List[FusedPair]:
    """Adjacent same-base memory pairs fuseable by address (Figure 4's
    census)."""
    return oracle_memory_pairs(
        trace, granularity=granularity, consecutive_only=True,
        require_same_base=True)


def oracle_other_pairs(trace: Sequence[MicroOp],
                       exclude: Optional[Sequence[FusedPair]] = None) -> List[FusedPair]:
    """Consecutive non-memory Table I idiom pairs.

    ``exclude`` marks µ-ops already claimed (e.g. by memory pairing) so
    the censuses compose the way a real decode window would.  Only a
    µ-op whose mnemonic can open an idiom is tried as a head, greedily
    oldest first; :func:`match_idiom` would reject every other one.
    """
    uops = list(trace)
    taken = set()
    for pair in exclude or ():
        taken.add(pair.head_seq)
        taken.add(pair.tail_seq)
    pairs: List[FusedPair] = []
    free = 0  # first position not claimed by an earlier pair
    opens_idiom = map(_IDIOMS_BY_HEAD.__contains__,
                      map(attrgetter("inst.mnemonic"), uops))
    for i in compress(range(len(uops) - 1), opens_idiom):
        if i < free:
            continue
        head, tail = uops[i], uops[i + 1]
        if (head.seq not in taken and tail.seq not in taken
                and tail.seq == head.seq + 1):
            idiom = match_idiom(head.inst, tail.inst)
            if idiom is not None:
                pairs.append(FusedPair(head.seq, tail.seq, idiom.name,
                                       False))
                free = i + 2
    return pairs


@dataclass
class OracleAnalysis:
    """Aggregated oracle census over one trace (Figures 2, 4, 5)."""

    total_uops: int
    total_memory: int
    memory_pairs: List[FusedPair] = field(default_factory=list)
    consecutive_pairs: List[FusedPair] = field(default_factory=list)
    other_pairs: List[FusedPair] = field(default_factory=list)

    # -- Figure 2 ---------------------------------------------------------

    @property
    def memory_fused_uop_fraction(self) -> float:
        """Fraction of dynamic µ-ops inside consecutive memory pairs."""
        return 2 * len(self.consecutive_pairs) / max(1, self.total_uops)

    @property
    def other_fused_uop_fraction(self) -> float:
        """Fraction of dynamic µ-ops inside 'Others' idiom pairs."""
        return 2 * len(self.other_pairs) / max(1, self.total_uops)

    # -- Figure 4 ---------------------------------------------------------

    def contiguity_histogram(self) -> Dict[Contiguity, int]:
        histogram: Dict[Contiguity, int] = {kind: 0 for kind in Contiguity}
        for pair in self.consecutive_pairs:
            histogram[pair.contiguity] += 1
        return histogram

    # -- Figure 5 ---------------------------------------------------------

    @property
    def ncsf_pairs(self) -> List[FusedPair]:
        return [p for p in self.memory_pairs if not p.consecutive]

    @property
    def csf_pairs(self) -> List[FusedPair]:
        return [p for p in self.memory_pairs if p.consecutive]

    @property
    def dbr_pairs(self) -> List[FusedPair]:
        return [p for p in self.memory_pairs if p.base_kind is BaseRegKind.DBR]

    @property
    def ncsf_asymmetric_fraction(self) -> float:
        ncsf = self.ncsf_pairs
        if not ncsf:
            return 0.0
        return sum(1 for p in ncsf if not p.symmetric) / len(ncsf)

    @property
    def mean_catalyst_distance(self) -> float:
        ncsf = self.ncsf_pairs
        if not ncsf:
            return 0.0
        return sum(p.distance for p in ncsf) / len(ncsf)


def analyze_trace(trace: Trace, granularity: int = 64,
                  max_distance: int = 64) -> OracleAnalysis:
    """Run the full oracle census used by the motivation figures.

    Memoised on the trace object like :func:`cached_oracle_pairs`, so
    Figures 2, 4, 5 and Table I share one census per trace per process.
    The returned analysis, pair lists included, is shared by every
    caller asking for the same (trace, granularity, max_distance): read
    it, never mutate it.
    """
    def census() -> OracleAnalysis:
        consecutive = consecutive_memory_pairs(trace,
                                               granularity=granularity)
        return OracleAnalysis(
            total_uops=len(trace),
            total_memory=trace.num_memory,
            memory_pairs=cached_oracle_pairs(
                trace, granularity=granularity,
                max_distance=max_distance),
            consecutive_pairs=consecutive,
            other_pairs=oracle_other_pairs(trace, exclude=consecutive),
        )
    return _memoised(trace, ("census", granularity, max_distance), census)
