"""Reference formulations of the greedy oracle pair scans.

:func:`repro.fusion.oracle.oracle_memory_pairs` is the same algorithm
as :func:`oracle_memory_pairs_reference`, visiting only the candidates
that can pair and walking the catalyst only as far as it must.  This
readable, helper-factored version walks every µ-op of every window and
is the test oracle the fast scan must match byte for byte (pairs, order
and rejection census) on every catalog workload and every flag.  When
the pairing rules change, edit this function first, then mirror the
change in the fast scan.

:func:`oracle_other_pairs_reference` is the same for
:func:`repro.fusion.oracle.oracle_other_pairs`: it tries every
adjacent pair, where the fast scan tries only heads that can open an
idiom.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.legality import Reason
from repro.fusion.idioms import match_idiom
from repro.fusion.oracle import _note, _reads_any
from repro.fusion.taxonomy import FusedPair, make_memory_pair, span
from repro.isa.trace import MicroOp


def _straddles(head: MicroOp, load: MicroOp) -> bool:
    """Does ``load`` overlap the head store's bytes without being fully
    covered by them?  Such a load can neither forward from the fused
    store pair nor survive waiting for its drain (the pair's commit
    group contains the load), so the pair must never form."""
    if load.addr >= head.end_addr or head.addr >= load.end_addr:
        return False
    return not (load.addr >= head.addr and load.end_addr <= head.end_addr)


def _eligible_pair(head: MicroOp, tail: MicroOp, tainted: set,
                   tainted_mem: Optional[List[Tuple[int, int]]],
                   load_overlap: bool,
                   fused: List[bool], granularity: int,
                   require_same_base: bool) -> Optional[Reason]:
    """:data:`Reason.LEGAL` when the pair may fuse, the first applicable
    rejection :class:`Reason` otherwise; ``None`` for µ-ops that are not
    same-kind memory candidates at all (not worth a census entry)."""
    if not tail.is_memory or head.is_load != tail.is_load:
        return None
    if fused[tail.seq]:
        return Reason.ALREADY_FUSED
    same_base = head.base_reg == tail.base_reg
    if require_same_base and not same_base:
        return Reason.BASE_MISMATCH
    if head.is_store and not same_base:
        return Reason.DBR_STORE
    if span(head.addr, head.size, tail.addr, tail.size) > granularity:
        return Reason.SPAN
    # Deadlock: the tail must not (transitively) consume the head's
    # result — through registers or through memory (a tail load
    # forwarding from a catalyst store of a tainted value).
    if any(src in tainted for src in tail.srcs):
        return Reason.DEADLOCK_DEPENDENCE
    if tail.is_load and tainted_mem and _reads_any(tainted_mem, tail):
        return Reason.DEADLOCK_DEPENDENCE
    if head.is_store and load_overlap:
        return Reason.CATALYST_LOAD_OVERLAP
    # A fused load pair writes two distinct destination registers.
    if head.is_load and head.dest is not None and head.dest == tail.dest:
        return Reason.SAME_DEST
    # Never take a pointer-chase step (a load overwriting its own base
    # register) as a *non-consecutive* tail: the fused µ-op would delay
    # the chase's critical dereference until the head's sources are
    # ready, which can only hurt.
    if tail.seq != head.seq + 1 and tail.is_load \
            and tail.dest is not None and tail.dest == tail.base_reg:
        return Reason.POINTER_CHASE
    return Reason.LEGAL


def oracle_memory_pairs_reference(trace: Sequence[MicroOp],
                                  granularity: int = 64,
                                  max_distance: int = 64,
                                  consecutive_only: bool = False,
                                  require_same_base: bool = False,
                                  reason_counts: Optional[Dict[Reason, int]] = None,
                                  ) -> List[FusedPair]:
    """Reference greedy oldest-first oracle pairing of memory µ-ops.

    Same arguments, pairs and census as
    :func:`repro.fusion.oracle.oracle_memory_pairs`.
    """
    uops = list(trace)
    fused = [False] * (uops[-1].seq + 1 if uops else 0)
    pairs: List[FusedPair] = []
    horizon = 1 if consecutive_only else max_distance

    for i, head in enumerate(uops):
        if not head.is_memory or fused[head.seq]:
            continue
        tainted = {head.dest} if head.dest is not None else set()
        # Byte intervals whose contents depend on the head: the head
        # store's own bytes, plus any catalyst store of a tainted
        # value.  ``None`` until first needed (loads rarely taint
        # memory), keeping the common path allocation-free.
        tainted_mem = ([(head.addr, head.end_addr)] if head.is_store
                       else None)
        load_overlap = False  # catalyst load straddling the head store
        for j in range(i + 1, min(i + 1 + horizon, len(uops))):
            tail = uops[j]
            if tail.is_serializing:
                _note(reason_counts, Reason.SERIALIZING_OP)
                break  # cannot fuse across a fence / system op
            reason = _eligible_pair(head, tail, tainted, tainted_mem,
                                    load_overlap, fused, granularity,
                                    require_same_base)
            if reason is Reason.LEGAL:
                fused[head.seq] = True
                fused[tail.seq] = True
                pairs.append(make_memory_pair(head, tail, granularity))
                break
            if reason is not None:
                _note(reason_counts, reason)
            # Propagate taint through the catalyst for deadlock
            # detection — through registers and through memory.
            src_tainted = any(src in tainted for src in tail.srcs)
            if (not src_tainted and tail.is_load and tainted_mem
                    and _reads_any(tainted_mem, tail)):
                src_tainted = True
            if tail.is_store and src_tainted:
                if tainted_mem is None:
                    tainted_mem = []
                tainted_mem.append((tail.addr, tail.end_addr))
            if tail.dest is not None:
                if src_tainted:
                    tainted.add(tail.dest)
                else:
                    tainted.discard(tail.dest)
            if head.is_store:
                # A store in the catalyst forbids any later store
                # pairing; a partially-overlapping catalyst load
                # forbids it too (deadlock), but later disjoint tails
                # remain possible.
                if tail.is_store:
                    _note(reason_counts, Reason.ALIASING_STORE)
                    break
                if tail.is_load and not load_overlap \
                        and _straddles(head, tail):
                    load_overlap = True
    return pairs


def oracle_other_pairs_reference(trace: Sequence[MicroOp],
                                 exclude: Optional[Sequence[FusedPair]] = None,
                                 ) -> List[FusedPair]:
    """Reference greedy scan for consecutive non-memory Table I idiom
    pairs: same arguments and pairs as
    :func:`repro.fusion.oracle.oracle_other_pairs`."""
    uops = list(trace)
    taken = set()
    for pair in exclude or ():
        taken.add(pair.head_seq)
        taken.add(pair.tail_seq)
    pairs: List[FusedPair] = []
    i = 0
    while i + 1 < len(uops):
        head, tail = uops[i], uops[i + 1]
        if (head.seq not in taken and tail.seq not in taken
                and tail.seq == head.seq + 1):
            idiom = match_idiom(head.inst, tail.inst)
            if idiom is not None:
                pairs.append(FusedPair(head_seq=head.seq, tail_seq=tail.seq,
                                       idiom=idiom.name, is_memory=False))
                i += 2
                continue
        i += 1
    return pairs
