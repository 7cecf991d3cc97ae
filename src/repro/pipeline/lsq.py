"""Load and store queues with fused-pair entries (Section IV-B6).

Each entry stores the address of its first byte and a byte bitvector
(up to the 64 B access granularity), exactly the LQ/SQ design the paper
assumes for store-to-load forwarding.  A fused pair occupies a single
entry whose bitvector covers both accesses; the second access's offset
and size are implicitly tracked per sub-access so that program order is
enforced per byte (the tail nucleus's bytes order against the catalyst,
not against the head's position).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro.memory.stlf import StoreForwardMatch, bitvector_for, match_access
from repro.pipeline.uop import PipeUop


class _SubAccess:
    """One architectural access inside a (possibly fused) LSQ entry."""

    __slots__ = ("addr", "end", "mask", "seq")

    def __init__(self, addr: int, size: int, seq: int):
        self.addr = addr
        self.end = addr + size
        self.mask = bitvector_for(addr, size)
        self.seq = seq


class LSQEntry:
    """Shared shape of LQ and SQ entries."""

    __slots__ = ("uop", "subs", "addr_known", "drained_c")

    def __init__(self, uop: PipeUop):
        self.uop = uop
        self.subs: List[_SubAccess] = [
            _SubAccess(uop.head.addr, uop.head.size, uop.head.seq)]
        if uop.tail is not None and uop.tail.is_memory:
            self.subs.append(
                _SubAccess(uop.tail.addr, uop.tail.size, uop.tail.seq))
        self.addr_known = False   # set when the µ-op's AGU executes
        self.drained_c: Optional[int] = None  # stores: cache write done

    def drop_tail(self) -> None:
        """Unfuse: the entry shrinks back to the head access."""
        del self.subs[1:]


class LoadBlock(enum.Enum):
    """Why a load cannot issue this cycle."""

    NONE = "none"                 # free to access the cache
    FORWARD = "forward"           # full STLF hit: cheap completion
    WAIT_STORE_DATA = "wait_data"     # forwarding store not executed yet
    WAIT_STORE_DRAIN = "wait_drain"   # partial overlap: wait for the store
    WAIT_STORE_ADDR = "wait_addr"     # store-set predicted dependence


class LoadStoreUnit:
    """The LQ and SQ plus their ordering/forwarding checks."""

    def __init__(self, lq_size: int, sq_size: int):
        self.lq_size = lq_size
        self.sq_size = sq_size
        self.lq: List[LSQEntry] = []
        self.sq: List[LSQEntry] = []
        self.forwards = 0
        self.violations = 0

    # -- occupancy ---------------------------------------------------------

    def lq_full(self) -> bool:
        return len(self.lq) >= self.lq_size

    def sq_full(self) -> bool:
        return len(self.sq) >= self.sq_size

    def allocate(self, uop: PipeUop) -> LSQEntry:
        entry = LSQEntry(uop)
        if uop.is_load:
            self.lq.append(entry)
        else:
            self.sq.append(entry)
        return entry

    def remove(self, entry: LSQEntry) -> None:
        queue = self.lq if entry.uop.is_load else self.sq
        try:
            queue.remove(entry)   # one scan instead of `in` + remove
        except ValueError:
            pass                  # already squashed out of the queue

    def squash_from(self, seq: int) -> None:
        # Entries are allocated in dispatch (= program) order, so the
        # squashed set is a suffix of each queue.
        lq = self.lq
        while lq and lq[-1].uop.seq >= seq:
            lq.pop()
        sq = self.sq
        while sq and sq[-1].uop.seq >= seq:
            sq.pop()

    # -- load issue ----------------------------------------------------------

    def check_load(self, entry: LSQEntry,
                   depends_on_store) -> Tuple[LoadBlock, Optional[LSQEntry]]:
        """Can this load issue, and against which store does it wait?

        ``depends_on_store(store_pc)`` is the store-set query: True when
        the load must not speculate past an unresolved store at that PC.

        Implements the paper's STLF scheme per byte: each load sub-access
        orders against stores that are older *than that sub-access* —
        which is what lets a fused pair's tail bytes respect catalyst
        stores.
        """
        decision = LoadBlock.NONE
        forward_from: Optional[LSQEntry] = None
        for store in self.sq:
            store_uop = store.uop
            for load_sub in entry.subs:
                # Sub-accesses are in program order, so the store has
                # subs older than the load iff its first one is.
                if store.subs[0].seq >= load_sub.seq:
                    continue
                if not store.addr_known:
                    if depends_on_store(store_uop.pc):
                        return LoadBlock.WAIT_STORE_ADDR, store
                    continue  # speculate past the unresolved store
                for sub_index, store_sub in enumerate(store.subs):
                    if store_sub.seq >= load_sub.seq:
                        continue
                    if store_sub.end <= load_sub.addr \
                            or load_sub.end <= store_sub.addr:
                        continue  # disjoint ranges: no bytes shared
                    outcome = match_access(store_sub.addr, store_sub.mask,
                                           load_sub.addr, load_sub.mask)
                    if outcome is StoreForwardMatch.NONE:
                        continue
                    if outcome is StoreForwardMatch.FULL:
                        # Youngest matching store wins; stores scan in
                        # program order so later matches override.
                        forward_from = store
                        decision = LoadBlock.FORWARD
                    else:
                        return LoadBlock.WAIT_STORE_DRAIN, store
        if decision is LoadBlock.FORWARD:
            if forward_from.uop.complete_c is None:
                return LoadBlock.WAIT_STORE_DATA, forward_from
            if forward_from.uop.late_producers \
                    and forward_from.uop.late_ready_at() is None:
                # Split STA/STD: the store's address is known but its
                # data has not been captured yet.
                return LoadBlock.WAIT_STORE_DATA, forward_from
            self.forwards += 1
            return LoadBlock.FORWARD, forward_from
        return LoadBlock.NONE, None

    # -- sanitizer hooks -------------------------------------------------------

    def sanitize_violations(self, out: List[str], granularity: int) -> None:
        """Always-off LSQ ordering invariants (see repro.analysis.sanitizer).

        Appends human-readable violation strings to ``out``; none when
        the queues are well formed: allocation order matches program
        order, no squashed entries survive a flush, sub-accesses belong
        to their µ-op, and a completed fused entry's byte span fits the
        access granularity (execute must have unfused any Case-5 pair).
        """
        self._sanitize_queue(out, "LQ", self.lq, granularity)
        self._sanitize_queue(out, "SQ", self.sq, granularity)

    @staticmethod
    def _sanitize_queue(out: List[str], name: str, queue: List[LSQEntry],
                        granularity: int) -> None:
        previous = -1
        for entry in queue:
            uop = entry.uop
            seq = uop.seq
            if seq <= previous:
                out.append("%s not in program order at seq %d (after "
                           "%d)" % (name, seq, previous))
            previous = seq
            if uop.squashed:
                out.append("%s holds squashed seq %d" % (name, seq))
            if uop.committed and uop.is_load:
                out.append("LQ holds committed load seq %d" % seq)
            subs = entry.subs
            count = len(subs)
            if count == 1:
                head = subs[0]
                if head.seq != seq:
                    out.append("%s seq %d head sub claims seq %d"
                               % (name, seq, head.seq))
                if head.end <= head.addr:
                    out.append("%s seq %d sub with empty byte range"
                               % (name, seq))
                continue
            if count != 2:
                out.append("%s seq %d has %d sub-accesses"
                           % (name, seq, count))
                continue
            head, second = subs
            head_lo, head_hi = head.addr, head.end
            tail_lo, tail_hi = second.addr, second.end
            if head.seq != seq:
                out.append("%s seq %d head sub claims seq %d"
                           % (name, seq, head.seq))
            tail = uop.tail
            if tail is None or not tail.is_memory:
                out.append("%s seq %d keeps a tail sub after unfuse"
                           % (name, seq))
            elif second.seq != tail.seq or second.seq <= seq:
                out.append("%s seq %d tail sub seq %d does not match "
                           "tail nucleus %d"
                           % (name, seq, second.seq, tail.seq))
            if uop.complete_c is not None:
                span = ((head_hi if head_hi >= tail_hi else tail_hi)
                        - (head_lo if head_lo <= tail_lo else tail_lo))
                if span > granularity:
                    out.append(
                        "%s seq %d executed with span %d > "
                        "granularity %d (Case 5 missed)"
                        % (name, seq, span, granularity))
            if head_hi <= head_lo:
                out.append("%s seq %d sub with empty byte range"
                           % (name, seq))
            if tail_hi <= tail_lo:
                out.append("%s seq %d sub with empty byte range"
                           % (name, seq))

    # -- store issue: memory-order violation detection -------------------------

    def find_violations(self, store_entry: LSQEntry) -> List[LSQEntry]:
        """Issued younger loads whose bytes overlap this resolving store."""
        victims = []
        for load in self.lq:
            if load.uop.issue_c == 0 or load.uop.complete_c is None:
                continue  # not yet issued: no speculation to undo
            for load_sub in load.subs:
                hit = False
                for store_sub in store_entry.subs:
                    if load_sub.seq < store_sub.seq:
                        continue  # load bytes older than the store: fine
                    if store_sub.end <= load_sub.addr \
                            or load_sub.end <= store_sub.addr:
                        continue  # disjoint ranges
                    if match_access(store_sub.addr, store_sub.mask,
                                    load_sub.addr, load_sub.mask) \
                            is not StoreForwardMatch.NONE:
                        hit = True
                        break
                if hit:
                    victims.append(load)
                    self.violations += 1
                    break
        return victims
