"""The in-flight pipeline µ-op.

A :class:`PipeUop` wraps one dynamic trace µ-op — or two, once fused.
Consecutively fused pairs are created whole at Decode (the tail
disappears immediately); NCSF'd pairs are created *pending* in the
Allocation Queue and keep a tail-nucleus ghost that flows through
Rename/Dispatch to validate or unfuse them (Section IV-B).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro.isa.registers import FP_REG_BASE
from repro.isa.trace import MicroOp


#: Shared empty producer-edge collection.  PipeUops are constructed with
#: this tuple in all three edge slots; writers rebind to a fresh list
#: before the first append (Rename does so unconditionally for
#: ``producers``), so the common construct-then-discard allocations are
#: avoided.  Readers only iterate/test truthiness, which tuples serve.
#: Commit and squash rebind all three back to it, so a µ-op that has
#: left the window keeps no other µ-op alive (DESIGN §4d).
_NO_EDGES: Tuple = ()


class FusionKind(enum.Enum):
    """How a PipeUop came to carry two trace µ-ops."""

    NONE = "none"
    CSF = "csf"           # consecutive fusion at Decode
    NCSF = "ncsf"         # predictive non-consecutive fusion in the AQ
    OTHER = "other"       # non-memory Table I idiom (always consecutive)


class PipeUop:
    """One pipeline entry; owns one or two architectural instructions."""

    __slots__ = (
        "head", "tail", "fusion", "idiom", "pending", "ncs_ready",
        "is_tail_ghost", "ghost_of", "nest_level",
        "dests", "producers", "extra_producers",
        "fetch_c", "rename_c", "dispatch_c", "issue_c", "complete_c",
        "committed", "squashed", "in_iq", "not_before",
        "mispredicted_branch", "fp_prediction",
        # Hot-path materialized fields (avoid property overhead in the
        # per-cycle scheduler scan).
        "seq", "pc", "opclass", "is_memory", "is_load", "is_store",
        "n_int_dests", "n_fp_dests", "waiters", "parked", "late_producers",
        "tail_complete_c", "tail_dest_reg",
    )

    def __init__(self, head: MicroOp):
        self.head = head
        self.seq = head.seq
        self.pc = head.pc
        self.opclass = head.opclass_i  # int: indexes ports/latencies
        self.is_memory = head.is_memory
        self.is_load = head.is_load
        self.is_store = head.is_store
        self.not_before = 0
        self.waiters: Optional[List["PipeUop"]] = None
        self.parked = False
        self.tail: Optional[MicroOp] = None
        self.fusion = FusionKind.NONE
        self.idiom: Optional[str] = None
        self.pending = False          # NCSF'd µ-op awaiting validation
        self.ncs_ready = True         # may issue (paper's NCS Ready bit)
        self.is_tail_ghost = False
        self.ghost_of: Optional["PipeUop"] = None
        self.nest_level = 0
        self.producers = _NO_EDGES
        self.extra_producers = _NO_EDGES
        # Tail-store data producers: a fused store pair issues (address
        # generation + head data capture) without them; they gate only
        # commit and tail-byte forwarding (split STA/STD semantics).
        self.late_producers = _NO_EDGES
        self.fetch_c = 0
        self.rename_c = 0
        self.dispatch_c = 0
        self.issue_c = 0
        self.complete_c: Optional[int] = None
        # Split completion for fused load pairs (Section II-B: the two
        # destinations must be provided to dependents independently).
        self.tail_complete_c: Optional[int] = None
        self.tail_dest_reg: Optional[int] = None
        self.committed = False
        self.squashed = False
        self.in_iq = False
        self.mispredicted_branch = False
        self.fp_prediction = None
        # Inline single-destination bookkeeping (the construction-time
        # case: fusion arrives later via fuse_* -> _rebuild_dests).
        dest = head.dest
        if dest is None:
            self.dests = ()
            self.n_int_dests = 0
            self.n_fp_dests = 0
        elif dest < FP_REG_BASE:
            self.dests = (dest,)
            self.n_int_dests = 1
            self.n_fp_dests = 0
        else:
            self.dests = (dest,)
            self.n_int_dests = 0
            self.n_fp_dests = 1

    # -- identity ------------------------------------------------------------

    @property
    def tail_seq(self) -> Optional[int]:
        return self.tail.seq if self.tail is not None else None

    @property
    def is_fused(self) -> bool:
        return self.fusion is not FusionKind.NONE

    @property
    def instruction_count(self) -> int:
        """Architectural instructions carried (for IPC accounting)."""
        return 2 if self.tail is not None else 1

    # -- memory shape --------------------------------------------------------

    @property
    def mem_span(self) -> Tuple[int, int]:
        """(start address, size) covering all carried accesses."""
        head = self.head
        if self.tail is None or not self.tail.is_memory:
            return head.addr, head.size
        tail = self.tail
        start = min(head.addr, tail.addr)
        end = max(head.end_addr, tail.end_addr)
        return start, end - start

    # -- fusion lifecycle -----------------------------------------------------

    def fuse_consecutive(self, tail: MicroOp, idiom: str,
                         is_memory_pair: bool) -> None:
        """Absorb ``tail`` at Decode (CSF or an 'Others' idiom)."""
        self.tail = tail
        self.fusion = FusionKind.CSF if is_memory_pair else FusionKind.OTHER
        self.idiom = idiom
        self._rebuild_dests()

    def fuse_ncsf(self, tail: MicroOp, idiom: str) -> None:
        """Become a pending NCSF'd µ-op (predictive fusion in the AQ)."""
        self.tail = tail
        self.fusion = FusionKind.NCSF
        self.idiom = idiom
        self.pending = True
        self.ncs_ready = False
        self._rebuild_dests()

    def validate(self) -> None:
        """The tail nucleus confirmed this NCSF'd µ-op (NCS Ready set)."""
        self.pending = False
        self.ncs_ready = True

    def unfuse(self) -> Optional[MicroOp]:
        """Revert to a simple µ-op; returns the dropped tail, if any."""
        tail = self.tail
        self.tail = None
        self.late_producers = _NO_EDGES
        self.tail_complete_c = None
        self.tail_dest_reg = None
        self.fusion = FusionKind.NONE
        self.idiom = None
        self.pending = False
        self.ncs_ready = True
        self._rebuild_dests()
        return tail

    def _rebuild_dests(self) -> None:
        dests = []
        if self.head.dest is not None:
            dests.append(self.head.dest)
        if self.tail is not None and self.tail.dest is not None \
                and self.tail.dest not in dests:
            dests.append(self.tail.dest)
        self.dests = tuple(dests)
        ints = 0
        for d in dests:
            if d < FP_REG_BASE:
                ints += 1
        self.n_int_dests = ints
        self.n_fp_dests = len(dests) - ints

    # -- scheduling -----------------------------------------------------------

    def dest_ready_c(self, reg: int) -> Optional[int]:
        """When the value of destination ``reg`` becomes available.

        Fused load pairs deliver their two destinations independently:
        the tail's register arrives at ``tail_complete_c``.
        """
        if self.tail_complete_c is not None and reg == self.tail_dest_reg:
            return self.tail_complete_c
        return self.complete_c

    def late_ready_at(self) -> Optional[int]:
        """Cycle at which the tail store data is captured (None: not yet)."""
        latest = 0
        for producer, reg in self.late_producers:
            completion = producer.dest_ready_c(reg)
            if completion is None:
                return None
            if completion > latest:
                latest = completion
        return latest

    def park(self, consumer: "PipeUop") -> None:
        consumer.parked = True
        if self.waiters is None:
            self.waiters = [consumer]
        else:
            self.waiters.append(consumer)

    def __repr__(self) -> str:
        label = self.head.inst.mnemonic
        if self.tail is not None:
            label += "+%s" % self.tail.inst.mnemonic
        return "<PipeUop %d %s %s>" % (self.seq, label, self.fusion.value)


def make_tail_ghost(tail: MicroOp, head_uop: PipeUop) -> PipeUop:
    """The tail-nucleus ghost left in the AQ by NCSF (carries the NCS Tag)."""
    ghost = PipeUop(tail)
    ghost.is_tail_ghost = True
    ghost.ghost_of = head_uop
    return ghost
