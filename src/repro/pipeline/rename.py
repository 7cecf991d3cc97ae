"""Register renaming with the Helios NCSF machinery (Section IV-B2).

The unit tracks, per architectural register, which in-flight µ-op
produces its current value (the RAT), and implements all the NCSF
additions:

* ``Max Active NCS`` / ``Active NCS`` nesting counters;
* the rename side buffer that defers the tail nucleus's destination
  RAT update (the WaR case) — modeled by simply not updating the RAT
  for tail destinations until the tail ghost renames;
* ``Inside NCS`` RAT bits that detect RaW dependencies between the
  catalyst and the tail nucleus;
* ``Deadlock Tag`` propagation that detects direct or transitive
  dependence of the tail nucleus on the head nucleus;
* the ``NCSF Serializing`` and ``NCSF StorePair`` bits.

Physical register occupancy is modeled as free-counter accounting; the
actual values live in the functional trace.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.config import ProcessorConfig
from repro.isa.registers import FP_REG_BASE
from repro.pipeline.uop import FusionKind, PipeUop


class RenameUnit:
    """Renames µ-ops in program order and validates NCSF'd pairs."""

    def __init__(self, config: ProcessorConfig):
        self.config = config
        self.free_int = config.int_prf_size - 32   # architectural mappings
        self.free_fp = config.fp_prf_size - 32
        self._writers: Dict[int, PipeUop] = {}
        # Undo log for pipeline flushes: (squash_key_seq, reg, previous),
        # in rename order.  ``retire_below`` trims the prefix no flush
        # can reach, so the log spans only the in-flight window.
        self._writer_log: Deque[Tuple[int, int, Optional[PipeUop]]] = deque()
        #: Highest boundary ``retire_below`` has trimmed to: a flush
        #: below it would need undo entries that are gone.
        self._retired_below = 0
        # NCSF state.
        self.active_ncs = 0
        self.max_active_ncs = 0
        self.inside_ncs: set = set()
        self.deadlock_tags: Dict[int, int] = {}
        self.ncsf_serializing = False
        self.ncsf_storepair = False

    # -- physical register accounting -----------------------------------------

    @staticmethod
    def _split_dests(dests) -> Tuple[int, int]:
        ints = sum(1 for d in dests if d < FP_REG_BASE)
        return ints, len(dests) - ints

    def can_allocate(self, uop: PipeUop) -> bool:
        return (self.free_int >= uop.n_int_dests
                and self.free_fp >= uop.n_fp_dests)

    def allocate_uop(self, uop: PipeUop) -> None:
        """Allocate ``uop.dests`` via its cached per-file counters."""
        self.free_int -= uop.n_int_dests
        self.free_fp -= uop.n_fp_dests

    def release_uop(self, uop: PipeUop) -> None:
        """Release ``uop.dests`` via its cached per-file counters."""
        self.free_int += uop.n_int_dests
        self.free_fp += uop.n_fp_dests

    def release(self, dests) -> None:
        """Release an explicit register list (partial-unfuse path)."""
        ints, fps = self._split_dests(dests)
        self.free_int += ints
        self.free_fp += fps

    # -- helpers ----------------------------------------------------------------

    def _bind_sources(self, uop: PipeUop, sources) -> None:
        writers = self._writers
        producers = uop.producers
        for reg in sources:
            producer = writers.get(reg)
            if producer is not None and (producer, reg) not in producers:
                if producers.__class__ is tuple:
                    # First edge: replace the shared construction-time
                    # empty tuple (see uop._NO_EDGES) with a real list.
                    producers = uop.producers = []
                producers.append((producer, reg))

    def _set_writer(self, reg: int, uop: PipeUop, squash_key: int) -> None:
        self._writer_log.append((squash_key, reg, self._writers.get(reg)))
        self._writers[reg] = uop

    def _propagate_tags(self, sources, dests, extra_bits: int = 0) -> None:
        tags = self.deadlock_tags
        if not tags and not extra_bits:
            return  # no live nest: nothing to combine, nothing to clear
        combined = extra_bits
        for reg in sources:
            combined |= tags.get(reg, 0)
        for reg in dests:
            if combined:
                tags[reg] = combined
            else:
                tags.pop(reg, None)

    def _end_nest_if_done(self) -> None:
        if self.active_ncs == 0:
            self.max_active_ncs = 0
            self.inside_ncs.clear()
            self.deadlock_tags.clear()
            self.ncsf_serializing = False
            self.ncsf_storepair = False

    # -- main entry points ---------------------------------------------------

    def rename(self, uop: PipeUop) -> None:
        """Rename one non-ghost µ-op (possibly a pending NCSF head)."""
        head = uop.head

        if uop.fusion is FusionKind.NCSF and uop.pending:
            self._rename_ncsf_head(uop)
            return

        if uop.tail is None and not uop.is_store:
            # Common case: a single unfused non-store nucleus.
            # (_bind_sources, inlined: this path renames the bulk of
            # the dynamic stream.  The producer list is allocated only
            # on the first edge — source-less and producer-less µ-ops
            # keep the shared empty tuple from construction.)
            sources = head.srcs
            writers_get = self._writers.get
            producers = None
            for reg in sources:
                producer = writers_get(reg)
                if producer is not None:
                    edge = (producer, reg)
                    if producers is None:
                        producers = uop.producers = [edge]
                    elif edge not in producers:
                        producers.append(edge)
        else:
            sources = list(head.srcs)
            if uop.tail is not None:
                # Consecutive fusion: tail sources resolve here too,
                # minus any idiom-internal dependence on the head's
                # destination.
                for reg in uop.tail.srcs:
                    if reg != head.dest and reg not in sources:
                        sources.append(reg)
            if uop.is_store:
                # Split STA/STD: the store issues (address generation)
                # on its base register(s); data registers are captured
                # when they arrive and gate only commit and forwarding.
                address_regs = {head.inst.rs1}
                if uop.tail is not None:
                    address_regs.add(uop.tail.inst.rs1)
                address_regs.discard(None)
                data_sources = [r for r in sources if r not in address_regs]
                sources = [r for r in sources if r in address_regs]
                self._bind_sources(uop, sources)
                writers = self._writers
                for reg in data_sources:
                    producer = writers.get(reg)
                    if producer is not None:
                        late = uop.late_producers
                        if (producer, reg) not in late:
                            if late.__class__ is tuple:
                                late = uop.late_producers = []
                            late.append((producer, reg))
                sources = sources + data_sources  # for tag propagation
            else:
                self._bind_sources(uop, sources)
        self.free_int -= uop.n_int_dests
        self.free_fp -= uop.n_fp_dests
        dests = uop.dests
        if dests:
            # _set_writer, inlined (one or two dests per µ-op).
            writers = self._writers
            log_append = self._writer_log.append
            seq = uop.seq
            for reg in dests:
                log_append((seq, reg, writers.get(reg)))
                writers[reg] = uop
            if self.active_ncs > 0:
                self.inside_ncs.update(dests)
        if self.deadlock_tags:
            self._propagate_tags(sources, dests)

        if self.max_active_ncs > 0:
            if head.is_serializing or (uop.tail is not None
                                       and uop.tail.is_serializing):
                self.ncsf_serializing = True
            if uop.is_store:
                self.ncsf_storepair = True

    def _rename_ncsf_head(self, uop: PipeUop) -> None:
        """A pending NCSF'd µ-op enters Rename."""
        head = uop.head
        if self.max_active_ncs >= self.config.ncsf_nesting:
            # Nesting saturated: behaves as unfused (Section IV-B2).
            uop.unfuse()
            self._bind_sources(uop, head.srcs)
            self.allocate_uop(uop)
            for reg in uop.dests:
                self._set_writer(reg, uop, uop.seq)
                if self.active_ncs > 0:
                    self.inside_ncs.add(reg)
            self._propagate_tags(head.srcs, uop.dests)
            return

        # The fused µ-op renames all its destinations now, but only the
        # head's enter the RAT — the tail's stay in the side buffer
        # until the tail nucleus renames (the WaR fix).
        nest_bit = 1 << self.max_active_ncs
        uop.nest_level = self.max_active_ncs
        self.max_active_ncs += 1
        self.active_ncs += 1
        self._bind_sources(uop, head.srcs)
        self.allocate_uop(uop)
        head_dests = [d for d in uop.dests
                      if head.dest is not None and d == head.dest]
        for reg in head_dests:
            self._set_writer(reg, uop, uop.seq)
            self.inside_ncs.add(reg)
        self._propagate_tags(head.srcs, head_dests, extra_bits=nest_bit)
        if uop.is_store:
            # The first head of a nest does not trip the StorePair bit,
            # but a second (nested) store head does.
            if self.active_ncs > 1:
                self.ncsf_storepair = True

    def rename_tail_ghost(self, ghost: PipeUop) -> str:
        """The tail nucleus enters Rename: validate or flag for unfuse.

        Returns one of ``"validated"``, ``"deadlock"``, ``"serializing"``,
        ``"storepair"``.  The actual un/fusing bookkeeping is driven by
        the core, which owns the queues.
        """
        head_uop = ghost.ghost_of
        tail = ghost.head
        outcome = "validated"

        if self.ncsf_serializing:
            outcome = "serializing"
        elif head_uop.is_store and self.ncsf_storepair:
            outcome = "storepair"
        else:
            nest_bit = 1 << head_uop.nest_level
            for reg in tail.srcs:
                if self.deadlock_tags.get(reg, 0) & nest_bit:
                    outcome = "deadlock"
                    break

        if outcome == "validated":
            # Bind the tail's true producers (post-catalyst values):
            # this is how a RaW between catalyst and tail is corrected
            # (case 1).
            # A tail store's *data* register does not gate issue — the
            # fused store generates its address and captures the head
            # data first, and the tail data is captured when it arrives
            # (split STA/STD); it gates commit and tail-byte forwarding.
            writers = self._writers
            for reg in tail.srcs:
                producer = writers.get(reg)
                if producer is None or producer is head_uop:
                    continue
                if head_uop.is_store and reg == tail.inst.rs2 \
                        and reg != tail.inst.rs1:
                    if head_uop.late_producers.__class__ is tuple:
                        head_uop.late_producers = []
                    head_uop.late_producers.append((producer, reg))
                else:
                    if head_uop.extra_producers.__class__ is tuple:
                        head_uop.extra_producers = []
                    head_uop.extra_producers.append((producer, reg))
            # Deferred destination rename leaves the side buffer and
            # updates the RAT, in program order.
            if tail.dest is not None and tail.dest != head_uop.head.dest:
                self._set_writer(tail.dest, head_uop, tail.seq)
                if self.active_ncs > 0:
                    self.inside_ncs.add(tail.dest)

        self.active_ncs -= 1
        self._end_nest_if_done()
        return outcome

    # -- flush recovery ---------------------------------------------------------

    def retire_below(self, seq: int) -> None:
        """Drop the undo entries keyed below ``seq``, the ROB head's.

        Every flush targets an in-flight µ-op, so none reaches below
        the ROB head; keys are appended in rename order, so the dropped
        prefix is exactly what ``flush_from`` could never pop.
        """
        log = self._writer_log
        while log and log[0][0] < seq:
            log.popleft()
        if seq > self._retired_below:
            self._retired_below = seq

    def flush_from(self, seq: int) -> None:
        """Squash every rename effect with squash key >= ``seq``."""
        if seq < self._retired_below:
            raise RuntimeError(
                "flush from seq %d reaches below the retired undo-log "
                "boundary %d: the RAT cannot be restored"
                % (seq, self._retired_below))
        log = self._writer_log
        while log and log[-1][0] >= seq:
            _, reg, previous = log.pop()
            if previous is None:
                self._writers.pop(reg, None)
            else:
                self._writers[reg] = previous
        # Any NCSF nest state is conservatively reset on a flush.
        self.active_ncs = 0
        self._end_nest_if_done()

    def writer_of(self, reg: int) -> Optional[PipeUop]:
        return self._writers.get(reg)

    # -- sanitizer hooks --------------------------------------------------------

    def sanitize_violations(self, out: List[str], in_flight,
                            pending_heads: int,
                            validated_ghosts: int) -> None:
        """Always-off invariant checks, run by an armed ``Sanitizer``.

        Appends human-readable violation strings to ``out``; none means
        every invariant holds.  ``in_flight`` answers ``uop in
        in_flight`` for the renamed, unsquashed µ-ops the core still
        tracks (rename latch and ROB).  ``pending_heads`` counts the
        pending NCSF heads among them that renamed;
        ``validated_ghosts`` the validated tail ghosts in the rename
        latch (their heads' ``Active NCS`` slot is already released
        but the head stays ``pending`` until the ghost dispatches).
        """
        cap_int = self.config.int_prf_size - 32
        cap_fp = self.config.fp_prf_size - 32
        if not 0 <= self.free_int <= cap_int:
            out.append("free_int=%d outside [0, %d]: physical register "
                       "leak or double release" % (self.free_int, cap_int))
        if not 0 <= self.free_fp <= cap_fp:
            out.append("free_fp=%d outside [0, %d]" % (self.free_fp, cap_fp))
        # RAT <-> ROB consistency: every current mapping points at a
        # committed µ-op or a live in-flight one — never at a squashed,
        # uncommitted µ-op (the writer undo log must have unwound it).
        for reg, writer in self._writers.items():
            if writer.committed:
                continue
            if writer.squashed:
                out.append("RAT[%d] -> squashed uncommitted seq %d"
                           % (reg, writer.seq))
            elif writer not in in_flight:
                out.append("RAT[%d] -> untracked in-flight seq %d"
                           % (reg, writer.seq))
        # NCS nesting-counter balance: Active NCS equals the pending
        # NCSF heads that renamed, minus heads whose ghost validated
        # but has not dispatched yet (the slot frees at ghost rename).
        expected = pending_heads - validated_ghosts
        if self.active_ncs != expected:
            out.append(
                "Active NCS=%d but %d pending renamed heads - %d "
                "validated undispatched ghosts" %
                (self.active_ncs, pending_heads, validated_ghosts))
        if self.active_ncs < 0 or self.max_active_ncs < 0:
            out.append("negative NCS counter: active=%d max=%d"
                       % (self.active_ncs, self.max_active_ncs))
        if self.max_active_ncs > self.config.ncsf_nesting:
            out.append("max_active_ncs=%d exceeds configured nesting %d"
                       % (self.max_active_ncs, self.config.ncsf_nesting))
        # Deadlock-tag domain: tags are bitmasks of live nest levels.
        # A bit at or above ``max_active_ncs`` can never be matched by
        # a ghost, so a dependence could escape detection (acyclicity
        # would be voided).
        if self.max_active_ncs == 0:
            if self.deadlock_tags:
                out.append("deadlock tags outlive the nest: %r"
                           % sorted(self.deadlock_tags))
            if self.inside_ncs:
                out.append("Inside-NCS bits outlive the nest: %r"
                           % sorted(self.inside_ncs))
            if self.ncsf_serializing or self.ncsf_storepair:
                out.append("NCSF Serializing/StorePair bits outlive "
                           "the nest")
        elif self.max_active_ncs > 0:
            # (A negative count is reported above and has no levels.)
            limit = 1 << self.max_active_ncs
            for reg, bits in self.deadlock_tags.items():
                if bits <= 0 or bits >= limit:
                    out.append(
                        "deadlock tag for reg %d has bits 0x%x outside "
                        "live nest levels [0, %d)"
                        % (reg, bits, self.max_active_ncs))
