"""µ-architectural sanitizer: always-off invariant assertions.

Armed by passing an instance to
:class:`~repro.pipeline.core.PipelineCore` (``sanitizer=``), as
:func:`repro.analysis.differential.check_pipeline` does, the
sanitizer walks the pipeline's live structures once per simulated
cycle and raises :class:`SanitizerError` on the first broken
invariant, with cycle- and µ-op-level provenance.  The invariants are
the structural half of Helios' correctness argument:

* **RAT ↔ ROB consistency** — every register-alias-table mapping
  points at a committed µ-op or a live in-flight one, never at a
  squashed uncommitted µ-op (flush recovery must unwind the writer
  log completely); physical-register free counters stay in range.
* **NCS nesting-counter balance** — ``Active NCS`` equals the pending
  NCSF heads in flight (modulo validated tail ghosts awaiting
  dispatch), and all nest state clears when the nest collapses.
* **Deadlock-tag acyclicity domain** — deadlock tags only carry bits
  for live nest levels; a stale bit could let a tail-on-head
  dependence escape the rename-time cycle check.
* **LSQ ordering** — LQ/SQ in program order, sub-accesses matching
  their nucleii, no squashed residents, completed fused entries
  within the access granularity.
* **ROB shape** — monotone sequence numbers, no squashed or
  already-committed residents, issue-queue census matching, and an
  LSQ side-table entry for exactly the in-flight memory µ-ops.

The per-cycle hooks cost one ``is not None`` test when disarmed, and
never a call: lint rule 5 (``tools/lint_repro.py``) checks that every
hook call in the core's per-cycle methods sits under such a test.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["Sanitizer", "SanitizerError"]

#: ``FusionKind.NCSF.value``; this module imports nothing from
#: ``repro.pipeline``, so it matches the kind by value.
_NCSF = "ncsf"


class SanitizerError(AssertionError):
    """A µ-architectural invariant broke.

    ``cycle`` is the simulated cycle the check ran in; ``violations``
    the individual findings (each names the structure and the µ-op
    sequence numbers involved).
    """

    def __init__(self, cycle: int, violations: list[str]):
        self.cycle = cycle
        self.violations = list(violations)
        detail = "; ".join(self.violations[:8])
        if len(self.violations) > 8:
            detail += "; ... (%d total)" % len(self.violations)
        super(SanitizerError, self).__init__(
            "sanitizer: %d invariant violation(s) at cycle %d: %s"
            % (len(self.violations), cycle, detail))


class _Window:
    """The core's in-flight window (rename latch and ROB) as a set.

    ``uop in window`` tests identity against the residents without
    copying either structure: the latch is a few entries and is
    scanned, and the ROB, when its sequence numbers rise strictly, is
    binary-searched by ``seq`` (a ROB out of order is scanned).
    """

    __slots__ = ("latch", "rob", "ordered")

    def __init__(self) -> None:
        self.latch: Sequence = ()
        self.rob: Sequence = ()
        self.ordered = True

    def __contains__(self, uop) -> bool:
        for resident in self.latch:
            if resident is uop:
                return True
        rob = self.rob
        if not self.ordered:
            for resident in rob:
                if resident is uop:
                    return True
            return False
        seq = uop.seq
        lo, hi = 0, len(rob)
        while lo < hi:
            mid = (lo + hi) >> 1
            if rob[mid].seq < seq:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(rob) and rob[lo] is uop


class Sanitizer(object):
    """Drives the per-unit ``sanitize_violations`` hooks over a core.

    Duck-typed against :class:`repro.pipeline.core.PipelineCore`: the
    core never imports this module, and this module imports nothing
    from ``repro.pipeline``.  A check walks the ROB, the rename latch,
    the RAT and the LQ/SQ once each and allocates nothing unless an
    invariant broke.
    """

    def __init__(self) -> None:
        #: Cycles checked so far (the differential report prints it).
        self.checks_run = 0
        self._violations: list[str] = []
        self._window = _Window()

    # -- per-cycle -----------------------------------------------------

    def check(self, core) -> None:
        """Run every invariant; raises :class:`SanitizerError`."""
        self.checks_run += 1
        out = self._violations
        out.clear()
        window = self._window
        window.rob = core.rob
        window.latch = core.rename_latch
        pending_heads = self._rob_violations(core, out)
        # NCS balance inputs from the latch: renamed pending heads wait
        # here for dispatch, next to the tail ghosts whose validation
        # already released their head's Active NCS slot.
        validated_ghosts = 0
        for uop in core.rename_latch:
            if uop.pending and uop.rename_c and uop.fusion.value == _NCSF:
                pending_heads += 1
            if uop.is_tail_ghost and uop.ghost_of is not None \
                    and uop.ghost_of.pending:
                validated_ghosts += 1
        core.rename_unit.sanitize_violations(
            out, window, pending_heads, validated_ghosts)
        core.lsu.sanitize_violations(
            out, core.config.cache_access_granularity)
        if out:
            raise SanitizerError(core.now, out)

    def _rob_violations(self, core, out: list[str]) -> int:
        """ROB shape into ``out``; returns the pending renamed NCSF
        heads it holds (one input of the Active-NCS balance)."""
        lsq_entries = core._lsq_entries
        previous = -1
        ordered = True
        in_iq = 0
        tracked = 0
        pending_heads = 0
        for uop in core.rob:
            seq = uop.seq
            if seq <= previous:
                out.append("ROB not in program order at seq %d (after %d)"
                           % (seq, previous))
                ordered = False
            previous = seq
            if uop.squashed:
                out.append("ROB holds squashed seq %d" % seq)
            if uop.committed:
                out.append("ROB holds committed seq %d" % seq)
            if uop.in_iq:
                in_iq += 1
            if uop.is_memory:
                if seq in lsq_entries:
                    tracked += 1
                else:
                    out.append("in-flight memory seq %d has no LSQ entry"
                               % seq)
            tail = uop.tail
            if tail is not None and tail.seq <= seq:
                out.append("fused seq %d has non-younger tail %d"
                           % (seq, tail.seq))
            if uop.pending and uop.rename_c and uop.fusion.value == _NCSF:
                pending_heads += 1
        self._window.ordered = ordered
        if core.iq_count != in_iq:
            out.append("iq_count=%d but %d ROB residents claim an IQ slot"
                       % (core.iq_count, in_iq))
        # With unique ROB seqs, every side-table entry is an in-flight
        # memory µ-op exactly when the two counts agree.
        if not ordered or tracked != len(lsq_entries):
            memory_seqs = set()
            for uop in core.rob:
                if uop.is_memory:
                    memory_seqs.add(uop.seq)
            for seq in lsq_entries:
                if seq not in memory_seqs:
                    out.append("LSQ side table tracks seq %d not in the "
                               "ROB" % seq)
        return pending_heads

    # -- end of run ----------------------------------------------------

    def final(self, core) -> None:
        """Leak checks once the whole trace has committed."""
        violations: list[str] = []
        for name, collection in (
                ("ROB", core.rob), ("AQ", core.aq),
                ("rename latch", core.rename_latch),
                ("LQ", core.lsu.lq), ("fetch buffer", core.fetch_buffer)):
            if len(collection):
                violations.append("%s not empty at end of trace (%d)"
                                  % (name, len(collection)))
        if core.iq_count:
            violations.append("IQ census %d at end of trace"
                              % core.iq_count)
        # Draining committed stores are the one legitimate resident.
        stuck = [e.uop.seq for e in core.lsu.sq if not e.uop.committed]
        if stuck:
            violations.append("SQ holds uncommitted stores %r" % stuck)
        unit = core.rename_unit
        cap_int = core.config.int_prf_size - 32
        cap_fp = core.config.fp_prf_size - 32
        if unit.free_int != cap_int or unit.free_fp != cap_fp:
            violations.append(
                "physical registers leaked: free_int=%d/%d free_fp=%d/%d"
                % (unit.free_int, cap_int, unit.free_fp, cap_fp))
        if unit.active_ncs:
            violations.append("Active NCS=%d at end of trace"
                              % unit.active_ncs)
        for reg in sorted(unit._writers):
            writer = unit._writers[reg]
            if not writer.committed:
                violations.append("RAT[%d] -> uncommitted seq %d at end "
                                  "of trace" % (reg, writer.seq))
        if violations:
            raise SanitizerError(core.now, violations)
