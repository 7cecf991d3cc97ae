"""The µ-arch sanitizer catches every invariant it claims.

Each case stops a Helios core mid-run on a catalog trace, with fused
pairs in flight, corrupts one piece of pipeline state and asserts that
:meth:`Sanitizer.check` raises a :class:`SanitizerError` whose
violations name the corruption.  The uncorrupted core passes the same
check.
"""

import pytest

from repro.analysis.sanitizer import Sanitizer, SanitizerError
from repro.config import FusionMode, ProcessorConfig
from repro.pipeline.core import PipelineCore
from repro.pipeline.uop import FusionKind, PipeUop
from repro.workloads.catalog import build_workload

WORKLOAD = "602.gcc_3"
STOP_AT = 1500


@pytest.fixture(scope="module")
def trace():
    return build_workload(WORKLOAD, max_uops=4000)


@pytest.fixture
def core(trace):
    core = PipelineCore(trace, ProcessorConfig(
        fusion_mode=FusionMode.HELIOS))
    core.run(until_instructions=STOP_AT)
    # The cases below need this much in flight.
    assert any(u.fusion is FusionKind.NCSF for u in core.rob)
    assert any(u.pending for u in core.rob)
    assert core.rename_unit.active_ncs == 1
    assert any(e.uop.complete_c is not None and len(e.subs) == 2
               for e in core.lsu.lq)
    assert len(core.lsu.lq) >= 2 and core.lsu.sq
    assert any(not w.committed for w in core.rename_unit._writers.values())
    return core


def _rob_memory(core):
    return next(u for u in core.rob if u.is_memory)


def _fused_load(core):
    """A completed fused LQ entry."""
    return next(e for e in core.lsu.lq
                if e.uop.complete_c is not None and len(e.subs) == 2)


def _stray_uop(core, **fields):
    """A µ-op the core does not track, with ``fields`` set."""
    uop = PipeUop(core.trace[-1])
    for name, value in fields.items():
        setattr(uop, name, value)
    return uop


def _uncommitted_reg(core):
    writers = core.rename_unit._writers
    return next(reg for reg, w in writers.items() if not w.committed)


def _swap(queue, i, j):
    queue[i], queue[j] = queue[j], queue[i]


def _set(obj, **fields):
    for name, value in fields.items():
        setattr(obj, name, value)


def _nest_collapsed(core, **fields):
    _set(core.rename_unit, max_active_ncs=0, **fields)


def _shift_tail_sub(core):
    entry = _fused_load(core)
    sub = entry.subs[1]
    sub.addr += 4096
    sub.end += 4096


CASES = [
    # -- ROB shape ---------------------------------------------------------
    ("rob-order", lambda c: _swap(c.rob, 10, 11),
     "ROB not in program order"),
    ("rob-squashed", lambda c: _set(c.rob[5], squashed=True),
     "ROB holds squashed seq"),
    ("rob-committed", lambda c: _set(c.rob[5], committed=True),
     "ROB holds committed seq"),
    ("rob-iq-census", lambda c: _set(c, iq_count=c.iq_count + 1),
     "ROB residents claim an IQ slot"),
    ("rob-lsq-entry-missing",
     lambda c: c._lsq_entries.pop(_rob_memory(c).seq),
     "has no LSQ entry"),
    ("rob-lsq-entry-extra",
     lambda c: c._lsq_entries.__setitem__(
         10 ** 9, c._lsq_entries[_rob_memory(c).seq]),
     "LSQ side table tracks seq %d not in the ROB" % 10 ** 9),
    ("rob-tail-not-younger",
     lambda c: _set(next(u for u in c.rob if u.tail is not None),
                    tail=c.trace[0]),
     "has non-younger tail"),
    # -- rename: RAT, free lists, NCS nest ---------------------------------
    ("rat-squashed-writer",
     lambda c: c.rename_unit._writers.__setitem__(
         _uncommitted_reg(c), _stray_uop(c, squashed=True)),
     "squashed uncommitted seq"),
    ("rat-untracked-writer",
     lambda c: c.rename_unit._writers.__setitem__(
         _uncommitted_reg(c), _stray_uop(c)),
     "untracked in-flight seq"),
    ("free-int-range", lambda c: _set(c.rename_unit, free_int=-1),
     "free_int=-1 outside"),
    ("free-fp-range",
     lambda c: _set(c.rename_unit, free_fp=c.config.fp_prf_size),
     "free_fp=%d outside" % ProcessorConfig().fp_prf_size),
    ("active-ncs-imbalance",
     lambda c: _set(c.rename_unit, active_ncs=c.rename_unit.active_ncs + 1),
     "Active NCS=2 but 1 pending renamed heads"),
    ("negative-ncs-counter", lambda c: _set(c.rename_unit, max_active_ncs=-1),
     "negative NCS counter: active=1 max=-1"),
    ("nesting-above-limit",
     lambda c: _set(c.rename_unit,
                    max_active_ncs=c.config.ncsf_nesting + 1),
     "exceeds configured nesting"),
    ("tags-outlive-nest",
     lambda c: _nest_collapsed(c, deadlock_tags={5: 1}),
     "deadlock tags outlive the nest"),
    ("inside-ncs-outlives-nest",
     lambda c: _nest_collapsed(c, inside_ncs={5}),
     "Inside-NCS bits outlive the nest"),
    ("serializing-outlives-nest",
     lambda c: _nest_collapsed(c, ncsf_serializing=True),
     "Serializing/StorePair bits outlive the nest"),
    ("storepair-outlives-nest",
     lambda c: _nest_collapsed(c, ncsf_storepair=True),
     "Serializing/StorePair bits outlive the nest"),
    ("tag-bits-outside-levels",
     lambda c: c.rename_unit.deadlock_tags.__setitem__(5, 0b10),
     "has bits 0x2 outside live nest levels"),
    # -- LSQ ---------------------------------------------------------------
    ("lq-order", lambda c: _swap(c.lsu.lq, 0, 1),
     "LQ not in program order"),
    ("lq-squashed", lambda c: _set(c.lsu.lq[0].uop, squashed=True),
     "LQ holds squashed seq"),
    ("lq-committed-load", lambda c: _set(c.lsu.lq[0].uop, committed=True),
     "LQ holds committed load seq"),
    ("lq-no-subs", lambda c: _set(c.lsu.lq[0], subs=[]),
     "has 0 sub-accesses"),
    ("lq-three-subs",
     lambda c: _set(c.lsu.lq[0], subs=(c.lsu.lq[0].subs * 3)[:3]),
     "has 3 sub-accesses"),
    ("lq-head-sub-seq",
     lambda c: _set(c.lsu.lq[0].subs[0], seq=c.lsu.lq[0].subs[0].seq + 1),
     "head sub claims seq"),
    ("lq-tail-sub-after-unfuse",
     lambda c: _set(_fused_load(c).uop, tail=None),
     "keeps a tail sub after unfuse"),
    ("lq-tail-sub-seq",
     lambda c: _set(_fused_load(c).subs[1],
                    seq=_fused_load(c).subs[1].seq + 1),
     "does not match tail nucleus"),
    ("lq-span-above-granularity", _shift_tail_sub, "(Case 5 missed)"),
    ("lq-empty-range",
     lambda c: _set(c.lsu.lq[0].subs[0], end=c.lsu.lq[0].subs[0].addr),
     "sub with empty byte range"),
]


def test_uncorrupted_core_passes(core):
    sanitizer = Sanitizer()
    sanitizer.check(core)
    assert sanitizer.checks_run == 1


@pytest.mark.parametrize("corrupt,expected",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_sanitizer_names_each_broken_invariant(core, corrupt, expected):
    corrupt(core)
    with pytest.raises(SanitizerError) as caught:
        Sanitizer().check(core)
    error = caught.value
    assert error.cycle == core.now
    assert any(expected in violation for violation in error.violations), \
        error.violations
