"""Unit tests for the static fusion-legality analyzer."""

import hashlib

import pytest

from repro.analysis.legality import (
    AliasClass,
    LegalityAnalyzer,
    Reason,
    analyze_trace_legality,
)
from repro.fusion.oracle import oracle_memory_pairs
from repro.isa import assemble, run_program
from repro.workloads.catalog import build_workload


def trace_of(source):
    return run_program(assemble(source))


def verdict_for(trace, head_seq, tail_seq, **kwargs):
    return LegalityAnalyzer(trace, **kwargs).classify_pair(head_seq, tail_seq)


def test_adjacent_load_pair_legal():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        ld x5, 8(x1)
        ecall
    """)
    report = analyze_trace_legality(trace)
    assert report.is_legal(1, 2)
    verdict = report.explain(1, 2)
    assert verdict.legal and verdict.alias is AliasClass.NO_ALIAS


def test_register_deadlock_rejected():
    trace = trace_of("""
        li x2, 0x20000
        ld x1, 0(x2)
        add x3, x1, x2
        ld x4, 0(x3)
        ecall
    """)
    verdict = verdict_for(trace, 1, 3)
    assert Reason.DEADLOCK_DEPENDENCE in verdict.reasons


def test_memory_carried_deadlock_rejected():
    # The head's value travels through a catalyst store and back in
    # through a catalyst load: register taint alone would miss it.
    trace = trace_of("""
        li x2, 0x20000
        ld x1, 0(x2)
        sd x1, 16(x2)
        ld x5, 16(x2)
        add x6, x5, x2
        ld x4, 8(x2)
        ecall
    """)
    # x6 = f(head) is the chain; the tail itself reads 8(x2) with base
    # x2 (clean) — but pair (head, tail=ld x4) is clean of deadlock:
    # check instead the tainted tail (head, ld x5 at 16(x2)).
    verdict = verdict_for(trace, 1, 3)
    assert Reason.DEADLOCK_DEPENDENCE in verdict.reasons
    # The disjoint tail stays legal despite the aliasing traffic.
    assert verdict_for(trace, 1, 5).legal


def test_taint_cleared_by_overwrite():
    trace = trace_of("""
        li x2, 0x20000
        li x9, 8
        ld x1, 0(x2)
        add x5, x1, x9
        mv x5, x9
        add x6, x5, x2
        ld x4, 8(x2)
        ecall
    """)
    assert verdict_for(trace, 2, 6).legal


def test_serializing_op_rejected():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        fence
        ld x5, 8(x1)
        ecall
    """)
    verdict = verdict_for(trace, 1, 3)
    assert Reason.SERIALIZING_OP in verdict.reasons


def test_span_rejected():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        ld x5, 128(x1)
        ecall
    """)
    verdict = verdict_for(trace, 1, 2)
    assert Reason.SPAN in verdict.reasons


def test_same_dest_load_pair_rejected():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        ld x4, 8(x1)
        ecall
    """)
    verdict = verdict_for(trace, 1, 2)
    assert Reason.SAME_DEST in verdict.reasons


def test_aliasing_store_rejects_store_pair():
    trace = trace_of("""
        li x1, 0x20000
        sd x0, 0(x1)
        sd x0, 24(x1)
        sd x0, 8(x1)
        ecall
    """)
    verdict = verdict_for(trace, 1, 3)
    assert Reason.ALIASING_STORE in verdict.reasons


def test_catalyst_load_overlap_rejects_store_pair():
    # The catalyst load straddles the head store's bytes: it can
    # neither forward nor wait out the fused pair's drain.
    trace = trace_of("""
        li x1, 0x20000
        sd x0, 0(x1)
        ld x5, 4(x1)
        sd x0, 16(x1)
        ecall
    """)
    verdict = verdict_for(trace, 1, 3)
    assert Reason.CATALYST_LOAD_OVERLAP in verdict.reasons


def test_covered_catalyst_load_keeps_store_pair_legal():
    # Fully covered by the head's bytes: a clean store-to-load forward.
    trace = trace_of("""
        li x1, 0x20000
        sd x0, 0(x1)
        lw x5, 4(x1)
        sd x0, 16(x1)
        ecall
    """)
    assert verdict_for(trace, 1, 3).legal


def test_dbr_store_pair_rejected():
    trace = trace_of("""
        li x1, 0x20000
        li x2, 0x20010
        sd x0, 0(x1)
        sd x0, 0(x2)
        ecall
    """)
    stores = [u.seq for u in trace.uops if u.is_store]
    verdict = verdict_for(trace, stores[0], stores[1])
    assert Reason.DBR_STORE in verdict.reasons


def test_kind_mismatch_and_distance():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        sd x4, 8(x1)
        ecall
    """)
    verdict = verdict_for(trace, 1, 2)
    assert Reason.KIND_MISMATCH in verdict.reasons
    distant = verdict_for(trace, 2, 1)
    assert Reason.DISTANCE in distant.reasons


def test_alias_lattice_annotations():
    covers = trace_of("""
        li x1, 0x20000
        li x9, 7
        ld x4, 0(x1)
        sd x9, 8(x1)
        ld x5, 8(x1)
        ecall
    """)
    verdict = verdict_for(covers, 2, 4)
    assert verdict.legal and verdict.alias is AliasClass.COVERS
    partial = trace_of("""
        li x1, 0x20000
        li x9, 7
        ld x4, 0(x1)
        sw x9, 8(x1)
        ld x5, 8(x1)
        ecall
    """)
    verdict = verdict_for(partial, 2, 4)
    assert verdict.legal and verdict.alias is AliasClass.PARTIAL


def test_catalyst_written_base_rebinds_by_default():
    # An untainted catalyst write to the tail's base register: Helios'
    # ghost rename re-binds it, so legal by default, annotated; the
    # strict (non-rebinding) classification rejects it.
    trace = trace_of("""
        li x1, 0x20000
        li x2, 0x20000
        ld x4, 0(x1)
        mv x2, x1
        ld x5, 8(x2)
        ecall
    """)
    verdict = verdict_for(trace, 2, 4)
    assert verdict.legal and verdict.rebound_srcs == (2,)
    strict = verdict_for(trace, 2, 4, rebinding=False)
    assert Reason.CATALYST_WRITES_BASE in strict.reasons


def test_explain_pc_and_report_dict():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        ld x5, 8(x1)
        ecall
    """)
    report = analyze_trace_legality(trace)
    head_pc = trace.uops[1].pc
    verdicts = report.explain_pc(head_pc)
    assert verdicts and verdicts[0].head_pc == head_pc
    assert "legal" in verdicts[0].describe()
    data = report.to_dict()
    assert data["legal_pairs"] == len(report.legal)
    assert data["candidates"] == report.candidates


def test_unknown_seq_raises():
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        ecall
    """)
    with pytest.raises(KeyError):
        LegalityAnalyzer(trace).classify_pair(0, 99)


@pytest.mark.parametrize("source", [
    # A grab-bag of shapes: dependences, aliasing, overlap, fences.
    """
        li x1, 0x20000
        li x9, 7
        ld x4, 0(x1)
        sd x9, 8(x1)
        ld x5, 8(x1)
        add x6, x5, x9
        sd x6, 16(x1)
        ld x7, 16(x1)
        fence
        ld x8, 24(x1)
        ecall
    """,
    """
        li x1, 0x20000
        li x2, 0x20020
        sd x0, 0(x1)
        ld x5, 4(x1)
        sd x0, 0(x2)
        sd x0, 8(x1)
        ld x6, 8(x2)
        ld x7, 16(x2)
        ecall
    """,
])
def test_oracle_pairs_within_legal_set(source):
    trace = trace_of(source)
    report = analyze_trace_legality(trace)
    for pair in oracle_memory_pairs(trace):
        assert report.is_legal(pair.head_seq, pair.tail_seq), \
            "oracle paired (%d, %d) outside the legal set: %s" % (
                pair.head_seq, pair.tail_seq,
                report.explain(pair.head_seq, pair.tail_seq).describe())


# -- explain_pc coverage across every analyzer-reachable Reason --------------

def explain_head(source, head_pc_seq, **kwargs):
    """explain_pc verdicts for the head at the given trace seq's PC."""
    trace = trace_of(source)
    analyzer = LegalityAnalyzer(trace, **kwargs)
    return analyzer.explain_pc(trace.uops[head_pc_seq].pc)


def reasons_at(verdicts):
    out = set()
    for verdict in verdicts:
        out.update(verdict.reasons)
    return out


def test_explain_pc_span():
    verdicts = explain_head("""
        li x1, 0x20000
        ld x4, 0(x1)
        ld x5, 96(x1)
        ecall
    """, 1)
    assert Reason.SPAN in reasons_at(verdicts)


def test_explain_pc_serializing_op():
    verdicts = explain_head("""
        li x1, 0x20000
        ld x4, 0(x1)
        fence
        ld x5, 8(x1)
        ecall
    """, 1)
    assert Reason.SERIALIZING_OP in reasons_at(verdicts)


def test_explain_pc_deadlock_dependence():
    verdicts = explain_head("""
        li x1, 0x20000
        ld x2, 0(x1)
        ld x3, 0(x2)
        ecall
    """, 1)
    assert Reason.DEADLOCK_DEPENDENCE in reasons_at(verdicts)


def test_explain_pc_same_dest():
    verdicts = explain_head("""
        li x1, 0x20000
        ld x4, 0(x1)
        ld x4, 8(x1)
        ecall
    """, 1)
    assert Reason.SAME_DEST in reasons_at(verdicts)


def test_explain_pc_aliasing_store():
    verdicts = explain_head("""
        li x1, 0x20000
        li x5, 0x30000
        sd x2, 0(x1)
        sd x3, 0(x5)
        sd x4, 8(x1)
        ecall
    """, 2)
    assert Reason.ALIASING_STORE in reasons_at(verdicts)


def test_explain_pc_catalyst_load_overlap():
    verdicts = explain_head("""
        li x1, 0x20000
        sd x2, 0(x1)
        ld x6, 4(x1)
        sd x3, 8(x1)
        ecall
    """, 1)
    assert Reason.CATALYST_LOAD_OVERLAP in reasons_at(verdicts)


def test_explain_pc_dbr_store():
    trace = trace_of("""
        li x1, 0x20000
        li x5, 0x20040
        sd x2, 0(x1)
        sd x3, 0(x5)
        ecall
    """)
    head = next(u for u in trace.uops if u.is_store)
    verdicts = LegalityAnalyzer(trace).explain_pc(head.pc)
    assert Reason.DBR_STORE in reasons_at(verdicts)


def test_explain_pc_catalyst_writes_base_strict():
    source = """
        li x1, 0x20000
        li x2, 0x20000
        ld x4, 0(x1)
        mv x2, x1
        ld x5, 8(x2)
        ecall
    """
    strict = explain_head(source, 2, rebinding=False)
    assert Reason.CATALYST_WRITES_BASE in reasons_at(strict)
    relaxed = explain_head(source, 2)
    assert Reason.CATALYST_WRITES_BASE not in reasons_at(relaxed)
    assert any(v.rebound_srcs == (2,) for v in relaxed)


def test_classify_pair_kind_mismatch_and_distance():
    # explain_pc only enumerates same-kind in-window candidates, so
    # KIND_MISMATCH and DISTANCE are reachable through classify_pair.
    trace = trace_of("""
        li x1, 0x20000
        ld x4, 0(x1)
        sd x4, 8(x1)
        ecall
    """)
    verdict = LegalityAnalyzer(trace).classify_pair(1, 2)
    assert Reason.KIND_MISMATCH in verdict.reasons
    near = LegalityAnalyzer(trace, max_distance=0).classify_pair(1, 2)
    assert Reason.DISTANCE in near.reasons


def test_explain_pc_alias_lattice_outcomes():
    # NO_ALIAS: no catalyst store at all.
    no_alias = explain_head("""
        li x1, 0x20000
        ld x4, 0(x1)
        ld x5, 8(x1)
        ecall
    """, 1)
    assert no_alias and all(
        v.alias is AliasClass.NO_ALIAS for v in no_alias)
    # PARTIAL: an untainted catalyst sw overlaps the tail's bytes
    # without covering them; the pair stays legal but is annotated.
    partial = explain_head("""
        li x1, 0x20000
        li x9, 7
        ld x4, 0(x1)
        sw x9, 12(x1)
        ld x5, 8(x1)
        ecall
    """, 2)
    assert any(v.legal and v.alias is AliasClass.PARTIAL
               for v in partial)
    # COVERS: the catalyst sd fully covers the tail load's bytes
    # (pure store-to-load forwarding of untainted data).
    covers = explain_head("""
        li x1, 0x20000
        li x9, 7
        ld x4, 0(x1)
        sd x9, 8(x1)
        ld x5, 8(x1)
        ecall
    """, 2)
    assert any(v.legal and v.alias is AliasClass.COVERS
               for v in covers)


def test_explain_pc_respects_limit():
    body = "\n".join("ld x%d, %d(x1)" % (5 + i % 8, 8 * (i % 4))
                     for i in range(30))
    trace = trace_of("li x1, 0x20000\n%s\necall" % body)
    analyzer = LegalityAnalyzer(trace)
    pc = trace.uops[1].pc
    assert len(analyzer.explain_pc(pc, limit=5)) == 5
    assert len(analyzer.explain_pc(pc)) == 20


#: ``LegalityReport.to_dict()`` and the sha256 of ``repr(sorted(legal))``
#: for catalog traces cut at 4,000 µ-ops.
PINNED_REPORTS = {
    "602.gcc_3": (
        {"alias": {"no_alias": 1992}, "candidates": 12858,
         "legal_pairs": 1992,
         "reasons": {"aliasing-store": 3451, "same-dest": 2966,
                     "span>granularity": 7159}},
        "5cf708d0ecdb30121346120f0f5948f195f930631f88cd9c59ccde11ec8eeefb"),
    "657.xz_1": (
        {"alias": {"no_alias": 1042}, "candidates": 16384,
         "legal_pairs": 1042,
         "reasons": {"aliasing-store": 14997, "same-dest": 345,
                     "span>granularity": 9111}},
        "8bdd6438595409eaa5077b2474ae56e9c28eb5d4b7b2fa1b9c20de37cb3ca54f"),
    "blowfish": (
        {"alias": {"no_alias": 182}, "candidates": 2855,
         "legal_pairs": 182,
         "reasons": {"same-dest": 439, "span>granularity": 2656}},
        "06301663b25ed2c1934ec6dd64e9c12b16661684bfab9d4c6aa3f43bab161b04"),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_verdicts_pinned_on_catalog_traces(name):
    counts, legal_sha = PINNED_REPORTS[name]
    report = LegalityAnalyzer(build_workload(name, max_uops=4000)).analyze()
    expected = dict(counts, trace=name, uops=4000, granularity=64,
                    max_distance=64, rebinding=True)
    assert report.to_dict() == expected
    assert hashlib.sha256(
        repr(sorted(report.legal)).encode()).hexdigest() == legal_sha


from hypothesis import given, settings  # noqa: E402

from .test_pipeline_properties import stressful_programs  # noqa: E402


@settings(max_examples=10, deadline=None)
@given(stressful_programs())
def test_explain_pc_matches_classify_pair(source):
    """explain_pc is a view over classify_pair, never a divergence."""
    trace = trace_of(source)
    analyzer = LegalityAnalyzer(trace)
    report = analyzer.analyze()
    seen_pcs = set()
    for uop in trace.uops:
        if not uop.is_memory or uop.pc in seen_pcs:
            continue
        seen_pcs.add(uop.pc)
        for verdict in analyzer.explain_pc(uop.pc, limit=40):
            recomputed = analyzer.classify_pair(
                verdict.head_seq, verdict.tail_seq)
            assert recomputed == verdict
            assert verdict.legal == report.is_legal(
                verdict.head_seq, verdict.tail_seq)
        if len(seen_pcs) >= 8:
            break
