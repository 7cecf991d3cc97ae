#!/usr/bin/env python
"""CI claims check: rewrite ``experiments_output.txt``, check the
paper's conclusions and the full-length cycle pins.

Usage::

    PYTHONPATH=src python tools/check_claims.py

Takes no arguments.  One :class:`~repro.experiments.engine.SweepEngine`
renders the record's ten tables and figures over all 32 workloads and
runs the seven ablations.  It skips the persistent result cache, so
results written by older code cannot make the check pass, and takes its
jobs from ``$REPRO_JOBS``.  The tool prints the ablation results and one
line per claim, checks each of Figure 10's 192 cells (32 workloads x 6
modes, read back from the engine's memo, so nothing is simulated twice)
against its pin in ``reprobench/reference.json`` — ``cycles`` and the
:func:`~repro.perf.golden.stats_sha` of the full stats — rewrites the
record, and exits non-zero if a claim fails, a pin moved or is missing,
or the record changed.  After an intended change, review the record's
diff, update EXPERIMENTS.md if a conclusion moved, and commit the file,
as with ``tools/update_golden_cycles.py``; re-pin with
``python3 reprobench/pin.py``.

The claim, pin and record functions are pure (results in, verdicts
out), so ``tests/test_check_claims.py`` exercises them without
simulating.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import sys
from itertools import chain
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD = REPO_ROOT / "experiments_output.txt"
REFERENCE = REPO_ROOT / "reprobench" / "reference.json"
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import FusionMode, ProcessorConfig  # noqa: E402
from repro.core.storage import helios_storage_budget  # noqa: E402
from repro.experiments import (  # noqa: E402
    SweepEngine, figure2, figure3, figure4, figure5, figure8, figure9,
    figure10, table1, table2, table3,
)
from repro.perf.golden import stats_sha  # noqa: E402

HEADER = ("Every table and figure of the paper's evaluation, over all 32 "
          "workloads.\nWritten by `PYTHONPATH=src python "
          "tools/check_claims.py`, which also checks the paper's claims.\n\n")

_BASE = ProcessorConfig()

#: name -> (workload, mode, {variant: ProcessorConfig overrides}).
#: 657.xz_1 is NCSF-dominated, so the Helios ablations bite hardest
#: there; 623.xalancbmk's dense NCSF pairs make predictions matter.
ABLATIONS = {
    # Section V-A: a frontend only as wide as rename never fills the AQ.
    "frontend width": ("657.xz_1", FusionMode.HELIOS, {
        "narrow": {"fetch_width": _BASE.rename_width,
                   "decode_width": _BASE.rename_width}, "wide": {}}),
    "UCH size": ("657.xz_1", FusionMode.HELIOS, {
        "1-entry": {"uch_load_entries": 1}, "6-entry": {}}),
    "confidence threshold": ("657.xz_1", FusionMode.HELIOS, {
        "eager": {"fp_confidence_max": 1}, "saturated": {}}),
    # Section IV-B2: two nesting levels achieve most of the benefit.
    "NCSF nesting": ("657.xz_1", FusionMode.HELIOS, {
        "depth 1": {"ncsf_nesting": 1}, "depth 2": {},
        "depth 4": {"ncsf_nesting": 4}}),
    # Section IV-A: cached fused µ-ops survive decode-group misalignment.
    "u-op cache": ("602.gcc_1", FusionMode.CSF_SBR, {
        "off": {}, "on": {"uop_cache_enabled": True}}),
    # Section IV-A2: other predictor organizations "can be employed".
    "predictor organization": ("623.xalancbmk", FusionMode.HELIOS, {
        "tournament": {}, "tage": {"fp_kind": "tage"},
        "local": {"fp_kind": "local"}}),
    "probabilistic confidence": ("623.xalancbmk", FusionMode.HELIOS, {
        "2-bit": {}, "probabilistic": {"fp_probabilistic_confidence": True}}),
}

#: Table II's per-structure bits, where the paper states them.
STORAGE_BITS = {"uch": 280, "fusion_predictor": 73728,
                "aq_nucleus_bits_and_tags": 1400,
                "rob_commit_group_bits": 704, "flush_pointers": 6336}

_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
        "<=": operator.le, "==": operator.eq}


def _check(claim: str, lhs: float, op: str, rhs: float):
    """One claim ``lhs op rhs`` as ``(claim, holds, measured)``."""
    return claim, _OPS[op](lhs, rhs), "%g %s %g" % (lhs, op, rhs)


def _cols(result, row: str | None = None) -> dict:
    """Header -> value of ``result``'s summary row, or of ``row``."""
    cells = result.summary if row is None else result.row_for(row)
    return dict(zip(result.headers, cells))


def figure_claims(fig: dict, budget):
    """``(claim, holds, measured)`` per claim on the record's sections
    (``fig``: name -> ExperimentResult) and the Table II ``budget``."""
    _, riscv, csf, riscv_pp, helios, oracle = fig["fig10"].summary
    yield _check("Fig. 10: RISCVFusion >= 0.99", riscv, ">=", 0.99)
    yield _check("Fig. 10: CSF-SBR > RISCVFusion - 0.01", csf, ">",
                 riscv - 0.01)
    yield _check("Fig. 10: RISCVFusion++ >= CSF-SBR - 0.01", riscv_pp, ">=",
                 csf - 0.01)
    yield _check("Fig. 10: Helios > CSF-SBR", helios, ">", csf)
    yield _check("Fig. 10: Oracle >= Helios - 0.02", oracle, ">=",
                 helios - 0.02)
    yield _check("Fig. 10: Helios > 1.04", helios, ">", 1.04)
    order = [oracle, helios, riscv_pp, csf, riscv, 1.0]
    yield ("Fig. 10: Oracle > Helios > RISCVFusion++ > CSF-SBR > "
           "RISCVFusion > 1", all(a > b for a, b in zip(order, order[1:])),
           " > ".join("%g" % v for v in order))
    xz = _cols(fig["fig10"], "657.xz_1")
    yield _check("Fig. 10: 657.xz_1 gains under Helios", xz["Helios"], ">",
                 1.01)
    yield _check("Fig. 10: 657.xz_1 does not gain under CSF-SBR",
                 xz["CSF-SBR"], "<", 1.01)

    _, memory, others = fig["fig2"].summary
    yield _check("Fig. 2: Memory > Others on average", memory, ">", others)
    for name in ("bitcount", "susan", "657.xz_2"):
        row = _cols(fig["fig2"], name)
        yield _check("Fig. 2: %s is Others-dominated" % name,
                     row["Others%"], ">", row["Memory%"])

    _, memory_only, all_idioms = fig["fig3"].summary
    yield _check("Fig. 3: AllIdioms >= MemoryOnly - 0.01", all_idioms, ">=",
                 memory_only - 0.01)
    yield _check("Fig. 3: AllIdioms - MemoryOnly < 0.10",
                 all_idioms - memory_only, "<", 0.10)
    yield _check("Fig. 3: MemoryOnly > 1", memory_only, ">", 1.0)

    _, contiguous, overlapping, same_line, next_line = fig["fig4"].summary
    yield _check("Fig. 4: Contiguous > SameLine + NextLine", contiguous, ">",
                 same_line + next_line)
    yield _check("Fig. 4: Overlapping <= Contiguous", overlapping, "<=",
                 contiguous)

    _, _csf, ncsf, dbr, _asym, mean_dist = fig["fig5"].summary
    yield _check("Fig. 5: NCSF > 0.5 %", ncsf, ">", 0.5)
    yield _check("Fig. 5: DBR > 0 %", dbr, ">", 0.0)
    yield _check("Fig. 5: mean distance >= 2", mean_dist, ">=", 2.0)

    _, h_csf, h_ncsf, o_csf, o_ncsf = fig["fig8"].summary
    helios_pairs, oracle_pairs = h_csf + h_ncsf, o_csf + o_ncsf
    yield _check("Fig. 8: Helios pairs > 0", helios_pairs, ">", 0.0)
    yield _check("Fig. 8: Oracle pairs >= 0.85 x Helios", oracle_pairs, ">=",
                 0.85 * helios_pairs)
    yield _check("Fig. 8: Helios pairs >= 0.70 x Oracle", helios_pairs, ">=",
                 0.70 * oracle_pairs)
    yield _check("Fig. 8: Helios NCSF > 0", h_ncsf, ">", 0.0)

    _, _ren, base_dis, _h_ren, helios_dis, *_ = fig["fig9"].summary
    yield _check("Fig. 9: Helios dis <= base dis + 0.5", helios_dis, "<=",
                 base_dis + 0.5)
    xz = _cols(fig["fig9"], "657.xz_1")
    yield _check("Fig. 9: 657.xz_1 base dis > 20", xz["base dis"], ">", 20.0)
    yield _check("Fig. 9: 657.xz_1 Helios dis < base dis", xz["Helios dis"],
                 "<", xz["base dis"])

    for idiom in ("load_pair", "store_pair", "lui_addi", "mulh_mul"):
        yield _check("Table I: %s pairs > 0" % idiom,
                     _cols(fig["table1"], idiom)["dynamic pairs"], ">", 0)

    for name, bits in STORAGE_BITS.items():
        yield _check("Table II: %s" % name, budget.items[name], "==", bits)
    yield _check("Table II: NCSF pipeline bits < 8 Kbit", budget.ncsf_bits,
                 "<", 8 * 1024)

    _, coverage, accuracy, mpki = fig["table3"].summary
    yield _check("Table III: coverage > 20 %", float(coverage), ">", 20.0)
    yield _check("Table III: coverage <= 100 %", float(coverage), "<=", 100.0)
    yield _check("Table III: accuracy > 97 %", accuracy, ">", 97.0)
    yield _check("Table III: accuracy >= 99 %", accuracy, ">=", 99.0)
    yield _check("Table III: MPKI < 2", float(mpki), "<", 2.0)
    # n/a: the predictor never fired there.  If it fired nowhere, 0.
    fired = [a for a in fig["table3"].column("accuracy%") if a != "n/a"]
    yield _check("Table III: each workload's accuracy > 90 %",
                 min(fired, default=0.0), ">", 90.0)


def ablation_claims(ab: dict):
    """``(claim, holds, measured)`` for the direction of each ablation
    (``ab``: ablation name -> variant -> SimResult)."""
    width, uch = ab["frontend width"], ab["UCH size"]
    yield _check("frontend width: wide NCSF pairs >= narrow",
                 width["wide"].stats.ncsf_memory_pairs, ">=",
                 width["narrow"].stats.ncsf_memory_pairs)
    yield _check("UCH size: 6-entry fused pairs >= 1-entry",
                 uch["6-entry"].stats.fused_pairs, ">=",
                 uch["1-entry"].stats.fused_pairs)
    eager, saturated = (ab["confidence threshold"][variant]
                        for variant in ("eager", "saturated"))
    yield _check("confidence: eager FP attempts >= 0.9 x saturated",
                 eager.stats.fp_fusions_attempted, ">=",
                 0.9 * saturated.stats.fp_fusions_attempted)
    yield _check("confidence: saturated accuracy >= eager - 0.5",
                 saturated.fp_accuracy_pct, ">=", eager.fp_accuracy_pct - 0.5)
    nesting = {depth: result.stats.ncsf_memory_pairs
               for depth, result in ab["NCSF nesting"].items()}
    for depth, share in (("depth 1", 0.98), ("depth 4", 0.8)):
        yield _check("NCSF nesting: depth 2 pairs >= %g x %s" % (share, depth),
                     nesting["depth 2"], ">=", share * nesting[depth])
    cache = ab["u-op cache"]
    yield _check("u-op cache: CSF pairs on >= off",
                 cache["on"].stats.csf_memory_pairs, ">=",
                 cache["off"].stats.csf_memory_pairs)
    org = ab["predictor organization"]
    for kind in ("tage", "local"):
        yield _check("predictor: %s fused pairs > 0.7 x tournament" % kind,
                     org[kind].stats.fused_pairs, ">",
                     0.7 * org["tournament"].stats.fused_pairs)
        yield _check("predictor: %s accuracy > 97 %%" % kind,
                     org[kind].fp_accuracy_pct, ">", 97.0)
    plain, prob = (ab["probabilistic confidence"][variant]
                   for variant in ("2-bit", "probabilistic"))
    yield _check("probabilistic: coverage <= 2-bit + 1",
                 prob.fp_coverage_pct, "<=", plain.fp_coverage_pct + 1.0)
    yield _check("probabilistic: accuracy >= 2-bit - 0.5",
                 prob.fp_accuracy_pct, ">=", plain.fp_accuracy_pct - 0.5)


def cell_failure(cell: dict, reference: dict) -> str | None:
    """Why a full-length cell differs from its pin, or None."""
    key = "%s|%s" % (cell["workload"], cell["mode"])
    pinned = reference["cells"].get(key)
    if pinned is None:
        return "no pinned cell %s in reprobench/reference.json" % key
    if cell["cycles"] != pinned["cycles"]:
        return "cycles %d, pinned %d" % (cell["cycles"], pinned["cycles"])
    if cell["digest"] != pinned["digest"][:16]:
        return "stats digest %s, pinned %s" % (cell["digest"],
                                               pinned["digest"][:16])
    return None


def pin_failures(results: dict, reference: dict) -> list[str]:
    """``"workload|mode: why"`` for each cell of ``results``
    (workload -> mode -> SimResult) that differs from its pin."""
    failures = []
    for workload, modes in results.items():
        for mode, result in modes.items():
            cell = {"workload": workload, "mode": mode,
                    "cycles": result.cycles,
                    "digest": stats_sha(result.stats.to_dict())}
            failure = cell_failure(cell, reference)
            if failure:
                failures.append("%s|%s: %s" % (workload, mode, failure))
    return failures


def render_record(sections: dict) -> str:
    """The record: the header, then each section, a blank line apart."""
    return HEADER + "\n\n".join(sections.values()) + "\n"


def record_failure(old: str, sections: dict) -> str | None:
    """Which of ``sections`` (name -> text) the record on disk, ``old``,
    lacks, or None when rewriting it would change nothing."""
    if old == render_record(sections):
        return None
    changed = [name for name, text in sections.items()
               if "\n%s\n" % text not in "\n%s\n" % old]
    return "changed: %s (commit the rewritten file if intended)" % (
        ", ".join(changed or ["header"]))


def render_figures(engine: SweepEngine) -> dict:
    """The record's sections in order.  Figure 10 sweeps all six modes,
    so Figures 3, 8, 9 and Table III are served from the engine's memo."""
    return {"table2": table2(), "fig2": figure2(), "fig4": figure4(),
            "fig5": figure5(), "table1": table1(),
            "fig10": figure10(engine=engine), "fig3": figure3(engine=engine),
            "fig8": figure8(engine=engine), "fig9": figure9(engine=engine),
            "table3": table3(engine=engine)}


def run_ablations(engine: SweepEngine) -> dict:
    """Ablation name -> variant -> SimResult."""
    results = {}
    for name, (workload, mode, variants) in ABLATIONS.items():
        results[name] = {}
        for variant, overrides in variants.items():
            config = dataclasses.replace(_BASE, **overrides)
            cells = engine.sweep([mode], workloads=[workload], config=config)
            results[name][variant] = cells[workload][mode.value]
    return results


def _report(label: str, failure: str | None) -> bool:
    print("check_claims: %s  %s" % (label, "FAIL: " + failure if failure
                                    else "ok"))
    return failure is not None


def main() -> int:
    engine = SweepEngine(use_cache=False)
    figures = render_figures(engine)
    ablations = run_ablations(engine)
    for name, results in ablations.items():
        for variant, result in results.items():
            print("ablation %s, %s: %s" % (name, variant, result.summary()))
    failed = False
    for claim, holds, measured in chain(
            figure_claims(figures, helios_storage_budget()),
            ablation_claims(ablations)):
        failed |= _report("%s  [%s]" % (claim, measured),
                          None if holds else "does not hold")
    # Figure 10 swept every mode, so these are all memo hits.
    cells = engine.sweep(list(FusionMode))
    checked = sum(map(len, cells.values()))
    failures = pin_failures(
        cells, json.loads(REFERENCE.read_text(encoding="utf-8")))
    failed |= _report(
        "full-length pins: %d of %d cells match reprobench/reference.json"
        % (checked - len(failures), checked),
        "; ".join(failures) + " (after an intended timing change, re-pin "
        "with python3 reprobench/pin.py)" if failures else None)
    sections = {name: result.render() for name, result in figures.items()}
    failure = record_failure(RECORD.read_text(encoding="utf-8"), sections)
    if failure:
        RECORD.write_text(render_record(sections), encoding="utf-8")
    failed |= _report("record %s" % RECORD.name, failure)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
