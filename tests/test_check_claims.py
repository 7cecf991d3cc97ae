"""The CI claims check (tools/check_claims.py): every claim holds on the
committed record's numbers, fails when one of its inputs flips, a cell
that left its full-length pin fails and is named, and the record
comparison names what changed.  No simulation."""

import copy
import sys
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

from repro.core.storage import helios_storage_budget
from repro.experiments.figures import ExperimentResult
from repro.perf.golden import stats_sha

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_claims  # noqa: E402


def _fig(headers, summary=(), rows=(), first="workload"):
    return ExperimentResult(name="", headers=[first] + headers.split(","),
                            rows=[list(row) for row in rows],
                            summary=["average"] + list(summary))


def _sim(ncsf=0, csf=0, fused=0, attempts=0, accuracy=100.0, coverage=0.0):
    stats = SimpleNamespace(ncsf_memory_pairs=ncsf, csf_memory_pairs=csf,
                            fused_pairs=fused, fp_fusions_attempted=attempts)
    return SimpleNamespace(stats=stats, fp_accuracy_pct=accuracy,
                           fp_coverage_pct=coverage)


#: The committed record's numbers and the ablations' measured values.
HEAD = {
    "fig": {
        "fig10": _fig("RISCVFusion,CSF-SBR,RISCVFusion++,Helios,OracleFusion",
                      [1.0048, 1.0583, 1.0634, 1.0862, 1.0919],
                      [["657.xz_1", 1.00, 1.00, 1.00, 1.33, 1.39]]),
        "fig2": _fig("Memory%,Others%", [13.61, 4.63],
                     [["bitcount", 0.0, 51.99], ["susan", 0.0, 49.99],
                      ["657.xz_2", 0.0, 45.45]]),
        "fig3": _fig("MemoryOnly,AllIdioms", [1.0583, 1.0634]),
        "fig4": _fig("Contiguous,Overlapping,SameLine,NextLine",
                     [12.66, 0.0, 0.95, 0.0]),
        "fig5": _fig("CSF%,NCSF%,DBR%,asym%ofNCSF,meanDist",
                     [13.61, 9.87, 0.92, 5.21, 4.60]),
        "fig8": _fig("Helios CSF,Helios NCSF,Oracle CSF,Oracle NCSF",
                     [18.81, 16.96, 20.01, 18.63]),
        "fig9": _fig("base ren,base dis,Helios ren,Helios dis",
                     [45.26, 20.42, 47.07, 11.73],
                     [["657.xz_1", 70.36, 70.36, 68.87, 5.02]]),
        "table1": _fig("memory,description,dynamic pairs", first="idiom",
                       rows=[["load_pair", "yes", "", 46948],
                             ["store_pair", "yes", "", 39812],
                             ["lui_addi", "no", "", 6349],
                             ["mulh_mul", "no", "", 6250]]),
        "table3": _fig("coverage%,accuracy%,MPKI", ["82.11", 99.90, "0.0101"],
                       [["blowfish", "45.75", 98.26, "0.2220"],
                        ["susan", "n/a", "n/a", "0.0000"]]),
    },
    "budget": helios_storage_budget(),
    "ab": {
        "frontend width": {"narrow": _sim(ncsf=2495), "wide": _sim(ncsf=2549)},
        "UCH size": {"1-entry": _sim(fused=2550), "6-entry": _sim(fused=2550)},
        "confidence threshold": {
            "eager": _sim(attempts=2697, accuracy=100.0),
            "saturated": _sim(attempts=2633, accuracy=99.96)},
        "NCSF nesting": {"depth 1": _sim(ncsf=2553),
                         "depth 2": _sim(ncsf=2549),
                         "depth 4": _sim(ncsf=2549)},
        "u-op cache": {"off": _sim(csf=2054), "on": _sim(csf=2317)},
        "predictor organization": {
            "tournament": _sim(fused=4145), "tage": _sim(fused=4149),
            "local": _sim(fused=4143)},
        "probabilistic confidence": {"2-bit": _sim(coverage=98.29),
                                     "probabilistic": _sim(coverage=98.11)},
    },
}

#: (input, row or None for the summary, column, value): each flip fails
#: at least one claim, and together they fail every claim.
FLIPS = [
    ("fig10", None, "RISCVFusion", 0.98),
    ("fig10", None, "CSF-SBR", 0.99),
    ("fig10", None, "RISCVFusion++", 1.04),
    ("fig10", None, "Helios", 1.035),
    ("fig10", None, "OracleFusion", 1.06),
    ("fig10", "657.xz_1", "Helios", 1.0),
    ("fig10", "657.xz_1", "CSF-SBR", 1.05),
    ("fig2", None, "Others%", 14.0),
    ("fig2", "bitcount", "Memory%", 60.0),
    ("fig2", "susan", "Others%", 0.0),
    ("fig2", "657.xz_2", "Memory%", 45.45),
    ("fig3", None, "AllIdioms", 1.04),
    ("fig3", None, "AllIdioms", 1.2),
    ("fig3", None, "MemoryOnly", 1.0),
    ("fig4", None, "SameLine", 13.0),
    ("fig4", None, "Overlapping", 13.0),
    ("fig5", None, "NCSF%", 0.4),
    ("fig5", None, "DBR%", 0.0),
    ("fig5", None, "meanDist", 1.5),
    ("fig8", None, "Oracle NCSF", 10.0),
    ("fig8", None, "Helios NCSF", 0.0),
    ("fig8", None, "Helios CSF", -16.96),
    ("fig9", None, "Helios dis", 21.0),
    ("fig9", "657.xz_1", "base dis", 4.0),
    ("fig9", "657.xz_1", "Helios dis", 70.36),
    ("table1", "load_pair", "dynamic pairs", 0),
    ("table1", "store_pair", "dynamic pairs", 0),
    ("table1", "lui_addi", "dynamic pairs", 0),
    ("table1", "mulh_mul", "dynamic pairs", 0),
    ("budget", None, "uch", 281),
    ("budget", None, "fusion_predictor", 72000),
    ("budget", None, "aq_nucleus_bits_and_tags", 1401),
    ("budget", None, "rob_commit_group_bits", 705),
    ("budget", None, "flush_pointers", 6337),
    ("budget", None, "lsq_second_access_bits", 4000),
    ("table3", None, "coverage%", "19.99"),
    ("table3", None, "coverage%", "100.01"),
    ("table3", None, "accuracy%", 96.0),
    ("table3", None, "accuracy%", 98.9),
    ("table3", None, "MPKI", "2.0"),
    ("table3", "blowfish", "accuracy%", 89.0),
    ("table3", "blowfish", "accuracy%", "n/a"),
    ("frontend width", "wide", "ncsf_memory_pairs", 2494),
    ("UCH size", "6-entry", "fused_pairs", 2549),
    ("confidence threshold", "eager", "fp_fusions_attempted", 2369),
    ("confidence threshold", "saturated", "fp_accuracy_pct", 99.4),
    ("NCSF nesting", "depth 1", "ncsf_memory_pairs", 2610),
    ("NCSF nesting", "depth 4", "ncsf_memory_pairs", 3200),
    ("u-op cache", "on", "csf_memory_pairs", 2053),
    ("predictor organization", "tage", "fused_pairs", 2901),
    ("predictor organization", "tage", "fp_accuracy_pct", 97.0),
    ("predictor organization", "local", "fused_pairs", 2901),
    ("predictor organization", "local", "fp_accuracy_pct", 96.0),
    ("probabilistic confidence", "probabilistic", "fp_coverage_pct", 99.3),
    ("probabilistic confidence", "probabilistic", "fp_accuracy_pct", 99.4),
]


def _flipped(key, row, column, value):
    inputs = copy.deepcopy(HEAD)
    if key == "budget":
        inputs["budget"].items[column] = value
    elif key in inputs["fig"]:
        result = inputs["fig"][key]
        cells = result.summary if row is None else result.row_for(row)
        cells[result.headers.index(column)] = value
    else:
        sim = inputs["ab"][key][row]
        setattr(sim if hasattr(sim, column) else sim.stats, column, value)
    return inputs


def _verdicts(inputs):
    """Claim -> whether it holds on ``inputs``."""
    claims = chain(check_claims.figure_claims(inputs["fig"], inputs["budget"]),
                   check_claims.ablation_claims(inputs["ab"]))
    return {claim: holds for claim, holds, _measured in claims}


def test_every_claim_holds_on_head_numbers():
    verdicts = _verdicts(HEAD)
    assert len(verdicts) == 57 and all(verdicts.values())


def test_every_claim_fails_under_some_flip():
    failed = [{claim for claim, holds in _verdicts(_flipped(*flip)).items()
               if not holds} for flip in FLIPS]
    assert all(failed), "each flip fails at least one claim"
    assert set().union(*failed) == set(_verdicts(HEAD))


SECTIONS = {"table2": "Table II\nrow | 1", "fig10": "Figure 10\nrow | 1.09"}


def test_record_comparison_names_what_changed():
    record = check_claims.render_record(SECTIONS)
    assert check_claims.record_failure(record, SECTIONS) is None
    edited = record.replace("1.09", "1.091")  # sections match whole lines
    assert "changed: fig10 " in check_claims.record_failure(edited, SECTIONS)
    trailer = record + "\n[generated in 101s]\n"
    assert "changed: header " in check_claims.record_failure(trailer, SECTIONS)
    assert "table2, fig10" in check_claims.record_failure("", SECTIONS)


REFERENCE = {"cells": {
    "605.mcf|Helios": {"cycles": 12751, "digest": "4368562e1d2fd9ca618e"},
}}


def _cell(**overrides):
    cell = {"workload": "605.mcf", "mode": "Helios", "cycles": 12751,
            "digest": "4368562e1d2fd9ca"}
    cell.update(overrides)
    return cell


def test_matching_cell_passes():
    assert check_claims.cell_failure(_cell(), REFERENCE) is None


def test_moved_cycles_fail():
    failure = check_claims.cell_failure(_cell(cycles=12752), REFERENCE)
    assert "cycles 12752, pinned 12751" in failure


def test_changed_digest_fails():
    failure = check_claims.cell_failure(_cell(digest="0" * 16), REFERENCE)
    assert "digest" in failure


def test_missing_reference_cell_fails():
    failure = check_claims.cell_failure(_cell(mode="NoFusion"), REFERENCE)
    assert "no pinned cell 605.mcf|NoFusion" in failure


def _result(cycles):
    stats = SimpleNamespace(to_dict=lambda: {"cycles": cycles})
    return SimpleNamespace(cycles=cycles, stats=stats)


def test_pin_failures_name_each_moved_cell():
    reference = {"cells": {
        "crc32|Helios": {"cycles": 700,
                         "digest": stats_sha({"cycles": 700}) + "0000"},
        "dijkstra|Helios": {"cycles": 900, "digest": "0" * 20}}}
    results = {"crc32": {"Helios": _result(700)},
               "dijkstra": {"Helios": _result(901),
                            "NoFusion": _result(800)}}
    assert check_claims.pin_failures(results, reference) == [
        "dijkstra|Helios: cycles 901, pinned 900",
        "dijkstra|NoFusion: no pinned cell dijkstra|NoFusion in "
        "reprobench/reference.json"]
