"""Tests for the experiment harness (figures, tables, sweeps, stats)."""

import sys

import pytest

from repro.config import FusionMode
from repro.experiments import (
    SweepEngine,
    figure2,
    figure3,
    figure4,
    figure5,
    figure8,
    figure9,
    figure10,
    table1,
    table2,
    table3,
)
from repro.stats import amean, ascii_table, geomean, percent

# Small, fast subset covering the main behaviours.
SUBSET = ["657.xz_1", "bitcount", "dijkstra"]


# ---- stats helpers ----------------------------------------------------------

def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([]) == 0.0
    assert geomean([0.0, 2.0]) == pytest.approx(2.0)  # non-positives ignored


def test_amean_and_percent():
    assert amean([1.0, 3.0]) == 2.0
    assert amean([]) == 0.0
    assert percent(1, 4) == 25.0
    assert percent(1, 0) == 0.0


def test_ascii_table_renders():
    text = ascii_table(["name", "value"], [["x", 1.5], ["y", 2.0]],
                       title="T")
    assert "T" in text and "name" in text and "1.50" in text


# ---- sweeps ------------------------------------------------------------------

def test_engine_memo_serves_repeat_sweeps():
    engine = SweepEngine(jobs=1, use_cache=False)
    first = engine.sweep([FusionMode.NONE], workloads=["bitcount"])
    second = engine.sweep([FusionMode.NONE], workloads=["bitcount"])
    assert first["bitcount"]["NoFusion"] is second["bitcount"]["NoFusion"]


def test_sweep_shape():
    results = SweepEngine().sweep([FusionMode.NONE], workloads=["bitcount"])
    assert set(results) == {"bitcount"}
    assert set(results["bitcount"]) == {"NoFusion"}


def test_figures_take_cells_from_the_engine_they_are_given():
    engine = SweepEngine(jobs=1, use_cache=False)
    figure8(["bitcount"], engine=engine)
    assert len(engine.memo) == 2  # Helios + OracleFusion, nothing else
    # table3 sweeps only Helios, already in this engine's memo: no job.
    engine.last_report = None
    table3(["bitcount"], engine=engine)
    assert engine.last_report is None


# ---- figures (structure on a small subset) -----------------------------------

def test_census_figures_share_one_census_per_trace(monkeypatch):
    # Figures 2, 4, 5 and Table I read one memoised census per trace:
    # two pairing passes per workload (consecutive + unrestricted).
    from repro.fusion import oracle
    from repro.workloads import clear_trace_memo

    real = oracle.oracle_memory_pairs
    calls = []

    def counting(trace, *args, **kwargs):
        calls.append(trace.name)
        return real(trace, *args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "repro":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    clear_trace_memo()
    workloads = ["bitcount", "crc32"]
    for render in (figure2, figure4, figure5, table1):
        render(workloads)
    assert sorted(calls) == sorted(workloads * 2)


def test_figure2_structure():
    result = figure2(SUBSET)
    assert result.headers == ["workload", "Memory%", "Others%"]
    assert len(result.rows) == len(SUBSET)
    assert result.summary[0] == "average"
    bitcount = result.row_for("bitcount")
    assert bitcount[2] > bitcount[1]  # Others-dominant exception


def test_figure3_normalized_to_one_or_more():
    # 602.gcc_1 has *consecutive* store pairs, which static memory-only
    # fusion captures (657.xz_1's pairs are non-consecutive by design).
    result = figure3(["602.gcc_1"])
    row = result.row_for("602.gcc_1")
    assert row[1] > 1.0  # memory fusion helps the SQ-bound kernel


def test_figure4_categories_sum_to_memory_fraction():
    result = figure4(["657.xz_1"])
    row = result.row_for("657.xz_1")
    fig2_row = figure2(["657.xz_1"]).row_for("657.xz_1")
    assert sum(row[1:]) == pytest.approx(fig2_row[1], abs=0.01)


def test_figure5_distance_columns():
    result = figure5(["dijkstra"])
    row = result.row_for("dijkstra")
    assert row[2] > 0          # NCSF potential
    assert row[5] >= 2.0       # mean distance beyond adjacency


def test_figure8_helios_vs_oracle():
    result = figure8(["657.xz_1"])
    row = result.row_for("657.xz_1")
    assert row[1] + row[2] > 0          # Helios fuses pairs
    assert row[3] + row[4] > 0          # so does the oracle


def test_figure9_stall_columns():
    result = figure9(["657.xz_1"])
    row = result.row_for("657.xz_1")
    base_dispatch, helios_dispatch = row[2], row[4]
    assert helios_dispatch < base_dispatch


def test_figure10_ordering_on_sq_bound_kernel():
    # 657.xz_1's store pairs are non-consecutive: only predictive
    # fusion (Helios/Oracle) can capture them — the paper's +70% story.
    result = figure10(["657.xz_1"])
    row = result.row_for("657.xz_1")
    riscv, csf_sbr, riscv_pp, helios, oracle = row[1:]
    assert helios > 1.2
    assert helios >= csf_sbr
    assert oracle >= helios - 0.10
    assert result.column("Helios") == [helios]


def test_experiment_result_render_and_lookup():
    result = figure2(SUBSET)
    text = result.render()
    assert "Figure 2" in text
    assert "bitcount" in text
    with pytest.raises(KeyError):
        result.row_for("not-a-workload")


# ---- tables ------------------------------------------------------------------

def test_table1_contains_all_idioms():
    result = table1(SUBSET)
    names = {row[0] for row in result.rows}
    assert {"load_pair", "store_pair", "lui_addi", "slli_add",
            "slli_srli", "load_global", "mulh_mul", "div_rem",
            "auipc_addi"} <= names


def test_table2_reports_paper_storage_numbers():
    result = table2()
    text = result.render()
    assert "72" in text or "73728" in text
    assert "280 bits" in text
    assert "6336" in text


def test_table3_columns():
    result = table3(["657.xz_1"])
    row = result.row_for("657.xz_1")
    assert 0 <= float(row[1]) <= 100.0
    assert 0 <= row[2] <= 100.0
    assert float(row[3]) >= 0.0


def test_table3_marks_ineligible_workloads():
    # bitcount has no memory pairs at all: coverage is undefined.
    result = table3(["bitcount"])
    assert result.row_for("bitcount")[1] == "n/a"
