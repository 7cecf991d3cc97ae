"""Tests for the workload catalog and kernels."""

import re
from pathlib import Path

import pytest

from repro.fusion.oracle import analyze_trace
from repro.workloads import (
    CATALOG,
    build_program,
    build_workload,
    synthesize_trace,
    workload_names,
)
from repro.workloads import kernels


def test_catalog_matches_paper_inventory():
    # Table III lists 14 SPEC sub-runs and 18 MiBench programs.
    assert len(CATALOG) == 32
    assert len(workload_names("SPEC")) == 14
    assert len(workload_names("MiBench")) == 18


def test_catalog_names_are_the_papers():
    for expected in ("600.perlbench_1", "605.mcf", "657.xz_1", "657.xz_2",
                     "dijkstra", "susan", "typeset", "gsm_toast"):
        assert expected in CATALOG


def test_deep_differential_legs_cover_the_catalog():
    # CI's deep-differential job splits the catalog across its matrix
    # by hand: every workload sits in exactly one leg.
    ci = Path(__file__).resolve().parents[1] / ".github" / "workflows" \
        / "ci.yml"
    legs = re.findall(r"^ +workloads: (\S+)$", ci.read_text(), re.M)
    assert len(legs) == 4
    assert sorted(name for leg in legs for name in leg.split(",")) \
        == sorted(CATALOG)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_every_workload_assembles_and_runs(name):
    trace = build_workload(name)
    assert 5_000 < len(trace) < 120_000
    # Every workload must terminate cleanly (ecall), not hit the cap.
    assert trace[-1].is_serializing


def test_workloads_are_distinct():
    sources = {name: CATALOG[name].source() for name in CATALOG}
    assert len(set(sources.values())) == len(sources)


def test_memory_heavy_workloads_have_memory():
    trace = build_workload("657.xz_1")
    assert trace.memory_fraction() > 0.2
    assert trace.num_stores > trace.num_loads


def test_others_dominant_workloads():
    """bitcount/susan: the paper's Figure 2 exceptions."""
    for name in ("bitcount", "susan"):
        analysis = analyze_trace(build_workload(name))
        assert len(analysis.other_pairs) > len(analysis.consecutive_pairs)


def test_struct_walk_has_ncsf_potential():
    analysis = analyze_trace(build_workload("623.xalancbmk"))
    assert len(analysis.ncsf_pairs) > 100


def test_two_stream_walk_has_dbr_pairs():
    analysis = analyze_trace(build_workload("dijkstra"))
    assert len(analysis.dbr_pairs) > 100


def test_pointer_chase_is_serial():
    trace = build_workload("605.mcf")
    chase_loads = [u for u in trace
                   if u.is_load and u.dest is not None
                   and u.dest == u.base_reg]
    assert len(chase_loads) > 1000


def test_builders_reject_bad_footprints():
    with pytest.raises(ValueError):
        kernels.streaming_stores(footprint_kb=3)


def test_deterministic_builds():
    a = CATALOG["qsort"].source()
    b = CATALOG["qsort"].source()
    assert a == b


def test_build_program_returns_program():
    program = build_program("crc32")
    assert len(program) > 10
    assert program.name == "crc32"


# ---- synthetic traces -----------------------------------------------------

def test_synthesize_trace_length_and_shape():
    trace = synthesize_trace(length=5000, memory_fraction=0.4, seed=7)
    assert len(trace) == 5000
    assert 0.2 < trace.memory_fraction() < 0.6


def test_synthesize_trace_pairs_are_discoverable():
    trace = synthesize_trace(length=4000, memory_fraction=0.5,
                             pair_fraction=0.9, pair_distance=4, seed=3)
    analysis = analyze_trace(trace)
    assert len(analysis.ncsf_pairs) > 100
    assert 3.0 < analysis.mean_catalyst_distance < 6.0


def test_synthesize_trace_deterministic_per_seed():
    a = synthesize_trace(length=1000, seed=5)
    b = synthesize_trace(length=1000, seed=5)
    assert [(u.pc, u.addr) for u in a] == [(u.pc, u.addr) for u in b]
    c = synthesize_trace(length=1000, seed=6)
    assert [(u.pc, u.addr) for u in a] != [(u.pc, u.addr) for u in c]
