"""The CI perf gate (tools/check_perf.py): each check fails when its
property breaks.  Pure functions over measured rows; no simulation."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_perf  # noqa: E402


def _cell(**overrides):
    cell = {"workload": "605.mcf", "mode": "Helios", "uops": 31408,
            "run_s": 0.5}
    cell.update(overrides)
    return cell


def _row(**overrides):
    row = {"workload": "dijkstra", "speedup": 5.0, "ipc_err": 0.001,
           "ipc_err_bound": 0.006, "exact": False}
    row.update(overrides)
    return row


def test_throughput_math_and_floor():
    cells = [_cell(uops=6000, run_s=0.25), _cell(uops=4000, run_s=0.75)]
    assert check_perf.uops_per_s(cells) == 10_000
    assert check_perf.throughput_failure(cells) is None
    slow = [_cell(uops=9999, run_s=1.0)]
    assert "below the 10000 floor" in check_perf.throughput_failure(slow)


def test_sampled_row_within_gates_passes():
    assert check_perf.sampled_failure(_row()) is None


def test_slow_sampled_row_fails_unless_exact_fallback():
    assert "speedup 2.9x" in check_perf.sampled_failure(_row(speedup=2.9))
    assert check_perf.sampled_failure(_row(speedup=1.0, exact=True)) is None


def test_sampled_error_outside_bound_fails():
    failure = check_perf.sampled_failure(_row(ipc_err=-0.0061))
    assert "outside its bound" in failure


def test_census_rate_floor():
    fast = {"uops": 752_781, "census_s": 1.8}
    assert check_perf.census_failure(fast) is None
    slow = {"uops": 752_781, "census_s": 5.6}
    assert "134425 µops/s is below the 140000 floor" \
        in check_perf.census_failure(slow)
    assert check_perf.census_failure({"uops": 1, "census_s": 0.0})
