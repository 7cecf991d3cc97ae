"""Tests for the persistent trace store and the capture-once /
replay-many sweep front end.

The trace layer must be a *pure perf change*: every test here pins
some aspect of "replayed traces are indistinguishable from freshly
interpreted ones" — µ-op-level bit identity, identical simulation
results across {freshly interpreted, cold store, warm store} ×
{jobs=1, jobs=2}, invalidation exactly when the key changes, and cold
rebuild (never a crash) on corruption.  The store's crash safety is
tested with the result cache's in test_disk_store.py.
"""

import multiprocessing

import pytest

from repro.config import FusionMode, ProcessorConfig
from repro.core.simulator import simulate
from repro.experiments.engine import SweepEngine
from repro.isa.interp import run_program
from repro.sampling import build_scaled_workload
from repro.workloads import (
    DEFAULT_MAX_UOPS,
    TraceStore,
    build_program,
    build_workload,
    clear_trace_memo,
    workload_salt,
)
from repro.workloads import catalog as catalog_mod
from repro.workloads import trace_store as trace_store_mod

WORKLOAD = "dijkstra"
MODES = (FusionMode.NONE, FusionMode.HELIOS)


def uop_fields(trace):
    return [(u.seq, u.pc, u.inst.mnemonic, u.inst.rd, u.inst.rs1,
             u.inst.rs2, u.inst.imm, u.inst.target, u.opclass, u.dest,
             u.srcs, u.addr, u.size, u.taken, u.target_pc)
            for u in trace]


@pytest.fixture
def store_dir(tmp_path, monkeypatch):
    """Isolated store directory + a clean in-process memo."""
    root = tmp_path / "traces"
    monkeypatch.setenv("REPRO_TRACE_DIR", str(root))
    clear_trace_memo()
    yield root
    clear_trace_memo()


# ------------------------------------------------------------ round trip --

def test_replayed_trace_is_bit_identical(store_dir):
    fresh = run_program(build_program(WORKLOAD),
                        max_uops=DEFAULT_MAX_UOPS)
    cold = build_workload(WORKLOAD)          # interprets + persists
    clear_trace_memo()
    warm = build_workload(WORKLOAD)          # replays from the store
    assert store_dir.exists() and list(store_dir.glob("*.trc"))
    assert uop_fields(cold) == uop_fields(fresh)
    assert uop_fields(warm) == uop_fields(fresh)
    assert warm.name == fresh.name


def test_replayed_trace_same_simresult(store_dir):
    fresh = run_program(build_program(WORKLOAD),
                        max_uops=DEFAULT_MAX_UOPS)
    build_workload(WORKLOAD)
    clear_trace_memo()
    warm = build_workload(WORKLOAD)
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    expected = simulate(fresh, config, name=WORKLOAD)
    actual = simulate(warm, config, name=WORKLOAD)
    assert actual.to_dict() == expected.to_dict()


# ---------------------------------------------------------- invalidation --

def test_max_uops_is_part_of_the_key(store_dir):
    small = build_workload(WORKLOAD, max_uops=500)
    large = build_workload(WORKLOAD, max_uops=1000)
    assert len(small) == 500
    assert len(large) == 1000
    assert len(list(store_dir.glob("*.trc"))) == 2
    # Memo: repeated calls return the very same object per key.
    assert build_workload(WORKLOAD, max_uops=500) is small


def test_salt_change_invalidates(store_dir, monkeypatch):
    build_workload(WORKLOAD, max_uops=500)
    old_salt = workload_salt(WORKLOAD)
    # A capture-semantics bump (or kernel/catalog change) changes the
    # salt, so the stored trace stops matching and is rebuilt.
    monkeypatch.setattr(trace_store_mod, "CAPTURE_VERSION", 999)
    monkeypatch.setattr(trace_store_mod, "_SALT_MEMO", {})
    clear_trace_memo()
    assert workload_salt(WORKLOAD) != old_salt
    store = TraceStore()
    assert store.get(WORKLOAD, 500) is None          # new salt: miss
    assert store.get(WORKLOAD, 500, old_salt) is not None
    rebuilt = build_workload(WORKLOAD, max_uops=500)
    assert len(rebuilt) == 500
    assert len(list(store_dir.glob("*.trc"))) == 2   # old + new entry


def test_corrupted_entry_rebuilds_cold(store_dir):
    first = build_workload(WORKLOAD, max_uops=500)
    clear_trace_memo()
    (path,) = store_dir.glob("*.trc")
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    rebuilt = build_workload(WORKLOAD, max_uops=500)
    assert uop_fields(rebuilt) == uop_fields(first)
    # The rebuilt trace was re-persisted and is readable again.
    clear_trace_memo()
    assert uop_fields(build_workload(WORKLOAD, max_uops=500)) \
        == uop_fields(first)


def test_listing_reads_only_entry_headers(store_dir, monkeypatch):
    build_workload(WORKLOAD, max_uops=500)
    (path,) = store_dir.glob("*.trc")
    (store_dir / ("bad" + TraceStore.suffix)).write_bytes(b"RPTB\x01")

    def no_decode(_source):
        raise AssertionError("listing decoded a whole trace")

    monkeypatch.setattr(trace_store_mod, "load_trace_binary", no_decode)
    assert TraceStore().entries() == [
        {"file": "bad.trc", "bytes": 5, "what": "corrupt"},
        {"file": path.name, "bytes": path.stat().st_size,
         "what": "%s 500 µ-ops" % WORKLOAD},
    ]


def test_truncated_entry_rebuilds_cold(store_dir):
    build_workload(WORKLOAD, max_uops=500)
    clear_trace_memo()
    (path,) = store_dir.glob("*.trc")
    path.write_bytes(path.read_bytes()[:20])
    assert len(build_workload(WORKLOAD, max_uops=500)) == 500


def test_no_trace_store_switch(store_dir, monkeypatch):
    # The store has no off switch: a full or read-only disk already
    # degrades it, and the result cache has none either.
    monkeypatch.setenv("REPRO_NO_TRACE_STORE", "1")
    assert len(build_workload(WORKLOAD, max_uops=500)) == 500
    assert len(list(store_dir.glob("*.trc"))) == 1
    with pytest.raises(TypeError, match="use_store"):
        build_workload(WORKLOAD, max_uops=500, use_store=False)
    with pytest.raises(TypeError, match="use_store"):
        build_scaled_workload(WORKLOAD, 500, use_store=False)


def test_scaled_and_catalog_traces_share_one_memo_and_store(store_dir):
    clear_trace_memo()
    scaled = build_scaled_workload(WORKLOAD, 1000)
    assert build_scaled_workload(WORKLOAD, 1000) is scaled
    (path,) = store_dir.glob("*.trc")
    assert path.name.startswith(WORKLOAD + "_1000-u1000-")
    clear_trace_memo()                        # one memo for both builders
    replayed = build_scaled_workload(WORKLOAD, 1000)
    assert replayed is not scaled
    assert uop_fields(replayed) == uop_fields(scaled)


# -------------------------------------------------- capture exactly once --

def test_cold_sweep_interprets_each_workload_once(store_dir, monkeypatch):
    calls = []
    real = catalog_mod.run_program

    def counting(program, max_uops):
        calls.append(program.name)
        return real(program, max_uops=max_uops)

    monkeypatch.setattr(catalog_mod, "run_program", counting)
    engine = SweepEngine(jobs=1, use_cache=False)
    engine.sweep(MODES, workloads=[WORKLOAD, "657.xz_1"])
    assert sorted(calls) == sorted([WORKLOAD, "657.xz_1"])

    # Warm sweep (new memo, same store): zero interpretations.
    calls.clear()
    clear_trace_memo()
    SweepEngine(jobs=1, use_cache=False).sweep(
        MODES, workloads=[WORKLOAD, "657.xz_1"])
    assert calls == []


# ------------------------------------------------------------ bit parity --

def _sweep_dicts(jobs, use_cache=False):
    engine = SweepEngine(jobs=jobs, use_cache=use_cache)
    results = engine.sweep(MODES, workloads=[WORKLOAD])
    return {mode: result.to_dict()
            for mode, result in results[WORKLOAD].items()}


def test_results_identical_across_store_states_and_jobs(store_dir):
    # No store at all: a freshly interpreted trace, simulated directly.
    fresh = run_program(build_program(WORKLOAD),
                        max_uops=DEFAULT_MAX_UOPS)
    baseline = {mode.value: simulate(fresh, ProcessorConfig().with_mode(
        mode), name=WORKLOAD).to_dict() for mode in MODES}

    # Cold store, sequential.
    clear_trace_memo()
    assert _sweep_dicts(jobs=1) == baseline
    # Warm store, sequential.
    clear_trace_memo()
    assert _sweep_dicts(jobs=1) == baseline
    # Warm store, parallel (workers replay the preloaded trace).
    clear_trace_memo()
    assert _sweep_dicts(jobs=2) == baseline


def _child_trace_summary(name):
    """Runs in a worker process: summary of the replayed trace."""
    trace = build_workload(name, max_uops=500)
    return (len(trace), trace.name,
            [(u.seq, u.pc, u.inst.mnemonic, u.addr, u.taken, u.target_pc)
             for u in trace])


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_fork_and_spawn_workers_replay_identically(store_dir, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip("start method %r unavailable" % method)
    parent = _child_trace_summary(WORKLOAD)   # also warms the store
    ctx = multiprocessing.get_context(method)
    with ctx.Pool(processes=1) as pool:
        child = pool.apply(_child_trace_summary, (WORKLOAD,))
    assert child == parent
