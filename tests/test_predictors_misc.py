"""Tests for the branch predictor, store-set predictor, and UCH queue."""

from repro.predictors.branch import BranchPredictor
from repro.predictors.storeset import StoreSetPredictor
from repro.predictors.uch import UnfusedCommittedHistory
from repro.predictors.update_queue import UCHUpdateQueue


# ---- branch predictor -------------------------------------------------------

def test_branch_learns_always_taken():
    predictor = BranchPredictor()
    for _ in range(8):
        predictor.update(0x100, True)
    assert predictor.predict(0x100) is True


def test_branch_learns_alternating_pattern_via_gshare():
    predictor = BranchPredictor()
    mispredicts = 0
    for i in range(200):
        taken = bool(i % 2)
        if predictor.predict(0x100) != taken:
            mispredicts += 1
        predictor.update(0x100, taken)
    # Cold tables must get the alternation wrong at least once...
    assert mispredicts > 0
    # ...but after warmup the gshare side captures it perfectly.
    late = 0
    for i in range(200, 300):
        taken = bool(i % 2)
        if predictor.predict(0x100) != taken:
            late += 1
        predictor.update(0x100, taken)
    assert late == 0


def test_branch_ghr_tracks_directions():
    predictor = BranchPredictor(history_bits=4)
    for taken in (True, False, True, True):
        predictor.update(0x100, taken)
    assert predictor.ghr == 0b1011


def test_branch_update_reports_the_prediction_it_trains_on():
    predictor = BranchPredictor()
    verdicts = []
    for i in range(40):
        pc, taken = 0x100 + 4 * (i % 3), i % 5 < 2
        expected = predictor.predict(pc) != taken
        verdicts.append(predictor.update(pc, taken))
        assert verdicts[-1] == expected
    assert True in verdicts and False in verdicts


# ---- store-set predictor ----------------------------------------------------

def test_storeset_no_dependence_when_untrained():
    predictor = StoreSetPredictor()
    assert predictor.dependence_for_load(0x100) is None


def test_storeset_violation_creates_dependence():
    predictor = StoreSetPredictor()
    predictor.train_violation(load_pc=0x100, store_pc=0x200)
    predictor.store_dispatched(0x200, seq=42)
    assert predictor.dependence_for_load(0x100) == 42


def test_storeset_store_completion_clears():
    predictor = StoreSetPredictor()
    predictor.train_violation(0x100, 0x200)
    predictor.store_dispatched(0x200, seq=42)
    predictor.store_completed(0x200, seq=42)
    assert predictor.dependence_for_load(0x100) is None


def test_storeset_completion_of_older_store_keeps_younger():
    predictor = StoreSetPredictor()
    predictor.train_violation(0x100, 0x200)
    predictor.store_dispatched(0x200, seq=42)
    predictor.store_dispatched(0x200, seq=50)
    predictor.store_completed(0x200, seq=42)  # stale completion
    assert predictor.dependence_for_load(0x100) == 50


def test_storeset_merging_sets():
    predictor = StoreSetPredictor()
    predictor.train_violation(0x100, 0x200)
    predictor.train_violation(0x104, 0x200)  # second load joins the set
    predictor.store_dispatched(0x200, seq=7)
    assert predictor.dependence_for_load(0x100) == 7
    assert predictor.dependence_for_load(0x104) == 7


def test_storeset_flush_clears_inflight():
    predictor = StoreSetPredictor()
    predictor.train_violation(0x100, 0x200)
    predictor.store_dispatched(0x200, seq=7)
    predictor.flush()
    assert predictor.dependence_for_load(0x100) is None


# ---- UCH update queue --------------------------------------------------------

def test_queue_drops_when_full():
    queue = UCHUpdateQueue(capacity=2, inserts_per_cycle=8)
    queue.begin_cycle()
    assert queue.push(0x100, 0x20000, 1, 0)
    assert queue.push(0x104, 0x20008, 2, 0)
    assert not queue.push(0x108, 0x20010, 3, 0)
    assert len(queue) == 2


def test_queue_respects_insert_bandwidth():
    queue = UCHUpdateQueue(capacity=8, inserts_per_cycle=1)
    queue.begin_cycle()
    assert queue.push(0x100, 0x20000, 1, 0)
    assert not queue.push(0x104, 0x20008, 2, 0)
    queue.begin_cycle()
    assert queue.push(0x104, 0x20008, 2, 0)


def test_queue_drains_through_uch_and_trains():
    uch = UnfusedCommittedHistory(entries=6)
    trained = []
    queue = UCHUpdateQueue(capacity=8, inserts_per_cycle=8, drains_per_cycle=1)
    queue.begin_cycle()
    queue.push(0x100, 0x20000, 10, ghr=3)
    queue.push(0x104, 0x20008, 12, ghr=3)
    total = 0
    for _ in range(4):
        total += queue.drain(
            observe=uch.observe,
            train=lambda pc, ghr, dist: trained.append((pc, ghr, dist)))
    assert total == 2
    assert trained == [(0x104, 3, 2)]

