"""Tests for the tournament Fusion Predictor."""

from hypothesis import given, strategies as st

from repro.predictors.fusion_predictor import FusionPredictor


def saturate(fp, pc, ghr, distance, times=3):
    for _ in range(times):
        fp.train(pc, ghr, distance)


def test_no_prediction_when_untrained():
    fp = FusionPredictor()
    assert fp.predict(0x100, 0) is None


def test_no_prediction_below_saturation():
    fp = FusionPredictor()
    fp.train(0x100, 0, 5)
    fp.train(0x100, 0, 5)
    assert fp.predict(0x100, 0) is None  # confidence 2 < 3


def test_prediction_at_saturation():
    fp = FusionPredictor()
    saturate(fp, 0x100, 0, 5)
    prediction = fp.predict(0x100, 0)
    assert prediction is not None
    assert prediction.distance == 5


def test_distance_change_resets_confidence():
    fp = FusionPredictor()
    saturate(fp, 0x100, 0, 5)
    fp.train(0x100, 0, 9)  # new distance: confidence back to 1
    assert fp.predict(0x100, 0) is None
    saturate(fp, 0x100, 0, 9, times=2)
    prediction = fp.predict(0x100, 0)
    assert prediction is not None and prediction.distance == 9


def test_misprediction_resets_confidence():
    fp = FusionPredictor()
    saturate(fp, 0x100, 0, 5)
    prediction = fp.predict(0x100, 0)
    fp.resolve(prediction, correct=False)
    assert fp.predict(0x100, 0) is None


def test_correct_prediction_keeps_entry():
    fp = FusionPredictor()
    saturate(fp, 0x100, 0, 5)
    prediction = fp.predict(0x100, 0)
    fp.resolve(prediction, correct=True)
    assert fp.predict(0x100, 0) is not None


def test_train_rejects_out_of_range_distances():
    fp = FusionPredictor(max_distance=64)
    saturate(fp, 0x100, 0, 0)
    saturate(fp, 0x100, 0, 65)
    assert fp.predict(0x100, 0) is None


def test_gshare_side_distinguishes_histories():
    """The same PC can learn different distances under different GHRs."""
    fp = FusionPredictor()
    # Choose histories that map to different gshare sets.
    ghr_a, ghr_b = 0b0000, 0b1111
    saturate(fp, 0x100, ghr_a, 4, times=4)
    saturate(fp, 0x100, ghr_b, 12, times=4)
    # The local side now flip-flops (confidence reset by alternation),
    # but the gshare side has a confident entry per history.  Bias the
    # selector toward the global side via resolve().
    for _ in range(4):
        pred = fp.predict(0x100, ghr_a)
        if pred is not None:
            fp.resolve(pred, correct=pred.distance == 4)
        saturate(fp, 0x100, ghr_a, 4, times=1)
        pred = fp.predict(0x100, ghr_b)
        if pred is not None:
            fp.resolve(pred, correct=pred.distance == 12)
        saturate(fp, 0x100, ghr_b, 12, times=1)
    pred_a = fp.predict(0x100, ghr_a)
    pred_b = fp.predict(0x100, ghr_b)
    assert pred_a is not None and pred_a.distance == 4
    assert pred_b is not None and pred_b.distance == 12


def test_capacity_eviction_keeps_working():
    fp = FusionPredictor(sets=4, ways=2, selector_entries=16)
    for i in range(64):
        saturate(fp, 0x1000 + 4 * i, 0, (i % 60) + 1)
    # Most entries evicted, but the predictor must remain functional.
    saturate(fp, 0x9000, 0, 7)
    prediction = fp.predict(0x9000, 0)
    assert prediction is not None and prediction.distance == 7


def test_different_pcs_do_not_alias_with_tags():
    fp = FusionPredictor()
    saturate(fp, 0x100, 0, 5)
    # A PC in a different set with no training must not predict.
    assert fp.predict(0x2000, 0) is None


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(1, 64)), max_size=100))
def test_predicted_distance_was_trained(history):
    """Property: the FP never invents a distance it was not taught."""
    fp = FusionPredictor(sets=8, ways=2, selector_entries=16)
    taught = set()
    for pc_slot, distance in history:
        pc = 0x1000 + pc_slot * 4
        fp.train(pc, 0, distance)
        taught.add(distance)
        prediction = fp.predict(pc, 0)
        if prediction is not None:
            assert prediction.distance in taught
