"""Confusion matrix and IoU checks against hand counts."""

import numpy as np
import pytest

from cftseg.errors import ShapeError
from cftseg.losses import IGNORE_INDEX
import cftseg.metrics as MT


def cm_from(pred, true, l=2):
    cm = MT.ConfusionMatrix(l)
    cm.update(np.asarray(pred), np.asarray(true))
    return cm


def test_hand_counted_two_class_case():
    # class 0: TP=3 FP=1 FN=2; class 1: TP=4 FP=2 FN=1
    true = [0] * 5 + [1] * 5
    pred = [0, 0, 0, 1, 1, 1, 1, 1, 1, 0]
    per, mean = MT.miou(cm_from(pred, true))
    np.testing.assert_allclose(per, [0.5, 4 / 7])
    np.testing.assert_allclose(mean, (0.5 + 4 / 7) / 2)


def test_perfect_prediction():
    rng = np.random.default_rng(0)
    true = rng.integers(0, 3, size=(4, 4))
    cm = cm_from(true, true, l=3)
    per, mean = MT.miou(cm)
    np.testing.assert_array_equal(per, 1.0)
    assert mean == 1.0
    assert MT.pixel_accuracy(cm) == 1.0


def test_disjoint_prediction_scores_zero():
    true = np.zeros(6, dtype=int)
    pred = np.ones(6, dtype=int)
    per, mean = MT.miou(cm_from(pred, true))
    np.testing.assert_array_equal(per, 0.0)
    assert mean == 0.0


def test_absent_category_is_excluded_from_mean():
    true = [0, 0, 1, 1]
    pred = [0, 1, 1, 1]
    per, mean = MT.miou(cm_from(pred, true, l=3))
    assert np.isnan(per[2])
    np.testing.assert_allclose(mean, (per[0] + per[1]) / 2)


def test_ignore_pixels_are_dropped():
    true = np.array([0, 1, IGNORE_INDEX, IGNORE_INDEX])
    pred = np.array([0, 1, 0, 1])
    cm = cm_from(pred, true)
    assert cm.total == 2
    assert MT.pixel_accuracy(cm) == 1.0


def test_relabeling_both_sides_permutes_but_preserves_mean():
    rng = np.random.default_rng(1)
    true = rng.integers(0, 4, size=200)
    pred = rng.integers(0, 4, size=200)
    perm = np.array([2, 0, 3, 1])
    per_a, mean_a = MT.miou(cm_from(pred, true, l=4))
    per_b, mean_b = MT.miou(cm_from(perm[pred], perm[true], l=4))
    # summation order over the permuted categories may shift the last bit
    np.testing.assert_allclose(mean_a, mean_b, rtol=1e-14)
    np.testing.assert_array_equal(per_b[perm], per_a)


def test_update_validation():
    cm = MT.ConfusionMatrix(2)
    with pytest.raises(ShapeError):
        cm.update(np.zeros(3, dtype=int), np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        cm.update(np.array([5]), np.array([0]))
    with pytest.raises(ValueError):
        MT.miou(MT.ConfusionMatrix(2))
