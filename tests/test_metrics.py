"""Confusion matrix and IoU checks against hand counts."""

from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp
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


def test_uint8_labels_are_counted_where_they_belong():
    # 19 * 20 overflows uint8: the joint index must be formed in int64
    labels = np.array([18, 19, 0], dtype=np.uint8)
    cm = MT.ConfusionMatrix(20)
    cm.update(labels.astype(np.intp), labels)
    expected = np.zeros((20, 20), dtype=np.int64)
    expected[[18, 19, 0], [18, 19, 0]] = 1
    np.testing.assert_array_equal(cm.counts, expected)


# a few distinct values, so ties are common, plus both infinities
_SCORES = st.sampled_from([-np.inf, -1.5, 0.0, 0.25, 2.0, np.inf])


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=4, max_side=5),
                  elements=_SCORES))
def test_argmax_channels_is_np_argmax(scores):
    index = MT.argmax_channels(scores)
    expected = np.argmax(scores, axis=1)
    assert index.dtype == expected.dtype
    np.testing.assert_array_equal(index, expected)


def test_argmax_channels_refuses_nan_in_any_channel():
    scores = np.zeros((2, 3, 4, 4))
    MT.argmax_channels(scores)
    for c in range(3):
        bad = scores.copy()
        bad[1, c, 2, 3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            MT.argmax_channels(bad)
