"""Confusion-matrix segmentation metrics: pixel accuracy and per-category IoU."""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .losses import IGNORE_INDEX


class ConfusionMatrix:
    """L x L pixel counts; rows are ground truth, columns are prediction."""

    def __init__(self, num_categories: int):
        if num_categories < 2:
            raise ValueError("need at least two categories")
        self.num_categories = num_categories
        self.counts = np.zeros((num_categories, num_categories), dtype=np.int64)

    def update(self, prediction: np.ndarray, target: np.ndarray) -> None:
        prediction = np.asarray(prediction)
        target = np.asarray(target)
        if prediction.shape != target.shape:
            raise ShapeError(
                f"prediction {prediction.shape} vs target {target.shape}")
        valid = target != IGNORE_INDEX
        pred = prediction[valid].ravel()
        true = target[valid].ravel()
        if pred.size and (pred.min() < 0 or pred.max() >= self.num_categories):
            raise ValueError("prediction indices out of range")
        if true.size and (true.min() < 0 or true.max() >= self.num_categories):
            raise ValueError("target indices out of range")
        # widened first: with uint8 labels `true * L` would wrap from L = 17 on
        joint = true.astype(np.int64) * self.num_categories + pred
        binned = np.bincount(joint, minlength=self.num_categories ** 2)
        self.counts += binned.reshape(self.num_categories, self.num_categories)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def argmax_channels(scores: np.ndarray) -> np.ndarray:
    """`np.argmax(scores, axis=1)` of a (B, L, ...) array, lowest index on
    ties, from a running max over the L channels.

    np.argmax would first copy the whole array to bring axis 1 last; the
    running max holds two arrays of one channel's size. Raises ValueError
    when any score is NaN, which np.maximum carries into the running max.
    """
    best = scores[:, 0].copy()
    index = np.zeros(best.shape, dtype=np.intp)
    for c in range(1, scores.shape[1]):
        channel = scores[:, c]
        index[channel > best] = c
        np.maximum(best, channel, out=best)
    if np.isnan(best).any():
        raise ValueError("scores contain NaN")
    return index


def pixel_accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm.counts) / cm.total)


def miou(cm: ConfusionMatrix) -> tuple[np.ndarray, float]:
    """Per-category IoU (NaN when absent from both GT and prediction) and
    the mean over present categories."""
    tp = np.diag(cm.counts).astype(np.float64)
    fp = cm.counts.sum(axis=0) - tp
    fn = cm.counts.sum(axis=1) - tp
    denom = tp + fp + fn
    present = denom > 0
    if not present.any():
        raise ValueError("empty confusion matrix")
    per_category = np.full(cm.num_categories, np.nan)
    per_category[present] = tp[present] / denom[present]
    return per_category, float(per_category[present].mean())
