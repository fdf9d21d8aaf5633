"""Confusion-matrix segmentation metrics and per-category gain reports."""

from __future__ import annotations

import csv
import json
from pathlib import Path

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
        joint = true * self.num_categories + pred
        binned = np.bincount(joint, minlength=self.num_categories ** 2)
        self.counts += binned.reshape(self.num_categories, self.num_categories)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


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


def per_category_gain(iou_base, iou_agg) -> dict:
    """Boxplot summary of per-category IoU deltas between two runs.

    Categories with a NaN IoU in either input are dropped before the
    statistics are taken.
    """
    base = np.asarray(iou_base, dtype=np.float64)
    agg = np.asarray(iou_agg, dtype=np.float64)
    if base.shape != agg.shape or base.ndim != 1:
        raise ShapeError("iou vectors must be equal-length 1-D arrays")
    keep = np.isfinite(base) & np.isfinite(agg)
    if not keep.any():
        raise ValueError("no scored categories in common")
    delta = agg[keep] - base[keep]
    q1, median, q3 = np.quantile(delta, [0.25, 0.5, 0.75])
    return {
        "deltas": delta.tolist(),
        "mean": float(delta.mean()),
        "min": float(delta.min()),
        "q1": float(q1),
        "median": float(median),
        "q3": float(q3),
        "max": float(delta.max()),
    }


def write_gain_report(csv_path, json_path, iou_base, iou_agg) -> dict:
    """Emit the per-category CSV and JSON summary; returns the summary."""
    base = np.asarray(iou_base, dtype=np.float64)
    agg = np.asarray(iou_agg, dtype=np.float64)
    summary = per_category_gain(base, agg)
    with Path(csv_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["category_id", "iou_base", "iou_agg", "delta"])
        for idx, (b, a) in enumerate(zip(base, agg)):
            writer.writerow([idx, repr(float(b)), repr(float(a)),
                             repr(float(a - b))])
    with Path(json_path).open("w") as fh:
        json.dump({k: v for k, v in summary.items() if k != "deltas"}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    return summary
