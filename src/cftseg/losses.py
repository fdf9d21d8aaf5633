"""Segmentation objective: pixel cross-entropy plus dice/focal mask supervision.

Every term reads a (B,H,W) label map. The mask terms act on per-category
sigmoid probabilities of summed stage logits, against the label planes of
nearest-downsampled labels; the pixel term is a softmax cross-entropy over
categories. Pixels labelled 255 are left out of every term. The weighted
total is ``ce + 2*dice + 5*focal`` and the whole breakdown backpropagates;
cross-entropy, dice and focal are each one tape record with a closed-form
backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeError
from .functional import bilinear_resize
from .tensor import Tensor, concat, sigmoid_parts

IGNORE_INDEX = 255
LAMBDA_DICE = 2.0
LAMBDA_FOCAL = 5.0
FOCAL_ALPHA = 0.25
DICE_SMOOTH = 1.0

MASK_LOSS_MODES = ("cumulative", "final", "off")


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar loss components; total is the lambda-weighted sum."""

    ce: Tensor
    dice: Tensor
    focal: Tensor
    total: Tensor

    @classmethod
    def combine(cls, ce: Tensor, dice: Tensor, focal: Tensor) -> "LossBreakdown":
        total = ce + dice * LAMBDA_DICE + focal * LAMBDA_FOCAL
        return cls(ce=ce, dice=dice, focal=focal, total=total)

    def floats(self) -> dict[str, float]:
        return {"ce": self.ce.item(), "dice": self.dice.item(),
                "focal": self.focal.item(), "total": self.total.item()}


def _scalar_zero() -> Tensor:
    return Tensor(np.zeros(()))


def check_labels(labels: np.ndarray, num_categories: int) -> np.ndarray:
    """Raise ValueError unless every label is in [0, num_categories) or 255."""
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be an integer array")
    bad = (labels != IGNORE_INDEX) & ((labels < 0) | (labels >= num_categories))
    if bad.any():
        raise ValueError(
            f"labels must lie in [0, {num_categories}) or equal {IGNORE_INDEX}")
    return labels


def check_category_count(num_categories: int, error: type[ValueError]) -> None:
    """Raise `error` unless 2 <= num_categories <= 255; with more, category
    255 would be the ignore label and drop out of every loss and metric."""
    if not 2 <= num_categories <= IGNORE_INDEX:
        raise error(f"num_categories must lie in [2, {IGNORE_INDEX}], "
                    f"got {num_categories}")


def _label_planes(logits: Tensor, labels: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The (B,L,H,W) boolean planes of a (B,H,W) label map that matches
    (B,L,H,W) logits, and the (B,H,W) mask of pixels not labelled 255.

    Ignored pixels lie in no plane. Raises ShapeError on other shapes and
    ValueError, through `check_labels`, on non-integer or out-of-range
    labels.
    """
    if logits.ndim != 4:
        raise ShapeError(f"losses expect (B,L,H,W) logits, got {logits.shape}")
    b, num_categories, h, w = logits.shape
    labels = check_labels(labels, num_categories)
    if labels.shape != (b, h, w):
        raise ShapeError(
            f"labels shape {labels.shape} does not match logits {logits.shape}")
    hit = labels[:, None] == np.arange(num_categories)[:, None, None]
    return hit, labels != IGNORE_INDEX


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over non-ignored pixels.

    Per kept pixel the loss is logsumexp(z) - z[label]; its gradient is
    (softmax(z) - onehot(label)) / n_kept, and zero at ignored pixels.
    """
    hit, kept = _label_planes(logits, labels)
    n_valid = int(np.count_nonzero(kept))
    if n_valid == 0:
        raise ValueError("cross_entropy: every pixel is ignored")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    norm = exp.sum(axis=1, keepdims=True)
    loss = (np.log(norm[:, 0][kept]).sum() - shifted[hit].sum()) * (1.0 / n_valid)

    def bwd(g):
        grad = exp / norm
        grad -= hit
        grad *= kept[:, None] * (g / n_valid)
        return (grad,)

    return Tensor._result(np.asarray(loss), (logits,), "cross_entropy", bwd)


def _nearest_indices(src_len: int, dst_len: int) -> np.ndarray:
    """Source index sampled at each destination cell's center."""
    centers = (np.arange(dst_len) + 0.5) * (src_len / dst_len)
    return np.minimum(centers.astype(np.int64), src_len - 1)


def downsample_labels(labels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbour (B,H,W) -> (B,out_h,out_w) label map; 255 stays 255."""
    labels = np.asarray(labels)
    if labels.ndim != 3:
        raise ShapeError(f"labels must be (B,H,W), got {labels.shape}")
    rows = _nearest_indices(labels.shape[1], out_h)
    cols = _nearest_indices(labels.shape[2], out_w)
    return labels[:, rows[:, None], cols[None, :]]


def sum_masks_orderly(masks: Sequence[Tensor],
                      mode: str = "cumulative") -> list[Tensor]:
    """Resize stage mask logits to the finest grid and accumulate in order.

    Returns every running sum under ``cumulative`` supervision and only the
    last one under ``final``. Masks must be ordered coarse to fine, as the
    top-down pass emits them.
    """
    if mode not in ("cumulative", "final"):
        raise ValueError(f"unknown mask sum mode {mode!r}")
    if not masks:
        raise ValueError("sum_masks_orderly needs at least one mask")
    _, _, out_h, out_w = masks[-1].shape
    resized = [bilinear_resize(m, out_h, out_w) for m in masks]
    sums = [resized[0]]
    for r in resized[1:]:
        sums.append(sums[-1] + r)
    return sums if mode == "cumulative" else [sums[-1]]


def dice_loss(mask_logits: Tensor, labels: np.ndarray) -> Tensor:
    """Soft dice on sigmoid probabilities, averaged over present categories.

    The target of category l is the plane of pixels labelled l in the
    (B,H,W) `labels`; pixels labelled 255 are left out of every sum. A
    category counts as present when some pixel of that sample carries its
    label; with every pixel ignored the loss is zero. Per (sample,
    category) pair the loss is 1 - N/D with N = 2*inter + 1 and D = psum +
    tsum + 1; its derivative in a kept pixel's probability p is N/D**2 -
    2*target/D, and p in the logit has slope p*(1 - p).
    """
    target, kept = _label_planes(mask_logits, labels)
    keep = kept[:, None]
    tsum = target.sum(axis=(2, 3))
    present = (tsum > 0).astype(np.float64)
    n_present = present.sum()
    if n_present == 0:
        return _scalar_zero()
    prob, prob_neg, _ = sigmoid_parts(mask_logits.data)
    probs = prob * keep
    inter = (probs * target).sum(axis=(2, 3))
    psum = probs.sum(axis=(2, 3))
    num = inter * 2.0 + DICE_SMOOTH
    den = psum + tsum + DICE_SMOOTH
    per_pair = 1.0 - num / den
    loss = (per_pair * present).sum() * (1.0 / n_present)

    def bwd(g):
        scale = present * (g / n_present)
        grad = target * (scale * (-2.0 / den))[:, :, None, None]
        grad += (scale * num / (den * den))[:, :, None, None]
        grad *= keep
        grad *= prob
        grad *= prob_neg
        return (grad,)

    return Tensor._result(np.asarray(loss), (mask_logits,), "dice", bwd)


def focal_loss(mask_logits: Tensor, labels: np.ndarray) -> Tensor:
    """Binary focal loss on per-category sigmoid maps, mean over kept pixels.

    The target t of category l is 1 where the (B,H,W) `labels` say l and
    0 elsewhere. With the signed logit s = z*(2t-1), p_t = sigmoid(s) and
    1 - p_t = sigmoid(-s) come from one exp(-|s|), and log p_t = min(s, 0)
    - log1p(exp(-|s|)), so saturated logits stay finite; the focusing term
    (1 - p_t)**2 fixes gamma at 2. The derivative of (1 - p_t)**2 log p_t
    in s is (1 - p_t)**2 (1 - p_t - 2 p_t log p_t). Pixels labelled 255
    weigh zero; with every pixel ignored the loss is zero.
    """
    target, kept = _label_planes(mask_logits, labels)
    n_kept = np.count_nonzero(kept) * target.shape[1]
    if n_kept == 0:
        return _scalar_zero()
    sign = np.where(target, 1.0, -1.0)
    signed = mask_logits.data * sign
    hit, miss, exp_neg = sigmoid_parts(signed)
    log_hit = np.minimum(signed, 0.0) - np.log1p(exp_neg)
    alpha_t = np.where(target, FOCAL_ALPHA, 1.0 - FOCAL_ALPHA)
    # -alpha_t, rescaled by size / n_kept so that the mean runs over kept
    # pixels; the factor is exactly 1.0 when all are kept
    weight = alpha_t * kept[:, None] * (-target.size / n_kept)
    miss_sq = miss * miss
    loss = (weight * log_hit * miss_sq).mean()

    def bwd(g):
        grad = hit * log_hit
        grad *= -2.0
        grad += miss
        grad *= miss_sq
        grad *= weight
        grad *= sign * (g / target.size)
        return (grad,)

    return Tensor._result(np.asarray(loss), (mask_logits,), "focal", bwd)


def total_loss(logits: Tensor, masks: Sequence[Tensor], labels: np.ndarray,
               mask_mode: str = "cumulative") -> LossBreakdown:
    """Compose the full objective: ce + 2*dice + 5*focal."""
    if mask_mode not in MASK_LOSS_MODES:
        raise ValueError(f"unknown mask loss mode {mask_mode!r}")
    ce = cross_entropy(logits, labels)
    if masks and mask_mode != "off":
        sums = sum_masks_orderly(masks, mode=mask_mode)
        _, _, out_h, out_w = sums[0].shape
        # every running sum faces the same labels, so the mean of the
        # per-sum losses is the loss of the sums stacked along the batch
        small = np.tile(downsample_labels(labels, out_h, out_w), (len(sums), 1, 1))
        stacked = concat(sums)
        dice = dice_loss(stacked, small)
        focal = focal_loss(stacked, small)
    else:
        dice = _scalar_zero()
        focal = _scalar_zero()
    return LossBreakdown.combine(ce, dice, focal)
