"""Training loop, evaluation, ablation runner, and the gradient-check suite."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np

from .checkpoint import (Checkpoint, load_checkpoint, model_state,
                         restore_state, save_checkpoint)
from .config import (VARIANT_CHOICES, TrainConfig, config_to_text, load_config,
                     parse_config_text)
from .data import Dataset, gen_synthetic_dataset
from .errors import ConfigError, DivergedError
from .flops import count_flops
from .gradcheck import GradCheckRow, check_gradients
from .losses import (IGNORE_INDEX, cross_entropy, dice_loss, downsample_labels,
                     focal_loss, total_loss)
from .metrics import ConfusionMatrix, argmax_channels, miou, pixel_accuracy
from .model import SegModel
from .optim import AdamW, poly_lr
from .tensor import Tensor, backward, no_grad

LOG_HEADER = ("iteration", "ce", "dice", "focal", "total", "lr")

# Image pixels per no_grad forward in `evaluate`: 8 images at 64 px, 2 at
# 128 px, 1 at 256 px. Several 256 px images per forward make FFN hidden
# maps and logits of 32 MiB and more, which glibc maps and page-faults
# afresh on every forward; fewer than 8 images at 64 px pay more per-op
# overhead per image. Swept over 8192, 16384 and 32768 on the bench's eval
# sizes (BENCH_eval_chunks.json).
_EVAL_PIXELS = 128 * 256


@dataclass(frozen=True)
class TrainResult:
    out_dir: Path
    checkpoint_path: Path
    log_path: Path
    rows: list[dict]

    @property
    def final(self) -> dict:
        return self.rows[-1]


def build_model(config: TrainConfig) -> SegModel:
    return SegModel(config.model_config(), variant=config.variant,
                    rng=np.random.default_rng(config.seed))


def default_dataset(config: TrainConfig, seed: int | None = None) -> Dataset:
    return gen_synthetic_dataset(config.seed if seed is None else seed,
                                 n_images=config.n_images,
                                 size=config.crop_size,
                                 num_categories=config.num_categories)


def model_from_checkpoint(ck: Checkpoint) -> tuple[SegModel, TrainConfig]:
    config = load_config(None, overrides=parse_config_text(ck.config_text))
    model = build_model(config)
    restore_state(ck, model.named_parameters())
    return model, config


def _draw_batch(rng: np.random.Generator, dataset: Dataset,
                config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    idx = rng.integers(0, len(dataset), size=config.batch_size)
    flips = rng.random(config.batch_size) < config.flip_prob
    images = dataset.images[idx]
    labels = dataset.labels[idx]
    for b in range(config.batch_size):
        if flips[b]:
            images[b] = images[b, :, :, ::-1]
            labels[b] = labels[b, :, ::-1]
    return images, labels


def _write_log(path: Path, rows: Sequence[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_HEADER)
        for row in rows:
            writer.writerow([row["iteration"]] +
                            [repr(row[k]) for k in LOG_HEADER[1:]])


def _check_category_count(dataset: Dataset, num_categories: int) -> None:
    if dataset.num_categories != num_categories:
        raise ConfigError(f"dataset has num_categories = {dataset.num_categories}, "
                          f"the model has {num_categories}")


def _diverged(out: Path, err: DivergedError, record: dict) -> NoReturn:
    """Write `diverged.json` (the step's record plus what went non-finite,
    and where) and raise `err` with the same diagnostics. Non-finite
    floats become the strings "nan", "inf" and "-inf", since JSON has no
    literal for them."""
    err.diagnostics = {
        k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in {**record, **err.diagnostics}.items()}
    (out / "diverged.json").write_text(
        json.dumps(err.diagnostics, allow_nan=False) + "\n")
    raise err


def train(config: TrainConfig, out_dir, dataset: Dataset | None = None,
          resume: str | Path | None = None) -> TrainResult:
    """Deterministic per (seed, config); logs CSV and saves checkpoints.

    Raises ConfigError when `dataset` has another category count than
    the config, whose model would score labels it cannot predict, and
    DivergedError, after writing `diverged.json`, when a loss, a gradient
    or an updated parameter is non-finite.
    """
    if dataset is None:
        dataset = default_dataset(config)
    _check_category_count(dataset, config.num_categories)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    model = build_model(config)
    params = model.named_parameters()
    optimizer = AdamW(params, weight_decay=config.weight_decay)
    leaves = list(params.values())
    rng = np.random.default_rng(config.seed)

    start = 0
    if resume is not None:
        ck = load_checkpoint(resume)
        if parse_config_text(ck.config_text) != parse_config_text(config_to_text(config)):
            raise ConfigError("checkpoint config does not match this run")
        restore_state(ck, params, optimizer)
        start = ck.iteration
        if start >= config.total_iters:
            raise ConfigError("checkpoint is already at or past total_iters")
        for _ in range(start):  # replay the sampling stream up to the cut
            _draw_batch(rng, dataset, config)

    config_echo = config_to_text(config)
    rows: list[dict] = []
    for iteration in range(start, config.total_iters):
        lr = poly_lr(config.baselr, iteration, config.total_iters, config.power)
        images, labels = _draw_batch(rng, dataset, config)
        logits, masks = model(Tensor(images))
        breakdown = total_loss(logits, masks, labels,
                               mask_mode=config.mask_loss_mode)
        values = breakdown.floats()
        record = {"iteration": iteration, "lr": lr, **values}
        if not all(np.isfinite(v) for v in values.values()):
            _diverged(out, DivergedError("non-finite loss", diagnostics={
                "reason": "non-finite loss"}), record)
        grads = backward(breakdown.total, leaves=leaves)
        try:
            optimizer.step(grads, lr)
        except DivergedError as err:
            _diverged(out, err, record)
        if iteration % config.log_every == 0 or iteration == config.total_iters - 1:
            rows.append(record)
        done = iteration + 1
        if config.checkpoint_every and done % config.checkpoint_every == 0 \
                and done < config.total_iters:
            ck = Checkpoint(iteration=done, config_text=config_echo,
                            arrays=model_state(params, optimizer))
            save_checkpoint(out / f"checkpoint_{done:06d}.ckpt", ck)

    final = Checkpoint(iteration=config.total_iters, config_text=config_echo,
                       arrays=model_state(params, optimizer))
    final_path = save_checkpoint(out / "checkpoint_final.ckpt", final)
    log_path = out / "train_log.csv"
    _write_log(log_path, rows)
    return TrainResult(out_dir=out, checkpoint_path=final_path,
                       log_path=log_path, rows=rows)


def evaluate(model: SegModel | str | Path, dataset: Dataset) -> dict:
    """Single-scale inference metrics over a dataset, from one no_grad
    forward per `_EVAL_PIXELS` image pixels (at least one image each).
    `model` is a model or the path of a checkpoint to build one from.

    The logits give mIoU, pixel accuracy and per-category IoU. The stage
    masks give `mask_agreement`: the fraction of mask argmax pixels, all
    stages pooled, that match the nearest-downsampled labels, over pixels
    not labelled 255; None when no mask pixel is scored, as for variants
    without masks. An image's outputs do not depend on the images it is
    forwarded with, so neither does the report. Raises ValueError when no
    pixel is scored at all or the model outputs NaN, and ConfigError when
    the dataset has another category count than the model.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if isinstance(model, (str, Path)):
        model, _ = model_from_checkpoint(load_checkpoint(model))
    _check_category_count(dataset, model.config.num_categories)
    cm = ConfusionMatrix(dataset.num_categories)
    matched = scored = 0
    height, width = dataset.images.shape[2:]
    step = max(1, _EVAL_PIXELS // (height * width))
    for lo in range(0, len(dataset), step):
        chunk = slice(lo, lo + step)
        labels = dataset.labels[chunk]
        with no_grad():
            logits, masks = model(Tensor(dataset.images[chunk]))
        for mask in masks:
            target = downsample_labels(labels, *mask.shape[2:])
            kept = target != IGNORE_INDEX
            matched += int((argmax_channels(mask.data) == target)[kept].sum())
            scored += int(kept.sum())
        cm.update(argmax_channels(logits.data), labels)
    per_category, mean = miou(cm)
    return {"miou": mean,
            "pixel_accuracy": pixel_accuracy(cm),
            "per_category_iou": [None if np.isnan(v) else float(v)
                                 for v in per_category],
            "mask_agreement": matched / scored if scored else None}


ABLATION_HEADER = ("variant", "mask_mode", "params", "flops", "miou",
                   "pixel_acc", "mask_agreement")


def run_ablation(config: TrainConfig, out_dir,
                 variants: Sequence[str] = VARIANT_CHOICES,
                 mask_modes: Sequence[str] = ("cumulative",)) -> list[dict]:
    """Train/evaluate each (variant, mask_mode) under one seed and budget.

    mIoU and pixel accuracy are measured on the training images (fit
    quality); mask agreement is measured on freshly drawn held-out scenes,
    those of seed + 1000.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = default_dataset(config)
    heldout = default_dataset(config, seed=config.seed + 1000)
    rows: list[dict] = []
    for variant in variants:
        for mode in mask_modes:
            run_cfg = replace(config, variant=variant, mask_loss_mode=mode)
            run_dir = out / f"run_{variant}_{mode}"
            result = train(run_cfg, run_dir, dataset=dataset)
            model, _ = model_from_checkpoint(load_checkpoint(result.checkpoint_path))
            report = evaluate(model, dataset)
            flops_report = count_flops(run_cfg.model_config(),
                                       (config.crop_size, config.crop_size),
                                       variant)
            rows.append({
                "variant": variant,
                "mask_mode": mode,
                "params": flops_report.total_params,
                "flops": flops_report.total_flops,
                "miou": report["miou"],
                "pixel_acc": report["pixel_accuracy"],
                "mask_agreement": evaluate(model, heldout)["mask_agreement"],
            })
    with (out / "ablation.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ABLATION_HEADER)
        for row in rows:
            agreement = row["mask_agreement"]
            writer.writerow([row["variant"], row["mask_mode"], row["params"],
                             row["flops"], repr(row["miou"]),
                             repr(row["pixel_acc"]),
                             "" if agreement is None else repr(agreement)])
    return rows


def grad_check_suite(seed: int = 0, coords_per_tensor: int = 3
                     ) -> list[GradCheckRow]:
    """Finite differences vs the tape on a miniature model and each loss."""
    config = TrainConfig(crop_size=32, num_categories=3, embed_channels=8,
                         num_heads=2, ffn_ratio=2, backbone_channels=(4, 6, 8, 10),
                         batch_size=1, n_images=1, seed=seed)
    dataset = default_dataset(config)
    # residual paths start non-zero so every projection is exercised
    model = SegModel(config.model_config(), variant="cft",
                     rng=np.random.default_rng(seed), zero_residual_paths=False)
    images = Tensor(dataset.images)
    labels = dataset.labels

    def model_loss():
        logits, masks = model(images)
        return total_loss(logits, masks, labels).total

    rows = check_gradients(model_loss, model.named_parameters(),
                           coords_per_tensor=coords_per_tensor, seed=seed)

    # the three loss terms score one label map; its ignored pixel changes
    # every kept pixel's normaliser, so each probe differences that path
    rng = np.random.default_rng(seed + 1)
    loss_logits = Tensor(rng.standard_normal((1, 3, 4, 4)), requires_grad=True)
    loss_labels = rng.integers(0, 3, size=(1, 4, 4))
    loss_labels[0, 0, 0] = IGNORE_INDEX
    for name, loss in (("ce", cross_entropy), ("dice", dice_loss), ("focal", focal_loss)):
        rows += check_gradients(lambda loss=loss: loss(loss_logits, loss_labels),
                                {f"loss.{name}": loss_logits},
                                coords_per_tensor=coords_per_tensor, seed=seed)
    return rows
