"""Synthetic multi-category shape scenes for desk-scale experiments.

Every category has a fixed color and texture derived from its index alone,
so datasets drawn with different seeds share one appearance model and a
network trained on one seed transfers to another. Seeds only move the
shapes around.
"""

from __future__ import annotations

import colorsys
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DatasetError
from .losses import check_category_count, check_labels

BACKGROUND_COLOR = (0.35, 0.35, 0.35)
TEXTURE_AMP = 0.05
NOISE_SIGMA = 0.02
# per-category sinusoid direction/frequency; index l cycles through these
TEXTURE_FREQS = ((1.0, 1.0), (4.0, 0.0), (0.0, 4.0), (3.0, 3.0),
                 (5.0, 2.0), (2.0, 5.0), (6.0, 1.0), (1.0, 6.0))
SHAPE_KINDS = ("rectangle", "ellipse", "stripe")


def category_color(index: int, num_categories: int) -> tuple[float, float, float]:
    """Fixed, well-separated color per category; 0 is the gray background."""
    if index == 0:
        return BACKGROUND_COLOR
    hue = (index - 1) / max(num_categories - 1, 1)
    return colorsys.hsv_to_rgb(hue, 0.75, 0.85)


@dataclass(frozen=True)
class Dataset:
    images: np.ndarray  # (N, 3, H, W) float64 in [0, 1]
    labels: np.ndarray  # (N, H, W) int64
    num_categories: int

    def __len__(self) -> int:
        return int(self.images.shape[0])


def _texture(size: int, index: int, phase: float) -> np.ndarray:
    fy, fx = TEXTURE_FREQS[index % len(TEXTURE_FREQS)]
    yy, xx = np.mgrid[0:size, 0:size] / size
    return TEXTURE_AMP * np.sin(2.0 * np.pi * (fx * xx + fy * yy) + phase)


def _shape_mask(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
    # generous radii keep coarse-grid cells mostly single-class, which the
    # stage-mask supervision depends on
    yy, xx = np.mgrid[0:size, 0:size]
    lo, hi = size // 6, size // 4 + size // 16
    if kind == "rectangle":
        ry, rx = rng.integers(lo, hi + 1, size=2)
        cy = rng.integers(ry, size - ry + 1)
        cx = rng.integers(rx, size - rx + 1)
        return (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= rx)
    if kind == "ellipse":
        ry, rx = rng.integers(lo, hi + 1, size=2)
        cy = rng.integers(ry, size - ry + 1)
        cx = rng.integers(rx, size - rx + 1)
        return ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    if kind == "stripe":
        theta = rng.uniform(0.0, np.pi)
        ay, ax = rng.integers(lo, size - lo, size=2)
        half_width = rng.integers(lo // 2 + 2, lo + 1)
        dist = (xx - ax) * np.cos(theta) + (yy - ay) * np.sin(theta)
        return np.abs(dist) <= half_width
    raise ConfigError(f"unknown shape kind {kind!r}")


def gen_synthetic_dataset(seed: int, n_images: int = 8, size: int = 64,
                          num_categories: int = 4) -> Dataset:
    """Compose num_categories-1 shapes per image over a textured background."""
    check_category_count(num_categories, ConfigError)
    if n_images < 1:
        raise ConfigError("need at least one image")
    if size < 16:
        raise ConfigError("image size must be at least 16")
    rng = np.random.default_rng(seed)
    images = np.empty((n_images, 3, size, size))
    labels = np.zeros((n_images, size, size), dtype=np.int64)
    for n in range(n_images):
        image = np.empty((3, size, size))
        bg = _texture(size, 0, rng.uniform(0.0, 2.0 * np.pi))
        for c, value in enumerate(BACKGROUND_COLOR):
            image[c] = value + bg
        for index in range(1, num_categories):
            kind = SHAPE_KINDS[(index - 1) % len(SHAPE_KINDS)]
            mask = _shape_mask(kind, size, rng)
            tex = _texture(size, index, rng.uniform(0.0, 2.0 * np.pi))
            color = category_color(index, num_categories)
            for c in range(3):
                image[c][mask] = color[c] + tex[mask]
            labels[n][mask] = index
        image += rng.normal(0.0, NOISE_SIGMA, image.shape)
        images[n] = np.clip(image, 0.0, 1.0)
    return Dataset(images=images, labels=labels, num_categories=num_categories)


def save_dataset(dataset: Dataset, out_dir) -> list[Path]:
    """Write images.npy / labels.npy / meta.json into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "images.npy", out / "labels.npy", out / "meta.json"]
    np.save(paths[0], dataset.images)
    np.save(paths[1], dataset.labels)
    meta = {"n_images": len(dataset), "size": int(dataset.images.shape[2]),
            "num_categories": dataset.num_categories}
    paths[2].write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return paths


def load_dataset(in_dir) -> Dataset:
    """Read a directory written by `save_dataset`; raises DatasetError
    unless its arrays and metadata fit together and every label is a
    category of meta.json's count or the ignore label 255."""
    src = Path(in_dir)
    meta = json.loads((src / "meta.json").read_text())
    images = np.load(src / "images.npy")
    labels = np.load(src / "labels.npy")
    num_categories = meta.get("num_categories") if isinstance(meta, dict) else None
    if type(num_categories) is not int:
        raise DatasetError(f"meta.json: num_categories must be an integer, "
                           f"got {num_categories!r}")
    check_category_count(num_categories, DatasetError)
    if (images.ndim != 4 or images.shape[0] < 1 or images.shape[1] != 3
            or not np.issubdtype(images.dtype, np.floating)):
        raise DatasetError(f"images.npy must hold floats shaped (N, 3, H, W), "
                           f"got {images.dtype} {images.shape}")
    want = (images.shape[0], *images.shape[2:])
    if labels.shape != want or not np.issubdtype(labels.dtype, np.integer):
        raise DatasetError(f"labels.npy must hold integers shaped {want}, "
                           f"got {labels.dtype} {labels.shape}")
    try:
        check_labels(labels, num_categories)
    except ValueError as err:
        raise DatasetError(f"labels.npy: {err}") from err
    return Dataset(images=images, labels=labels, num_categories=num_categories)
