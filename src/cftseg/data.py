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
    labels: np.ndarray  # (N, H, W) uint8 as generated and loaded; 255 is ignored
    num_categories: int

    def __len__(self) -> int:
        return int(self.images.shape[0])


def _shape_pixels(kind: str, axis: np.ndarray, rng: np.random.Generator):
    """Draw one shape on the square map with rows and columns axis. Returns
    its pixels as an index into that map (slices for the background and a
    rectangle, pixel arrays otherwise) and as rows and columns that broadcast."""
    if kind == "background":
        return (slice(None), slice(None)), (axis[:, None], axis)
    size = len(axis)
    # generous radii keep coarse-grid cells mostly single-class, which the
    # stage-mask supervision depends on
    lo, hi = size // 6, size // 4 + size // 16
    if kind == "stripe":
        theta = rng.uniform(0.0, np.pi)
        ay, ax = rng.integers(lo, size - lo, size=2)
        half_width = rng.integers(min(lo // 2 + 2, lo), lo + 1)
        dist = (axis - ax) * np.cos(theta) + (axis[:, None] - ay) * np.sin(theta)
        pixels = np.nonzero(np.abs(dist) <= half_width)
        return pixels, pixels
    ry, rx = rng.integers(lo, hi + 1, size=2)
    cy = rng.integers(ry, size - ry + 1)
    cx = rng.integers(rx, size - rx + 1)
    rows, cols = axis[cy - ry:cy + ry + 1], axis[cx - rx:cx + rx + 1]
    if kind == "rectangle":
        return (slice(cy - ry, cy + ry + 1), slice(cx - rx, cx + rx + 1)), (rows[:, None], cols)
    r, c = np.nonzero(((rows[:, None] - cy) / ry) ** 2 + ((cols - cx) / rx) ** 2 <= 1.0)
    pixels = rows[r], cols[c]
    return pixels, pixels


def gen_synthetic_dataset(seed: int, n_images: int = 8, size: int = 64,
                          num_categories: int = 4) -> Dataset:
    """Compose num_categories-1 shapes per image over a textured background.
    Labels are painted as bytes: every accepted category count is at most
    255, so each category and the ignore label fit in one."""
    check_category_count(num_categories, ConfigError)
    if n_images < 1:
        raise ConfigError("need at least one image")
    if size < 16:
        raise ConfigError("image size must be at least 16")
    rng = np.random.default_rng(seed)
    axis = np.arange(size)
    images = np.empty((n_images, 3, size, size))
    labels = np.zeros((n_images, size, size), dtype=np.uint8)
    for n in range(n_images):
        image = images[n]
        for index in range(num_categories):
            kind = SHAPE_KINDS[(index - 1) % len(SHAPE_KINDS)] if index else "background"
            pixels, (y, x) = _shape_pixels(kind, axis, rng)
            # a texture value depends on its pixel alone, so taking it only
            # where it is painted keeps its bits
            fy, fx = TEXTURE_FREQS[index % len(TEXTURE_FREQS)]
            phase = rng.uniform(0.0, 2.0 * np.pi)
            tex = TEXTURE_AMP * np.sin(2.0 * np.pi * (fx * (x / size) + fy * (y / size)) + phase)
            color = category_color(index, num_categories)
            for c in range(3):
                image[c][pixels] = color[c] + tex
            labels[n][pixels] = index
        image += rng.normal(0.0, NOISE_SIGMA, image.shape)
        np.clip(image, 0.0, 1.0, out=image)
    return Dataset(images=images, labels=labels, num_categories=num_categories)


def save_dataset(dataset: Dataset, out_dir) -> list[Path]:
    """Write images.npy / labels.npy / meta.json into out_dir; labels.npy
    holds the label map in its own dtype, one byte per pixel as generated."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "images.npy", out / "labels.npy", out / "meta.json"]
    np.save(paths[0], dataset.images)
    np.save(paths[1], dataset.labels)
    meta = {"n_images": len(dataset), "size": int(dataset.images.shape[2]),
            "num_categories": dataset.num_categories}
    paths[2].write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return paths


def _read(path: Path, load):
    """load(path), with a file that does not parse as its format (empty,
    truncated, not JSON or not .npy) raised as a DatasetError naming it."""
    try:
        return load(path)
    except (EOFError, ValueError) as err:
        raise DatasetError(f"{path.name} is unreadable: {err}") from err


def load_dataset(in_dir) -> Dataset:
    """Read a directory written by `save_dataset`; raises DatasetError
    unless its files parse, its arrays and metadata fit together, every
    pixel is finite and every label is a category of meta.json's count or
    the ignore label 255. Labels of any integer dtype are checked as
    stored, then narrowed to uint8, so a wider label such as 511 or -1 is
    refused before it could wrap into 255 or a category."""
    src = Path(in_dir)
    meta = _read(src / "meta.json", lambda path: json.loads(path.read_text()))
    images = _read(src / "images.npy", np.load)
    labels = _read(src / "labels.npy", np.load)
    num_categories = meta.get("num_categories") if isinstance(meta, dict) else None
    if type(num_categories) is not int:
        raise DatasetError(f"meta.json: num_categories must be an integer, "
                           f"got {num_categories!r}")
    check_category_count(num_categories, DatasetError)
    if (images.ndim != 4 or images.shape[0] < 1 or images.shape[1] != 3
            or not np.issubdtype(images.dtype, np.floating)):
        raise DatasetError(f"images.npy must hold floats shaped (N, 3, H, W), "
                           f"got {images.dtype} {images.shape}")
    if not np.isfinite(images).all():
        raise DatasetError("images.npy holds non-finite pixels")
    want = (images.shape[0], *images.shape[2:])
    if labels.shape != want or not np.issubdtype(labels.dtype, np.integer):
        raise DatasetError(f"labels.npy must hold integers shaped {want}, "
                           f"got {labels.dtype} {labels.shape}")
    try:
        check_labels(labels, num_categories)
    except ValueError as err:
        raise DatasetError(f"labels.npy: {err}") from err
    return Dataset(images=images, labels=labels.astype(np.uint8, copy=False),
                   num_categories=num_categories)
