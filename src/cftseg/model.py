"""Four-stage segmentation pipeline around the fusion blocks.

A small convolutional backbone yields maps at 1/4, 1/8, 1/16 and 1/32
of the input. Lateral pointwise convolutions bring every stage to a
shared width, the fusion blocks aggregate top-down (coarsest stage
passes through unchanged), and a decode head classifies each stage at its
own size, sums the per-category maps on the finest grid and upsamples the
logits to full resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blocks import (CftBlockParams, LinearParams, VARIANTS, _uniform_linear,
                     _uniform_taps, apply_variant, named_tensors)
from .errors import ConfigError, ShapeError
from .functional import (adaptive_avg_pool, bilinear_resize, conv1x1,
                         depthwise_conv3x3, layer_norm)
from .losses import check_category_count
from .tensor import Tensor, columns, gelu

NUM_STAGES = 4


@dataclass
class ModelConfig:
    """Architecture dimensions; variant wiring is chosen separately."""

    num_categories: int
    embed_channels: int = 256
    num_heads: int = 4
    ffn_ratio: int = 4
    backbone_channels: tuple[int, ...] = (32, 64, 128, 256)

    def __post_init__(self):
        check_category_count(self.num_categories, ConfigError)
        for name in ("embed_channels", "num_heads", "ffn_ratio"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if any(c < 1 for c in self.backbone_channels):
            raise ConfigError(f"backbone_channels must be positive, "
                              f"got {self.backbone_channels!r}")
        if self.embed_channels % self.num_heads:
            raise ConfigError(f"embed_channels ({self.embed_channels}) must divide "
                              f"into {self.num_heads} heads")
        if len(self.backbone_channels) != NUM_STAGES:
            raise ConfigError(f"backbone_channels needs {NUM_STAGES} entries, "
                              f"got {self.backbone_channels!r}")


@dataclass
class StageParams:
    conv: LinearParams
    dw: LinearParams


def _init_stage(rng, in_ch: int, out_ch: int) -> StageParams:
    # wide bounds: gelu roughly halves small signals, and each stage ends in
    # a channel standardization, so per-stage gain only has to stay O(1)
    conv = _uniform_linear(rng, out_ch, in_ch, gain=math.sqrt(6.0))
    return StageParams(conv, _uniform_taps(rng, out_ch, bound=1.0))


def _standardize_channels(x: Tensor) -> Tensor:
    """Fixed per-position channel normalization, no learned affine.

    Keeps every stage's output at unit scale across channels so the
    shrinkage of small random convolutions cannot compound into the
    eps regime of downstream layer norms.
    """
    c = x.shape[1]
    return layer_norm(x, Tensor(np.ones(c)), Tensor(np.zeros(c)))


def stage_sizes(h: int, w: int) -> list[tuple[int, int]]:
    """The (height, width) of the stage maps of an h x w input, fine to
    coarse: 1/4 ... 1/32 of it. Raises ConfigError unless h and w are
    positive multiples of 32, so that every stage lands on an exact grid.
    """
    if h % 32 or w % 32 or h <= 0 or w <= 0:
        raise ConfigError(f"input size ({h}, {w}) must be a positive multiple of 32")
    return [(h >> (k + 2), w >> (k + 2)) for k in range(NUM_STAGES)]


def toy_backbone(images: Tensor, stages: Sequence[StageParams]) -> tuple[Tensor, ...]:
    """Stride-2 feature extractor: pool, channel mix, depthwise, gelu per stage.

    Returns the stage maps ordered fine to coarse, at `stage_sizes`.
    """
    if images.ndim != 4:
        raise ShapeError(f"expected B x C x H x W images, got {images.shape}")
    feats = []
    current = images
    for (th, tw), sp in zip(stage_sizes(*images.shape[2:]), stages):
        current = adaptive_avg_pool(current, th, tw)
        current = gelu(conv1x1(current, sp.conv.w, sp.conv.b))
        current = gelu(depthwise_conv3x3(current, sp.dw.w, sp.dw.b))
        current = _standardize_channels(current)
        feats.append(current)
    return tuple(feats)


def lateral_project(pyramid: Sequence[Tensor],
                    laterals: Sequence[LinearParams]) -> list[Tensor]:
    """Bring every stage to the shared embedding width with 1x1 convs."""
    if len(laterals) != len(pyramid):
        raise ConfigError("one lateral projection per stage is required")
    return [conv1x1(stage, lp.w, lp.b) for stage, lp in zip(pyramid, laterals)]


def top_down_aggregate(laterals: Sequence[Tensor],
                       blocks: Sequence[CftBlockParams],
                       variant: str = "cft") -> tuple[list[Tensor], list[Tensor]]:
    """Fuse coarse into fine, one block per boundary, coarsest first.

    The top stage passes through unchanged. With variant "none" the
    laterals are returned untouched. Mask logits, when the variant
    produces them, come back ordered coarse to fine (stages 4, 3, 2).
    """
    if len(laterals) != NUM_STAGES:
        raise ConfigError(f"expected {NUM_STAGES} lateral maps, got {len(laterals)}")
    if variant == "none":
        return list(laterals), []
    if len(blocks) != NUM_STAGES - 1:
        raise ConfigError(f"expected {NUM_STAGES - 1} fusion blocks, got {len(blocks)}")
    pool_hw = laterals[-1].shape[2:]
    current = laterals[-1]
    feats: list[Tensor | None] = [None] * NUM_STAGES
    feats[-1] = current
    masks: list[Tensor] = []
    for i in range(NUM_STAGES - 2, -1, -1):
        current, stage_masks = apply_variant(variant, current, laterals[i],
                                             blocks[NUM_STAGES - 2 - i],
                                             stage=i + 2, kv_pool_hw=pool_hw)
        if stage_masks is not None:
            masks.append(stage_masks)
        feats[i] = current
    return feats, masks


def decode_head(features: Sequence[Tensor], classifier: LinearParams,
                out_h: int, out_w: int) -> Tensor:
    """Per-category logits from the four stage maps, upsampled to out_h x out_w.

    The classifier is a 1x1 conv over the stages resized to the finest grid
    and stacked along channels: `classifier.w` is (L, 4C), one (L, C)
    column block per stage, finest first. Resizing and the 1x1 conv are
    both linear and commute, so each stage is classified by its block at
    its own size and only the L-channel maps are resized and summed; the
    bias joins the finest stage.
    """
    if len(features) != NUM_STAGES:
        raise ConfigError(f"decode head expects {NUM_STAGES} maps")
    c = features[0].shape[1]
    if classifier.w.shape[1:] != (NUM_STAGES * c,):
        raise ShapeError(f"decode classifier {classifier.w.shape} does not match "
                         f"{NUM_STAGES} stages of {c} channels")
    th, tw = features[0].shape[2:]
    zero = Tensor(np.zeros(classifier.w.shape[0]))
    logits = conv1x1(features[0], columns(classifier.w, 0, c), classifier.b)
    for k, f in enumerate(features[1:], start=1):
        stage = conv1x1(f, columns(classifier.w, k * c, (k + 1) * c), zero)
        logits = logits + bilinear_resize(stage, th, tw)
    return bilinear_resize(logits, out_h, out_w)


class SegModel:
    """Bundles parameters for backbone, laterals, fusion blocks, and head."""

    def __init__(self, config: ModelConfig, variant: str = "cft",
                 rng: np.random.Generator | None = None,
                 zero_residual_paths: bool = True):
        if variant != "none" and variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.config = config
        self.variant = variant
        c = config.embed_channels
        widths = config.backbone_channels
        self.backbone = [_init_stage(rng, (3, *widths)[k], widths[k])
                         for k in range(NUM_STAGES)]
        self.laterals = [_uniform_linear(rng, c, widths[k]) for k in range(NUM_STAGES)]
        if variant == "none":
            self.blocks: list[CftBlockParams] = []
        else:
            self.blocks = [CftBlockParams.create(
                c, config.num_categories, config.num_heads, config.ffn_ratio, rng,
                with_category=(variant == "cft"),
                zero_residual_paths=zero_residual_paths)
                for _ in range(NUM_STAGES - 1)]
        self.classifier = _uniform_linear(rng, config.num_categories, NUM_STAGES * c)

    def forward(self, images: Tensor) -> tuple[Tensor, list[Tensor]]:
        """Full-resolution logits plus any per-stage mask logits."""
        _, _, h, w = images.shape
        pyramid = toy_backbone(images, self.backbone)
        lats = lateral_project(pyramid, self.laterals)
        feats, masks = top_down_aggregate(lats, self.blocks, self.variant)
        return decode_head(feats, self.classifier, h, w), masks

    def __call__(self, images: Tensor) -> tuple[Tensor, list[Tensor]]:
        return self.forward(images)

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for k, sp in enumerate(self.backbone, start=1):
            out.update(named_tensors(sp, f"backbone.s{k}"))
        for k, lp in enumerate(self.laterals, start=1):
            out.update(named_tensors(lp, f"lateral.s{k}"))
        for idx, blk in enumerate(self.blocks):
            out.update(named_tensors(blk, f"block.s{NUM_STAGES - 1 - idx}"))
        out.update(named_tensors(self.classifier, "decode.cls"))
        return out
