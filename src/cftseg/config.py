"""Flat key = value training configuration with typed coercion.

Precedence is defaults < config file < explicit overrides (CLI flags).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping

from .blocks import VARIANTS
from .errors import ConfigError
from .losses import MASK_LOSS_MODES
from .model import ModelConfig

VARIANT_CHOICES = VARIANTS + ("none",)


@dataclass(frozen=True)
class TrainConfig:
    # production-scale schedules run baselr 6e-5 over 160k iterations; the
    # desk defaults keep that base rate but hundreds of iterations
    baselr: float = 6e-5
    power: float = 1.0
    total_iters: int = 500
    batch_size: int = 4
    weight_decay: float = 1e-5
    seed: int = 0
    crop_size: int = 64
    variant: str = "cft"
    mask_loss_mode: str = "cumulative"
    num_categories: int = 4
    embed_channels: int = 32
    num_heads: int = 4
    ffn_ratio: int = 4
    backbone_channels: tuple[int, ...] = (8, 16, 32, 64)
    n_images: int = 8
    flip_prob: float = 0.5
    checkpoint_every: int = 0  # 0 saves only the final checkpoint
    log_every: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.baselr) and self.baselr > 0):
            raise ConfigError("baselr must be positive and finite")
        if not (math.isfinite(self.power) and self.power >= 0):
            raise ConfigError("power must be non-negative and finite")
        if self.total_iters < 1:
            raise ConfigError("total_iters must be at least 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.crop_size % 32 or self.crop_size <= 0:
            raise ConfigError("crop_size must be a positive multiple of 32")
        if self.variant not in VARIANT_CHOICES:
            raise ConfigError(
                f"variant must be one of {', '.join(VARIANT_CHOICES)}")
        if self.mask_loss_mode not in MASK_LOSS_MODES:
            raise ConfigError(
                f"mask_loss_mode must be one of {', '.join(MASK_LOSS_MODES)}")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ConfigError("flip_prob must lie in [0, 1]")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError("weight_decay must be non-negative and finite")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.n_images < 1:
            raise ConfigError("n_images must be at least 1")
        if self.checkpoint_every < 0 or self.log_every < 1:
            raise ConfigError("bad checkpoint_every/log_every")
        self.model_config()  # ModelConfig owns the architecture rules

    def model_config(self) -> ModelConfig:
        return ModelConfig(num_categories=self.num_categories,
                           embed_channels=self.embed_channels,
                           num_heads=self.num_heads,
                           ffn_ratio=self.ffn_ratio,
                           backbone_channels=self.backbone_channels)


_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "str":
            return raw
        if kind.startswith("tuple"):
            return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    raise ConfigError(f"unhandled config field type for {key}")


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value strings from flat `key = value` lines, each key once."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: config key {key!r} is set twice")
        pairs[key] = value
    return pairs


def load_config(path=None, overrides: Mapping[str, str] | None = None
                ) -> TrainConfig:
    raw: dict[str, str] = {}
    if path is not None:
        raw.update(parse_config_text(Path(path).read_text()))
    for key, value in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        raw[key] = str(value)
    return TrainConfig(**{k: _coerce(k, v) for k, v in raw.items()})


def config_to_text(config: TrainConfig) -> str:
    """Serialize so that parse(load(text)) reproduces the config exactly."""
    lines = []
    for f in fields(TrainConfig):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
