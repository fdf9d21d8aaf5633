"""Analytic multiply-add and parameter accounting per pipeline module.

One fused multiply-add counts as one FLOP. Only matmul-shaped work is
counted: 1x1 and depthwise convolutions, linear projections, attention
score/aggregation products. Pooling, resizing, normalization, softmax, and
activations count zero.

Nothing here restates the model: a fusion step's count is read off its
row of the wiring table in `blocks`, and parameter counts are the sizes
of `named_parameters()`, grouped by module prefix, of a model built with
zeros in place of random draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import _WIRINGS, _Wiring
from .model import NUM_STAGES, ModelConfig, SegModel, stage_sizes


def conv1x1_flops(c_in: int, h: int, w: int, c_out: int) -> int:
    return h * w * c_in * c_out


def depthwise3x3_flops(channels: int, h: int, w: int) -> int:
    return h * w * channels * 9


def attention_flops(n_q: int, n_k: int, channels: int) -> int:
    """Score products plus value aggregation; head count cancels."""
    return 2 * n_q * n_k * channels


@dataclass(frozen=True)
class FlopsReport:
    variant: str
    input_hw: tuple[int, int]
    flops: dict[str, int] = field(default_factory=dict)
    params: dict[str, int] = field(default_factory=dict)

    @property
    def total_flops(self) -> int:
        return sum(self.flops.values())

    @property
    def total_params(self) -> int:
        return sum(self.params.values())

    @property
    def aggregation_flops(self) -> int:
        return sum(v for k, v in self.flops.items() if k.startswith("aggregate."))

    def as_dict(self) -> dict:
        return {"variant": self.variant,
                "input_hw": list(self.input_hw),
                "flops": dict(self.flops),
                "params": dict(self.params),
                "total_flops": self.total_flops,
                "total_params": self.total_params,
                "aggregation_flops": self.aggregation_flops}


class _ZeroDraws:
    """Stands in for the Generator that initializes a `SegModel` when only
    its parameter shapes are read: drawing the weights would cost more
    than the whole count."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(0.0, size)


def _block_flops(wiring: _Wiring, n_lo: int, n_hi: int, n_kv: int,
                 c: int, l: int, ratio: int) -> int:
    """One fusion step read off its wiring: queries on the fine grid (the
    coarse one when upsampling comes after); keys from the L category
    vectors, the pooled grid or the coarse grid."""
    n_q = n_hi if wiring.upsample_after else n_lo
    if wiring.kv is None:
        n_k = l
        embed = n_hi * c * l + n_hi * c * c + l * n_hi * c
    else:
        n_k = n_kv if wiring.pool else n_hi
        embed = 0
    ch = c * ratio
    ffn = n_lo * c * ch + n_lo * ch * 9 + n_lo * ch * c
    # q and output projections at the query positions, k and v at the keys
    proj = 2 * n_q * c * c + 2 * n_k * c * c
    return embed + proj + attention_flops(n_q, n_k, c) + ffn


def count_flops(config: ModelConfig, input_hw: tuple[int, int] = (128, 128),
                variant: str = "cft") -> FlopsReport:
    """Per-module FLOPs/params for one image of a model config and variant."""
    model = SegModel(config, variant, rng=_ZeroDraws())

    sizes = stage_sizes(*input_hw)
    counts = [h * w for h, w in sizes]
    c, l, ratio = config.embed_channels, config.num_categories, config.ffn_ratio
    flops: dict[str, int] = {}

    in_chain = (3,) + tuple(config.backbone_channels)
    for k in range(NUM_STAGES):
        h, w = sizes[k]
        c_in, c_out = in_chain[k], in_chain[k + 1]
        flops[f"backbone.s{k + 1}"] = (conv1x1_flops(c_in, h, w, c_out)
                                       + depthwise3x3_flops(c_out, h, w))
        flops[f"lateral.s{k + 1}"] = conv1x1_flops(c_out, h, w, c)

    for i in range(NUM_STAGES - 1, 0, -1):
        flops[f"aggregate.s{i}"] = 0 if variant == "none" else _block_flops(
            _WIRINGS[variant], counts[i - 1], counts[i], counts[-1], c, l, ratio)

    # the head classifies every stage at its own size (see model.decode_head)
    flops["decode"] = sum(conv1x1_flops(c, h, w, l) for h, w in sizes)
    params = dict.fromkeys(flops, 0)
    for name, tensor in model.named_parameters().items():
        # `lateral.s2.w` -> `lateral.s2`, `block.s3.w_q.w` -> `aggregate.s3`
        module, stage = name.replace("block.", "aggregate.", 1).split(".")[:2]
        params[module if module == "decode" else f"{module}.{stage}"] += tensor.size
    return FlopsReport(variant=variant, input_hw=tuple(input_hw), flops=flops,
                       params=params)
