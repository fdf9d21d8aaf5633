"""Category-attention fusion: one skeleton, one wiring per ablation variant.

Each fusion step fuses a coarse, semantically strong map `f_high` into
the finer map `x_low` one pyramid level below it. Every variant runs the
same body on (B, C, H, W) maps: pre-norm queries attend to a key/value
set, the attention output is added back as a residual, and a pre-norm
FFN adds a second residual. A key/value set is a (B, C, M) array, so
every operand stays channels first and no tape record permutes axes.
`_WIRINGS` holds the only differences, one row per variant:

    variant   query map          key/value set                upsampling
    cft       x_low              category embedding(f_high)   before
    naive     x_low              LN(f_high) pixels            before
    avgpool   x_low              LN(pool(f_high)) pixels      before
    a         up(f_high)+x_low   LN(pool(query map)) pixels   before
    b         up(f_high)         LN(pool(x_low)) pixels       before
    c         f_high             LN(pool(x_low)) pixels       after

The category embedding compresses f_high into one vector per category
(a spatial softmax over mask logits, used as mixing weights over
projected features), so cft's x_low pixels attend to L vectors rather
than to every coarse pixel. "Upsampling after" runs attention at
f_high's grid and adds its upsampled output to x_low instead of to the
queries. Pooled maps shrink to the pyramid-top grid.

All wirings share one parameter set. The output projection and the FFN
projection start at zero, so a freshly initialized step returns the map
its residuals start from: x_low, or the query map for a and b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ShapeError
from .functional import (adaptive_avg_pool, attention, bilinear_resize, conv1x1,
                         depthwise_conv3x3, layer_norm, linear, softmax)
from .tensor import Tensor, bmm, gelu, reshape


@dataclass
class LinearParams:
    """A weight and its bias: an (out, in) channel mix or (C, 3, 3) depthwise taps."""

    w: Tensor
    b: Tensor


@dataclass
class NormParams:
    gamma: Tensor
    beta: Tensor


def _uniform_linear(rng, out_dim: int, in_dim: int,
                    gain: float = 1.0) -> LinearParams:
    bound = gain / math.sqrt(in_dim)
    return LinearParams(Tensor(rng.uniform(-bound, bound, (out_dim, in_dim)),
                               requires_grad=True),
                        Tensor(np.zeros(out_dim), requires_grad=True))


def _uniform_taps(rng, channels: int, bound: float) -> LinearParams:
    """Depthwise 3x3 taps drawn uniformly from [-bound, bound], zero bias."""
    return LinearParams(Tensor(rng.uniform(-bound, bound, (channels, 3, 3)),
                               requires_grad=True),
                        Tensor(np.zeros(channels), requires_grad=True))


def _zero_linear(out_dim: int, in_dim: int) -> LinearParams:
    return LinearParams(Tensor(np.zeros((out_dim, in_dim)), requires_grad=True),
                        Tensor(np.zeros(out_dim), requires_grad=True))


def _norm(ch: int) -> NormParams:
    return NormParams(Tensor(np.ones(ch), requires_grad=True),
                      Tensor(np.zeros(ch), requires_grad=True))


@dataclass
class CftBlockParams:
    """Everything one fusion block owns.

    `phi_mask` / `phi_feat` exist only on the category variant; the
    other wirings project raw or pooled pixels instead.
    """

    channels: int
    heads: int
    phi_mask: LinearParams | None
    phi_feat: LinearParams | None
    w_q: LinearParams
    w_k: LinearParams
    w_v: LinearParams
    w_o: LinearParams
    ffn_expand: LinearParams
    ffn_project: LinearParams
    ffn_dw: LinearParams
    norm_embed: NormParams
    norm_query: NormParams
    norm_ffn: NormParams

    @classmethod
    def create(cls, channels: int, num_categories: int, heads: int,
               ffn_ratio: int, rng, with_category: bool = True,
               zero_residual_paths: bool = True) -> "CftBlockParams":
        """Build freshly initialized parameters.

        With `zero_residual_paths` the output projection and the FFN
        projection start at zero, making the whole block an identity;
        gradient-checking code turns this off so every rule is live.
        """
        if heads < 1 or channels % heads:
            raise ConfigError(f"channels ({channels}) must divide evenly into a "
                              f"positive number of heads, got {heads}")
        hidden = ffn_ratio * channels
        if with_category:
            phi_mask = _uniform_linear(rng, num_categories, channels)
            phi_feat = _uniform_linear(rng, channels, channels)
        else:
            phi_mask = phi_feat = None
        w_q = _uniform_linear(rng, channels, channels)
        w_k = _uniform_linear(rng, channels, channels)
        w_v = _uniform_linear(rng, channels, channels)
        w_o = (_zero_linear(channels, channels) if zero_residual_paths
               else _uniform_linear(rng, channels, channels))
        ffn_expand = _uniform_linear(rng, hidden, channels)
        ffn_dw = _uniform_taps(rng, hidden, bound=1.0 / 3.0)
        ffn_project = (_zero_linear(channels, hidden) if zero_residual_paths
                       else _uniform_linear(rng, channels, hidden))
        return cls(channels, heads, phi_mask, phi_feat, w_q, w_k, w_v, w_o,
                   ffn_expand, ffn_project, ffn_dw,
                   _norm(channels), _norm(channels), _norm(channels))


def named_tensors(params, prefix: str) -> dict[str, Tensor]:
    """Every tensor in a (nested) parameter dataclass, keyed
    `prefix.field[.field...]` in field order; other fields are skipped."""
    if isinstance(params, Tensor):
        return {prefix: params}
    out: dict[str, Tensor] = {}
    if is_dataclass(params):
        for f in fields(params):
            out.update(named_tensors(getattr(params, f.name), f"{prefix}.{f.name}"))
    return out


# ---------------------------------------------------------------------------
# the category path


def category_feature_embedding(f_high: Tensor, params: CftBlockParams
                               ) -> tuple[Tensor, Tensor]:
    """Compress a feature map into one embedding vector per category.

    The normalized map is projected twice: a mask head scores every
    position per category and a feature head re-mixes channels. A
    softmax over positions turns each category's scores into weights
    that average the projected features, so each embedding vector is a
    convex combination of projected-feature columns. Returns the
    (B, C, L) embedding, a key/value set of L vectors, and the raw
    (B, L, H, W) mask logits, which the mask loss supervises.
    """
    if params.phi_mask is None or params.phi_feat is None:
        raise ConfigError("this parameter set was built without category heads")
    b, c, h, w = f_high.shape
    if c != params.channels:
        raise ShapeError(f"expected {params.channels} channels, got {c}")
    normed = layer_norm(f_high, params.norm_embed.gamma, params.norm_embed.beta)
    mask_logits = conv1x1(normed, params.phi_mask.w, params.phi_mask.b)
    feats = conv1x1(normed, params.phi_feat.w, params.phi_feat.b)
    weights = softmax(reshape(mask_logits, (b, mask_logits.shape[1], h * w)), axis=2)
    return bmm(reshape(feats, (b, c, h * w)), weights, transpose_b=True), mask_logits


def _ffn(x: Tensor, params: CftBlockParams) -> Tensor:
    """Pre-norm feed-forward on a map: expand, depthwise 3x3, gelu, project."""
    normed = layer_norm(x, params.norm_ffn.gamma, params.norm_ffn.beta)
    hidden = conv1x1(normed, params.ffn_expand.w, params.ffn_expand.b)
    hidden = gelu(depthwise_conv3x3(hidden, params.ffn_dw.w, params.ffn_dw.b))
    return conv1x1(hidden, params.ffn_project.w, params.ffn_project.b)


# ---------------------------------------------------------------------------
# the fusion step


def _up(f_high: Tensor, x_low: Tensor) -> Tensor:
    return bilinear_resize(f_high, *x_low.shape[2:])


@dataclass(frozen=True)
class _Wiring:
    """Where one variant draws its queries and keys/values from.

    `query(f_high, x_low)` is the query map. `kv(f_high, x_low, query
    map)` is the map whose normalized pixels form the key/value set,
    pooled first when `pool` is set; `kv=None` takes the category
    embedding of f_high instead.
    """

    query: Callable[[Tensor, Tensor], Tensor]
    kv: Callable[[Tensor, Tensor, Tensor], Tensor] | None
    pool: bool = False
    upsample_after: bool = False


_WIRINGS = {
    "cft": _Wiring(query=lambda f, x: x, kv=None),
    "naive": _Wiring(query=lambda f, x: x, kv=lambda f, x, q: f),
    "avgpool": _Wiring(query=lambda f, x: x, kv=lambda f, x, q: f, pool=True),
    "a": _Wiring(query=lambda f, x: _up(f, x) + x, kv=lambda f, x, q: q, pool=True),
    "b": _Wiring(query=_up, kv=lambda f, x, q: x, pool=True),
    "c": _Wiring(query=lambda f, x: f, kv=lambda f, x, q: x, pool=True,
                 upsample_after=True),
}

VARIANTS = tuple(_WIRINGS)


def apply_variant(variant: str, f_high: Tensor, x_low: Tensor,
                  params: CftBlockParams, *, stage: int,
                  kv_pool_hw: tuple[int, int]) -> tuple[Tensor, Tensor | None]:
    """One fusion step wired as `variant`; returns (fused map, mask logits).

    The fused map has x_low's shape. Only "cft" yields mask logits; the
    other variants return None. Pooled key/value maps shrink to
    `kv_pool_hw`. `stage` is f_high's pyramid level (x_low's plus one);
    it names the step for callers that trace it and does not change the
    result.
    """
    wiring = _WIRINGS.get(variant)
    if wiring is None:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    query_map = wiring.query(f_high, x_low)
    mask_logits = None
    if wiring.kv is None:
        kv_set, mask_logits = category_feature_embedding(f_high, params)
    else:
        source = wiring.kv(f_high, x_low, query_map)
        if wiring.pool:
            source = adaptive_avg_pool(source, *kv_pool_hw)
        b, c, h, w = source.shape
        kv_set = reshape(layer_norm(source, params.norm_embed.gamma,
                                    params.norm_embed.beta), (b, c, h * w))
    queries = conv1x1(layer_norm(query_map, params.norm_query.gamma,
                                 params.norm_query.beta),
                      params.w_q.w, params.w_q.b)
    keys = linear(kv_set, params.w_k.w, params.w_k.b)
    values = linear(kv_set, params.w_v.w, params.w_v.b)
    context = attention(queries, keys, values, params.heads)
    attended = conv1x1(context, params.w_o.w, params.w_o.b)
    if wiring.upsample_after:
        attended = _up(attended, x_low) + x_low
    else:
        attended = attended + query_map
    return _ffn(attended, params) + attended, mask_logits
