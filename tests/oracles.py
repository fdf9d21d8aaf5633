"""Independent loop-based reference implementations for the ops and fusion
blocks, and a whole-image painter for the synthetic scenes.

Everything here works on plain numpy arrays with explicit loops and
never calls into the package's op implementations, so agreement with
the taped ops is a real cross-check rather than a tautology. The scene
painter takes only the generator's constants and category colors.
"""

import math

import numpy as np

from cftseg.data import (BACKGROUND_COLOR, NOISE_SIGMA, SHAPE_KINDS, TEXTURE_AMP,
                         TEXTURE_FREQS, category_color)

GELU_C = math.sqrt(2.0 / math.pi)


def lin(p):
    return p.w.data, p.b.data


def affine(norm):
    return norm.gamma.data, norm.beta.data


def gelu_o(x):
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + 0.044715 * x ** 3)))


# The map oracles take one (C, H, W) image or a (B, C, H, W) batch: they
# loop over channels and pixels and index the leading axes with `...`.


def layer_norm_rows_o(rows, gamma, beta, eps=1e-6):
    """Normalize each row of an (N, C) matrix, then apply the affine pair."""
    out = np.empty_like(rows)
    for r in range(rows.shape[0]):
        row = rows[r]
        m = row.mean()
        v = ((row - m) ** 2).mean()
        out[r] = (row - m) / np.sqrt(v + eps) * gamma + beta
    return out


def layer_norm_map_o(x, gamma, beta, eps=1e-6):
    """Channel-wise normalization of a map, position by position."""
    moved = np.moveaxis(x, -3, -1)
    rows = layer_norm_rows_o(moved.reshape(-1, moved.shape[-1]), gamma, beta, eps)
    return np.moveaxis(rows.reshape(moved.shape), -1, -3)


def conv1x1_o(x, w, b):
    *lead, c, h, wd = x.shape
    out = np.empty((*lead, w.shape[0], h, wd))
    for n in np.ndindex(*lead):
        out[n] = (w @ x[n].reshape(c, h * wd)).reshape(w.shape[0], h, wd) + b[:, None, None]
    return out


def depthwise_o(x, w, b):
    c, h, wd = x.shape[-3:]
    out = np.zeros_like(x)
    for ch in range(c):
        for i in range(h):
            for j in range(wd):
                acc = 0.0
                for di in range(3):
                    for dj in range(3):
                        si, sj = i + di - 1, j + dj - 1
                        if 0 <= si < h and 0 <= sj < wd:
                            acc += w[ch, di, dj] * x[..., ch, si, sj]
                out[..., ch, i, j] = acc + b[ch]
    return out


def depthwise_grad_o(x, w, g):
    """(gx, gw, gb) of depthwise_o under upstream gradient g, pixel by
    pixel; gw and gb sum over the images of a batch."""
    c, h, wd = x.shape[-3:]
    gx, gw, gb = np.zeros_like(x), np.zeros((c, 3, 3)), np.zeros(c)
    for ch in range(c):
        for i in range(h):
            for j in range(wd):
                gb[ch] += g[..., ch, i, j].sum()
                for di in range(3):
                    for dj in range(3):
                        si, sj = i + di - 1, j + dj - 1
                        if 0 <= si < h and 0 <= sj < wd:
                            gx[..., ch, si, sj] += w[ch, di, dj] * g[..., ch, i, j]
                            gw[ch, di, dj] += (g[..., ch, i, j] * x[..., ch, si, sj]).sum()
    return gx, gw, gb


def bilinear_o(x, out_h, out_w):
    h, w = x.shape[-2:]
    out = np.zeros(x.shape[:-2] + (out_h, out_w))
    for oi in range(out_h):
        sy = min(max((oi + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(np.floor(sy)); y1 = min(y0 + 1, h - 1); fy = sy - y0
        for oj in range(out_w):
            sx = min(max((oj + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(np.floor(sx)); x1 = min(x0 + 1, w - 1); fx = sx - x0
            out[..., oi, oj] = ((1 - fy) * (1 - fx) * x[..., y0, x0]
                                + (1 - fy) * fx * x[..., y0, x1]
                                + fy * (1 - fx) * x[..., y1, x0]
                                + fy * fx * x[..., y1, x1])
    return out


def pool_o(x, out_h, out_w):
    h, w = x.shape[-2:]
    out = np.zeros(x.shape[:-2] + (out_h, out_w))
    for oi in range(out_h):
        r0, r1 = (oi * h) // out_h, int(np.ceil((oi + 1) * h / out_h))
        for oj in range(out_w):
            c0, c1 = (oj * w) // out_w, int(np.ceil((oj + 1) * w / out_w))
            out[..., oi, oj] = x[..., r0:r1, c0:c1].mean(axis=(-2, -1))
    return out


def attention_o(q, k, v, heads):
    """Multi-head attention of (..., C, N) queries over (..., C, M) keys and
    values: per head and query, the softmax of the scaled dot products
    over the keys weighs the values."""
    c, n = q.shape[-2:]
    m = k.shape[-1]
    dh = c // heads
    ctx = np.zeros_like(q)
    for hh in range(heads):
        sl = slice(hh * dh, (hh + 1) * dh)
        qs, ks, vs = q[..., sl, :], k[..., sl, :], v[..., sl, :]
        for i in range(n):
            scores = np.stack([(qs[..., i] * ks[..., j]).sum(axis=-1) for j in range(m)],
                              axis=-1) / math.sqrt(dh)
            w = np.exp(scores - scores.max(axis=-1, keepdims=True))
            w /= w.sum(axis=-1, keepdims=True)
            ctx[..., sl, i] = sum(w[..., j, None] * vs[..., j] for j in range(m))
    return ctx


def mha_o(q, k, v, params):
    """Multi-head attention of one sample's (N, C) rows, then the output projection."""
    wo, bo = lin(params.w_o)
    return attention_o(q.T, k.T, v.T, params.heads).T @ wo.T + bo


def embedding_o(f, params):
    """Category embedding for a single (C, H, W) sample: (L, C) plus mask logits."""
    c, h, w = f.shape
    normed = layer_norm_map_o(f, *affine(params.norm_embed))
    mask_logits = conv1x1_o(normed, *lin(params.phi_mask))
    feats = conv1x1_o(normed, *lin(params.phi_feat))
    num_cat = mask_logits.shape[0]
    emb = np.zeros((num_cat, c))
    flat_feats = feats.reshape(c, h * w)
    for l in range(num_cat):
        scores = mask_logits[l].reshape(-1)
        weights = np.exp(scores - scores.max())
        weights /= weights.sum()
        for n in range(h * w):
            emb[l] += weights[n] * flat_feats[:, n]
    return emb, mask_logits


def ffn_o(tokens, h, w, params):
    we, be = lin(params.ffn_expand)
    wp, bp = lin(params.ffn_project)
    hidden = layer_norm_rows_o(tokens, *affine(params.norm_ffn)) @ we.T + be
    spatial = hidden.T.reshape(hidden.shape[1], h, w)
    spatial = gelu_o(depthwise_o(spatial, params.ffn_dw.w.data, params.ffn_dw.b.data))
    return spatial.reshape(hidden.shape[1], h * w).T @ wp.T + bp


def _attend_tokens_o(tokens, kv_rows, params):
    wq, bq = lin(params.w_q)
    wk, bk = lin(params.w_k)
    wv, bv = lin(params.w_v)
    q = layer_norm_rows_o(tokens, *affine(params.norm_query)) @ wq.T + bq
    k = kv_rows @ wk.T + bk
    v = kv_rows @ wv.T + bv
    return mha_o(q, k, v, params)


def transform_o(x, emb, params):
    """Cross-attention transformation of one (C, H, W) sample given (L, C) rows."""
    c, h, w = x.shape
    tokens = x.reshape(c, h * w).T
    attended = _attend_tokens_o(tokens, emb, params) + tokens
    out = ffn_o(attended, h, w, params) + attended
    return out.T.reshape(c, h, w)


def cft_block_o(f_high, x_low, params):
    emb, mask_logits = embedding_o(f_high, params)
    return transform_o(x_low, emb, params), mask_logits


def _kv_rows_o(source_map, params):
    c = source_map.shape[0]
    return layer_norm_map_o(source_map, *affine(params.norm_embed)).reshape(c, -1).T


def variant_naive_o(f_high, x_low, params):
    c, h, w = x_low.shape
    tokens = x_low.reshape(c, h * w).T
    attended = _attend_tokens_o(tokens, _kv_rows_o(f_high, params), params) + tokens
    out = ffn_o(attended, h, w, params) + attended
    return out.T.reshape(c, h, w)


def variant_avgpool_o(f_high, x_low, params, pool_hw):
    return variant_naive_o(pool_o(f_high, *pool_hw), x_low, params)


def variant_a_o(f_high, x_low, params, pool_hw):
    c, h, w = x_low.shape
    summed = bilinear_o(f_high, h, w) + x_low
    tokens = summed.reshape(c, h * w).T
    kv = _kv_rows_o(pool_o(summed, *pool_hw), params)
    attended = _attend_tokens_o(tokens, kv, params) + tokens
    out = ffn_o(attended, h, w, params) + attended
    return out.T.reshape(c, h, w)


def variant_b_o(f_high, x_low, params, pool_hw):
    c, h, w = x_low.shape
    up = bilinear_o(f_high, h, w)
    tokens = up.reshape(c, h * w).T
    kv = _kv_rows_o(pool_o(x_low, *pool_hw), params)
    attended = _attend_tokens_o(tokens, kv, params) + tokens
    out = ffn_o(attended, h, w, params) + attended
    return out.T.reshape(c, h, w)


def variant_c_o(f_high, x_low, params, pool_hw):
    c, h, w = x_low.shape
    hs, ws = f_high.shape[1:]
    tokens = f_high.reshape(c, hs * ws).T
    kv = _kv_rows_o(pool_o(x_low, *pool_hw), params)
    attended = _attend_tokens_o(tokens, kv, params)
    merged = bilinear_o(attended.T.reshape(c, hs, ws), h, w) + x_low
    merged_tokens = merged.reshape(c, h * w).T
    out = ffn_o(merged_tokens, h, w, params) + merged_tokens
    return out.T.reshape(c, h, w)


def _texture_o(size, index, phase):
    fy, fx = TEXTURE_FREQS[index % len(TEXTURE_FREQS)]
    yy, xx = np.mgrid[0:size, 0:size] / size
    return TEXTURE_AMP * np.sin(2.0 * np.pi * (fx * xx + fy * yy) + phase)


def _shape_mask_o(kind, size, rng):
    yy, xx = np.mgrid[0:size, 0:size]
    lo, hi = size // 6, size // 4 + size // 16
    if kind == "stripe":
        theta = rng.uniform(0.0, np.pi)
        ay, ax = rng.integers(lo, size - lo, size=2)
        half_width = rng.integers(min(lo // 2 + 2, lo), lo + 1)
        return np.abs((xx - ax) * np.cos(theta) + (yy - ay) * np.sin(theta)) <= half_width
    ry, rx = rng.integers(lo, hi + 1, size=2)
    cy = rng.integers(ry, size - ry + 1)
    cx = rng.integers(rx, size - rx + 1)
    if kind == "rectangle":
        return (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= rx)
    return ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0


def scenes_o(seed, n_images, size, num_categories):
    """(images, labels) of gen_synthetic_dataset, painted the whole-image
    way: every shape's mask and texture cover the full grid, and the
    pixels are set through the boolean mask, with the same draws in the
    same order (background phase; each shape's draws, then its phase;
    the noise)."""
    rng = np.random.default_rng(seed)
    images = np.empty((n_images, 3, size, size))
    labels = np.zeros((n_images, size, size), dtype=np.uint8)
    for n in range(n_images):
        image = np.empty((3, size, size))
        bg = _texture_o(size, 0, rng.uniform(0.0, 2.0 * np.pi))
        for c, value in enumerate(BACKGROUND_COLOR):
            image[c] = value + bg
        for index in range(1, num_categories):
            mask = _shape_mask_o(SHAPE_KINDS[(index - 1) % len(SHAPE_KINDS)], size, rng)
            tex = _texture_o(size, index, rng.uniform(0.0, 2.0 * np.pi))
            color = category_color(index, num_categories)
            for c in range(3):
                image[c][mask] = color[c] + tex[mask]
            labels[n][mask] = index
        image += rng.normal(0.0, NOISE_SIGMA, image.shape)
        images[n] = np.clip(image, 0.0, 1.0)
    return images, labels
