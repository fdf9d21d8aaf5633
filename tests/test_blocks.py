"""Fusion blocks against composed loop oracles and their stated identities."""

import numpy as np
import pytest

from cftseg import Tensor, backward
import cftseg.tensor as T
from cftseg.tensor import trace
from cftseg.errors import ConfigError
import cftseg.blocks as B
import cftseg.functional as F

import oracles
from scalar import dot


def make_params(channels=8, num_categories=3, heads=2, ffn_ratio=2, seed=0,
                zero_residual_paths=False, with_category=True):
    rng = np.random.default_rng(seed)
    return B.CftBlockParams.create(channels, num_categories, heads, ffn_ratio,
                                   rng, with_category=with_category,
                                   zero_residual_paths=zero_residual_paths)


def rand_map(rng, b, c, h, w):
    return Tensor(rng.standard_normal((b, c, h, w)))


def fuse(variant, f_high, x_low, params, pool_hw=(2, 2)):
    return B.apply_variant(variant, f_high, x_low, params, stage=2, kv_pool_hw=pool_hw)


def attend(q, k, v, params):
    """Attention of one sample's (N, C) query, key and value arrays; the
    queries go in as a (1, C, N, 1) map and come back as (N, C) rows."""
    return B._attend(Tensor(q.T[None, :, :, None]), Tensor(k[None]), Tensor(v[None]),
                     params.w_o, params.heads).data[0, :, :, 0].T


# --------------------------------------------------------------------------
# category feature embedding


def test_mask_weights_sum_to_one_per_category():
    rng = np.random.default_rng(0)
    params = make_params()
    f = rand_map(rng, 2, 8, 4, 5)
    emb, masks = B.category_feature_embedding(f, params)
    weights = F.softmax(T.reshape(masks, (2, 3, 20)), axis=2).data
    np.testing.assert_allclose(weights.sum(axis=2), 1.0, atol=1e-6)


def test_embedding_matches_weighted_average_oracle():
    rng = np.random.default_rng(1)
    params = make_params(seed=11)
    f = rand_map(rng, 2, 8, 3, 4)
    emb, masks = B.category_feature_embedding(f, params)
    for n in range(2):
        want_emb, want_masks = oracles.embedding_o(f.data[n], params)
        np.testing.assert_allclose(emb.data[n], want_emb, atol=1e-10)
        np.testing.assert_allclose(masks.data[n], want_masks, atol=1e-10)


def test_zero_mask_head_gives_spatial_mean_embedding():
    rng = np.random.default_rng(2)
    params = make_params(seed=12)
    params.phi_mask.w.data[...] = 0.0
    f = rand_map(rng, 1, 8, 4, 4)
    emb, _ = B.category_feature_embedding(f, params)
    normed = F.layer_norm(f, params.norm_embed.gamma, params.norm_embed.beta)
    projected = F.conv1x1(normed, params.phi_feat.w, params.phi_feat.b)
    mean_feat = projected.data[0].reshape(8, -1).mean(axis=1)
    for l in range(3):
        np.testing.assert_allclose(emb.data[0, l], mean_feat, atol=1e-12)


def test_embedding_rows_stay_inside_projected_feature_hull():
    rng = np.random.default_rng(3)
    params = make_params(seed=13)
    f = rand_map(rng, 2, 8, 5, 5)
    emb, _ = B.category_feature_embedding(f, params)
    normed = F.layer_norm(f, params.norm_embed.gamma, params.norm_embed.beta)
    projected = F.conv1x1(normed, params.phi_feat.w, params.phi_feat.b).data
    flat = projected.reshape(2, 8, -1)
    lo = flat.min(axis=2) - 1e-12
    hi = flat.max(axis=2) + 1e-12
    for n in range(2):
        for l in range(3):
            assert np.all(emb.data[n, l] >= lo[n])
            assert np.all(emb.data[n, l] <= hi[n])


def test_embedding_invariant_under_spatial_permutation():
    rng = np.random.default_rng(4)
    params = make_params(seed=14)
    f = rng.standard_normal((1, 8, 4, 6))
    perm = rng.permutation(24)
    f_perm = f.reshape(1, 8, 24)[:, :, perm].reshape(1, 8, 4, 6)
    emb_a, _ = B.category_feature_embedding(Tensor(f), params)
    emb_b, _ = B.category_feature_embedding(Tensor(f_perm), params)
    np.testing.assert_allclose(emb_a.data, emb_b.data, atol=1e-9)


def test_embedding_token_count_is_category_count():
    rng = np.random.default_rng(5)
    params = make_params(num_categories=3)
    for h, w in ((2, 2), (6, 7), (9, 3)):
        emb, masks = B.category_feature_embedding(rand_map(rng, 1, 8, h, w), params)
        assert emb.shape == (1, 3, 8)
        assert masks.shape == (1, 3, h, w)


def test_embedding_requires_category_heads():
    params = make_params(with_category=False)
    with pytest.raises(ConfigError):
        B.category_feature_embedding(Tensor(np.zeros((1, 8, 2, 2))), params)


# --------------------------------------------------------------------------
# multi-head attention


def test_single_head_identity_projection_is_classic_attention():
    rng = np.random.default_rng(6)
    params = make_params(heads=1, seed=15)
    params.w_o.w.data[...] = np.eye(8)
    params.w_o.b.data[...] = 0.0
    q = rng.standard_normal((5, 8))
    k = rng.standard_normal((3, 8))
    v = rng.standard_normal((3, 8))
    got = attend(q, k, v, params)
    scores = q @ k.T / np.sqrt(8.0)
    w = np.exp(scores - scores.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(got, w @ v, atol=1e-12)


def test_multi_head_equals_per_head_slices_concatenated():
    rng = np.random.default_rng(7)
    params = make_params(channels=8, heads=4, seed=16)
    q = rng.standard_normal((6, 8))
    k = rng.standard_normal((4, 8))
    v = rng.standard_normal((4, 8))
    got = attend(q, k, v, params)
    want = oracles.mha_o(q, k, v, params)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_identical_keys_average_the_values():
    rng = np.random.default_rng(8)
    params = make_params(heads=2, seed=17)
    params.w_o.w.data[...] = np.eye(8)
    params.w_o.b.data[...] = 0.0
    q = rng.standard_normal((4, 8))
    k = np.tile(rng.standard_normal((1, 8)), (5, 1))
    v = rng.standard_normal((5, 8))
    got = attend(q, k, v, params)
    np.testing.assert_allclose(got, np.tile(v.mean(axis=0), (4, 1)), atol=1e-12)


def test_attention_gradients_reach_all_operands():
    rng = np.random.default_rng(9)
    params = make_params(heads=2, seed=18)
    q = Tensor(rng.standard_normal((1, 8, 3, 1)), requires_grad=True)
    k = Tensor(rng.standard_normal((1, 2, 8)), requires_grad=True)
    v = Tensor(rng.standard_normal((1, 2, 8)), requires_grad=True)
    grads = backward(dot(B._attend(q, k, v, params.w_o, params.heads)))
    for t in (q, k, v):
        assert np.abs(grads[t]).max() > 0


def test_head_split_requires_divisibility():
    rng = np.random.default_rng(10)
    with pytest.raises(ConfigError):
        B.CftBlockParams.create(9, 3, 2, 2, rng)


# --------------------------------------------------------------------------
# the full block


def test_fresh_block_is_exact_identity_on_x_low():
    rng = np.random.default_rng(11)
    params = make_params(zero_residual_paths=True, seed=19)
    f_high = rand_map(rng, 2, 8, 2, 3)
    x_low = rand_map(rng, 2, 8, 4, 6)
    out, _ = fuse("cft", f_high, x_low, params)
    np.testing.assert_array_equal(out.data, x_low.data)


def test_attention_is_pointwise_in_queries_before_ffn():
    rng = np.random.default_rng(12)
    params = make_params(seed=20)
    params.ffn_project.w.data[...] = 0.0
    params.ffn_project.b.data[...] = 0.0
    f_high = rand_map(rng, 1, 8, 2, 2)
    x = rng.standard_normal((1, 8, 3, 4))
    base, _ = fuse("cft", f_high, Tensor(x), params)
    bumped = x.copy()
    bumped[0, :, 1, 2] += rng.standard_normal(8)
    out, _ = fuse("cft", f_high, Tensor(bumped), params)
    delta = np.abs(out.data - base.data).max(axis=1)[0]
    changed = delta > 1e-12
    assert changed[1, 2]
    assert changed.sum() == 1


def test_cft_block_matches_composed_oracle():
    rng = np.random.default_rng(13)
    params = make_params(seed=21)
    f_high = rng.standard_normal((2, 8, 3, 3))
    x_low = rng.standard_normal((2, 8, 6, 6))
    out, masks = fuse("cft", Tensor(f_high), Tensor(x_low), params)
    for n in range(2):
        want, want_masks = oracles.cft_block_o(f_high[n], x_low[n], params)
        np.testing.assert_allclose(out.data[n], want, atol=1e-10)
        np.testing.assert_allclose(masks.data[n], want_masks, atol=1e-10)


def test_block_gradients_spot_check():
    rng = np.random.default_rng(14)
    params = make_params(channels=4, num_categories=2, heads=2, seed=22)
    f_high = Tensor(rng.standard_normal((1, 4, 2, 2)))
    x_low = Tensor(rng.standard_normal((1, 4, 3, 3)))
    proj = Tensor(rng.standard_normal((1, 4, 3, 3)))

    def loss_fn():
        out, masks = fuse("cft", f_high, x_low, params)
        return dot(out, proj) + dot(masks, masks) * (1.0 / masks.size)

    from cftseg.gradcheck import check_gradients
    rows = check_gradients(loss_fn, B.named_tensors(params, "blk"),
                           coords_per_tensor=3, seed=1)
    bad = [r for r in rows if not r.passed(1e-4)]
    assert not bad, [(r.name, r.max_rel_error) for r in bad]


# --------------------------------------------------------------------------
# variants


def test_variant_naive_matches_oracle():
    rng = np.random.default_rng(15)
    params = make_params(seed=23, with_category=False)
    f_high = rng.standard_normal((2, 8, 3, 3))
    x_low = rng.standard_normal((2, 8, 6, 6))
    out, _ = fuse("naive", Tensor(f_high), Tensor(x_low), params)
    for n in range(2):
        np.testing.assert_allclose(out.data[n],
                                   oracles.variant_naive_o(f_high[n], x_low[n], params),
                                   atol=1e-10)


def test_variant_naive_single_source_pixel_equals_one_category_path():
    # with one key token and an identity feature head, the category path
    # degenerates to exactly the naive wiring
    rng = np.random.default_rng(16)
    params = make_params(num_categories=1, seed=24)
    params.phi_feat.w.data[...] = np.eye(8)
    params.phi_feat.b.data[...] = 0.0
    f_high = rand_map(rng, 1, 8, 1, 1)
    x_low = rand_map(rng, 1, 8, 3, 3)
    via_naive, _ = fuse("naive", f_high, x_low, params)
    via_category, _ = fuse("cft", f_high, x_low, params)
    np.testing.assert_allclose(via_naive.data, via_category.data, atol=1e-12)


@pytest.mark.parametrize("pool_hw", [(2, 2), (1, 3)])
def test_variant_avgpool_matches_oracle(pool_hw):
    rng = np.random.default_rng(17)
    params = make_params(seed=25, with_category=False)
    f_high = rng.standard_normal((1, 8, 3, 3))
    x_low = rng.standard_normal((1, 8, 6, 6))
    out, _ = fuse("avgpool", Tensor(f_high), Tensor(x_low), params, pool_hw)
    np.testing.assert_allclose(out.data[0],
                               oracles.variant_avgpool_o(f_high[0], x_low[0], params, pool_hw),
                               atol=1e-10)


def test_variant_avgpool_full_size_pool_equals_naive():
    rng = np.random.default_rng(18)
    params = make_params(seed=26, with_category=False)
    f_high = rand_map(rng, 2, 8, 3, 4)
    x_low = rand_map(rng, 2, 8, 6, 8)
    pooled, _ = fuse("avgpool", f_high, x_low, params, (3, 4))
    naive, _ = fuse("naive", f_high, x_low, params)
    np.testing.assert_allclose(pooled.data, naive.data, atol=1e-12)


def test_variant_a_zero_paths_is_plain_upsample_add():
    rng = np.random.default_rng(19)
    params = make_params(zero_residual_paths=True, seed=27, with_category=False)
    f_high = rand_map(rng, 1, 8, 2, 2)
    x_low = rand_map(rng, 1, 8, 4, 4)
    out, _ = fuse("a", f_high, x_low, params)
    want = F.bilinear_resize(f_high, 4, 4).data + x_low.data
    np.testing.assert_array_equal(out.data, want)


@pytest.mark.parametrize("variant,oracle", [
    ("a", oracles.variant_a_o),
    ("b", oracles.variant_b_o),
    ("c", oracles.variant_c_o),
])
def test_structure_variants_match_oracles(variant, oracle):
    rng = np.random.default_rng(20)
    params = make_params(seed=28, with_category=False)
    f_high = rng.standard_normal((2, 8, 3, 3))
    x_low = rng.standard_normal((2, 8, 6, 6))
    out, masks = fuse(variant, Tensor(f_high), Tensor(x_low), params)
    assert masks is None
    for n in range(2):
        np.testing.assert_allclose(out.data[n],
                                   oracle(f_high[n], x_low[n], params, (2, 2)),
                                   atol=1e-10)


def test_variant_b_single_pooled_key_broadcasts_one_vector():
    rng = np.random.default_rng(21)
    params = make_params(seed=29, with_category=False)
    params.ffn_project.w.data[...] = 0.0
    params.ffn_project.b.data[...] = 0.0
    f_high = rand_map(rng, 1, 8, 2, 2)
    x_low = rand_map(rng, 1, 8, 4, 4)
    out, _ = fuse("b", f_high, x_low, params, (1, 1))
    up = F.bilinear_resize(f_high, 4, 4).data
    attended = (out.data - up)[0].reshape(8, -1).T
    np.testing.assert_allclose(attended, np.tile(attended[0], (16, 1)), atol=1e-12)


@pytest.mark.parametrize("variant", B.VARIANTS)
def test_pixel_maps_are_never_transposed(variant):
    # only key/value sets become rows; a transpose as large as x_low
    # would mean a pixel map was turned into tokens
    rng = np.random.default_rng(22)
    params = make_params(seed=30, with_category=variant == "cft")
    f_high = Tensor(rng.standard_normal((1, 8, 3, 3)), requires_grad=True)
    x_low = Tensor(rng.standard_normal((1, 8, 6, 6)), requires_grad=True)
    out, _ = fuse(variant, f_high, x_low, params)
    big = [t.shape for t in trace(dot(out))
           if t.op.op == "transpose" and t.size >= x_low.size]
    assert big == []


def test_apply_variant_rejects_unknown_name():
    params = make_params(with_category=False)
    x = Tensor(np.zeros((1, 8, 2, 2)))
    with pytest.raises(ConfigError):
        fuse("fancy", x, x, params)


def test_variant_params_have_no_category_heads():
    params = make_params(with_category=False)
    names = B.named_tensors(params, "blk")
    assert not any("phi" in n for n in names)
    full = B.named_tensors(make_params(with_category=True), "blk")
    assert {"blk.phi_mask.w", "blk.phi_mask.b", "blk.phi_feat.w",
            "blk.phi_feat.b"} <= set(full)
