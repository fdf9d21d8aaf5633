"""Pipeline wiring: backbone shapes, aggregation, decode head, determinism."""

import tracemalloc

import numpy as np
import pytest

from cftseg import Tensor, backward, finite_diff_grad
from cftseg.config import VARIANT_CHOICES
from cftseg.errors import ConfigError
import cftseg.blocks as B
import cftseg.functional as F
import cftseg.losses as L
import cftseg.model as M
import cftseg.tensor as T
from scalar import dot


def small_config(**kw):
    base = dict(num_categories=4, embed_channels=8, num_heads=2, ffn_ratio=2,
                backbone_channels=(4, 6, 8, 10))
    base.update(kw)
    return M.ModelConfig(**base)


def test_backbone_produces_power_of_two_pyramid():
    model = M.SegModel(small_config(), rng=np.random.default_rng(0))
    images = Tensor(np.random.default_rng(1).standard_normal((2, 3, 64, 32)))
    pyr = M.toy_backbone(images, model.backbone)
    sizes = [f.shape for f in pyr]
    assert sizes == [(2, 4, 16, 8), (2, 6, 8, 4), (2, 8, 4, 2), (2, 10, 2, 1)]


def test_backbone_rejects_indivisible_input():
    model = M.SegModel(small_config(), rng=np.random.default_rng(0))
    with pytest.raises(ConfigError):
        M.toy_backbone(Tensor(np.zeros((1, 3, 48, 64))), model.backbone)


def test_backbone_zero_input_zero_bias_gives_zero_pyramid():
    model = M.SegModel(small_config(), rng=np.random.default_rng(2))
    pyr = M.toy_backbone(Tensor(np.zeros((1, 3, 32, 32))), model.backbone)
    for stage in pyr:
        np.testing.assert_array_equal(stage.data, 0.0)


def test_lateral_projection_matches_per_stage_matmul():
    model = M.SegModel(small_config(), rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    images = Tensor(rng.standard_normal((1, 3, 32, 32)))
    pyr = M.toy_backbone(images, model.backbone)
    lats = M.lateral_project(pyr, model.laterals)
    for stage, lat, lp in zip(pyr, lats, model.laterals):
        c_in = stage.shape[1]
        flat = stage.data[0].reshape(c_in, -1)
        want = (lp.w.data @ flat + lp.b.data[:, None]).reshape(lat.data[0].shape)
        np.testing.assert_allclose(lat.data[0], want, atol=1e-12)
        assert lat.shape[1] == 8


def test_top_down_identity_context_passes_top_stage_through():
    model = M.SegModel(small_config(), rng=np.random.default_rng(5))
    rng = np.random.default_rng(6)
    lats = [Tensor(rng.standard_normal((1, 8, 2 ** (4 - k), 2 ** (4 - k))))
            for k in range(4)]
    feats, masks = M.top_down_aggregate(lats, model.blocks, "cft")
    assert feats[3] is lats[3]
    for m, lat in zip(masks, (lats[3], lats[2], lats[1]), strict=True):
        assert m.shape == (1, 4, *lat.shape[2:])


def test_top_down_fresh_blocks_return_laterals_unchanged():
    # zero-initialized residual paths make every block the identity
    model = M.SegModel(small_config(), rng=np.random.default_rng(7))
    rng = np.random.default_rng(8)
    lats = [Tensor(rng.standard_normal((2, 8, 2 ** (4 - k), 2 ** (4 - k))))
            for k in range(4)]
    feats, _ = M.top_down_aggregate(lats, model.blocks, "cft")
    for f, lat in zip(feats, lats):
        np.testing.assert_array_equal(f.data, lat.data)


def test_top_down_variant_none_is_passthrough():
    rng = np.random.default_rng(9)
    lats = [Tensor(rng.standard_normal((1, 8, 4, 4))) for _ in range(4)]
    feats, masks = M.top_down_aggregate(lats, [], "none")
    assert masks == []
    for f, lat in zip(feats, lats):
        assert f is lat


def test_decode_head_is_resize_concat_classify():
    rng = np.random.default_rng(12)
    feats = [Tensor(rng.standard_normal((1, 4, 2 ** (3 - k), 2 ** (3 - k))))
             for k in range(4)]
    cls = M._uniform_linear(rng, 5, 16)
    logits = M.decode_head(feats, cls, 32, 32)
    assert logits.shape == (1, 5, 32, 32)
    aligned = [feats[0].data] + [F.bilinear_resize(f, 8, 8).data for f in feats[1:]]
    stacked = np.concatenate(aligned, axis=1)
    coarse = np.einsum("oc,bchw->bohw", cls.w.data, stacked) + cls.b.data[None, :, None, None]
    want = F.bilinear_resize(Tensor(coarse), 32, 32).data
    np.testing.assert_allclose(logits.data, want, atol=1e-10)


def test_decode_head_gradients_by_finite_differences():
    # stages of 8, 4, 2 and 1 px: the coarsest resize spreads a single pixel
    rng = np.random.default_rng(19)
    c = 3
    feats = [Tensor(rng.standard_normal((2, c, 8 >> k, 8 >> k)), requires_grad=True)
             for k in range(4)]
    cls = M._uniform_linear(rng, 2, 4 * c)
    proj = Tensor(rng.standard_normal((2, 2, 16, 16)))

    def loss_fn(_=None):
        return dot(M.decode_head(feats, cls, 16, 16), proj)

    grads = backward(loss_fn())
    gw, numeric_w = grads[cls.w], finite_diff_grad(loss_fn, cls.w)
    for k in range(4):
        block = slice(k * c, (k + 1) * c)
        np.testing.assert_allclose(gw[:, block], numeric_w[:, block], atol=1e-8)
    for p in (cls.b, *feats):
        np.testing.assert_allclose(grads[p], finite_diff_grad(loss_fn, p), atol=1e-8)


def test_decode_head_peak_memory_stays_below_one_fine_stage_map():
    # classified per stage, only L-channel maps are resized; resizing C-channel
    # stages to the finest grid and concatenating them holds over 7 such maps
    rng = np.random.default_rng(20)
    feats = [Tensor(rng.standard_normal((2, 32, 16 >> k, 16 >> k))) for k in range(4)]
    cls = M._uniform_linear(rng, 2, 4 * 32)
    with T.no_grad():
        tracemalloc.start()
        try:
            logits = M.decode_head(feats, cls, 32, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert logits.data.nbytes <= peak <= feats[0].data.nbytes


def test_decode_head_never_writes_into_its_inputs():
    rng = np.random.default_rng(21)
    feats = [Tensor(rng.standard_normal((1, 2, 4 >> k, 4 >> k)), requires_grad=True)
             for k in range(3)] + [Tensor(rng.standard_normal((1, 2, 1, 1)), requires_grad=True)]
    cls = M._uniform_linear(rng, 3, 8)
    for t in (*feats, cls.w, cls.b):
        t.data.flags.writeable = False
    with T.no_grad():
        plain = M.decode_head(feats, cls, 8, 8)
    logits = M.decode_head(feats, cls, 8, 8)
    assert plain.data.tobytes() == logits.data.tobytes()
    grads = backward(dot(logits, rng.standard_normal(logits.shape)))
    assert set(grads) == {*feats, cls.w, cls.b}


@pytest.mark.parametrize("variant", ["cft", "naive", "avgpool", "a", "b", "c", "none"])
def test_forward_shapes_for_every_variant(variant):
    model = M.SegModel(small_config(), variant=variant,
                       rng=np.random.default_rng(13))
    images = Tensor(np.random.default_rng(14).standard_normal((2, 3, 32, 32)))
    logits, masks = model(images)
    assert logits.shape == (2, 4, 32, 32)
    if variant == "cft":
        assert [m.shape for m in masks] == [(2, 4, 1, 1), (2, 4, 2, 2), (2, 4, 4, 4)]
    else:
        assert masks == []


def test_forward_is_deterministic():
    model = M.SegModel(small_config(), rng=np.random.default_rng(15))
    images = Tensor(np.random.default_rng(16).standard_normal((1, 3, 32, 32)))
    a, _ = model(images)
    b, _ = model(images)
    np.testing.assert_array_equal(a.data, b.data)


def test_same_seed_gives_identical_models():
    cfg = small_config()
    m1 = M.SegModel(cfg, rng=np.random.default_rng(17))
    m2 = M.SegModel(cfg, rng=np.random.default_rng(17))
    p1, p2 = m1.named_parameters(), m2.named_parameters()
    assert list(p1) == list(p2)
    for name in p1:
        np.testing.assert_array_equal(p1[name].data, p2[name].data)


def test_parameter_names_are_pinned():
    # names key checkpoints and optimizer state; their order fixes the
    # AdamW update order and the gradient audit's coordinate draws
    linears = ("phi_mask", "phi_feat", "w_q", "w_k", "w_v", "w_o",
               "ffn_expand", "ffn_project")
    block = ([f"{n}.{p}" for n in linears for p in ("w", "b")]
             + ["ffn_dw.w", "ffn_dw.b"]
             + [f"{n}.{p}" for n in ("norm_embed", "norm_query", "norm_ffn")
                for p in ("gamma", "beta")])
    keys = list(M.SegModel(small_config()).named_parameters())
    assert keys[:24] == ([f"backbone.s{k}.{p}" for k in range(1, 5)
                          for p in ("conv.w", "conv.b", "dw.w", "dw.b")]
                         + [f"lateral.s{k}.{p}" for k in range(1, 5) for p in ("w", "b")])
    assert keys[24:48] == [f"block.s3.{n}" for n in block]
    assert keys[48:96] == [f"block.s{k}.{n}" for k in (2, 1) for n in block]
    assert keys[96:] == ["decode.cls.w", "decode.cls.b"]
    counts = {v: len(M.SegModel(small_config(), variant=v).named_parameters())
              for v in B.VARIANTS + ("none",)}
    assert counts == {"cft": 98, "naive": 86, "avgpool": 86, "a": 86, "b": 86,
                      "c": 86, "none": 26}


@pytest.mark.parametrize("variant", B.VARIANTS + ("none",))
def test_no_grad_forward_equals_the_recorded_forward_bit_for_bit(variant):
    model = M.SegModel(small_config(), variant=variant, rng=np.random.default_rng(5),
                       zero_residual_paths=False)
    images = Tensor(np.random.default_rng(6).standard_normal((2, 3, 64, 64)))
    logits, masks = model(images)
    with T.no_grad():
        plain_logits, plain_masks = model(images)
    assert logits.op is not None and plain_logits.op is None
    assert len(plain_masks) == len(masks) == (3 if variant == "cft" else 0)
    for plain, recorded in zip([plain_logits, *plain_masks], [logits, *masks]):
        assert plain.data.tobytes() == recorded.data.tobytes()


@pytest.mark.parametrize("variant", B.VARIANTS + ("none",))
def test_an_image_gets_the_same_bits_alone_and_in_a_batch(variant):
    # evaluate sizes its forwards by pixel count; its report may not depend
    # on which images share a forward
    model = M.SegModel(small_config(), variant=variant, rng=np.random.default_rng(7),
                       zero_residual_paths=False)
    images = np.random.default_rng(8).standard_normal((3, 3, 64, 64))
    with T.no_grad():
        logits, masks = model(Tensor(images))
        for b in range(len(images)):
            alone_logits, alone_masks = model(Tensor(images[b:b + 1]))
            assert len(alone_masks) == len(masks) == (3 if variant == "cft" else 0)
            for alone, batched in zip([alone_logits, *alone_masks], [logits, *masks]):
                assert alone.data[0].tobytes() == batched.data[b].tobytes()


def test_category_param_surplus_is_exactly_the_phi_heads():
    cfg = small_config()
    full = M.SegModel(cfg, variant="cft", rng=np.random.default_rng(18))
    naive = M.SegModel(cfg, variant="naive", rng=np.random.default_rng(18))
    none = M.SegModel(cfg, variant="none", rng=np.random.default_rng(18))
    c, l = cfg.embed_channels, cfg.num_categories
    full_n, naive_n, none_n = (sum(t.size for t in m.named_parameters().values())
                               for m in (full, naive, none))
    phi_per_block = (l * c + l) + (c * c + c)
    assert full_n - naive_n == 3 * phi_per_block
    block_params = sum(t.size for t in B.named_tensors(full.blocks[0], "x").values())
    assert full_n - none_n == 3 * block_params


def test_config_validation():
    with pytest.raises(ConfigError):
        M.ModelConfig(num_categories=1)
    with pytest.raises(ConfigError):
        M.ModelConfig(num_categories=4, embed_channels=10, num_heads=4)
    with pytest.raises(ConfigError):
        M.ModelConfig(num_categories=4, backbone_channels=(8, 16))
    for bad in ({"num_heads": 0}, {"embed_channels": 0}, {"ffn_ratio": 0},
                {"backbone_channels": (8, 0, 32, 64)}, {"num_heads": -1}):
        with pytest.raises(ConfigError):
            M.ModelConfig(num_categories=4, **bad)
    with pytest.raises(ConfigError):
        M.SegModel(small_config(), variant="bogus")


def test_category_count_stays_clear_of_the_ignore_label():
    # category 255 would be dropped from every loss term and the metrics
    assert M.ModelConfig(num_categories=255).num_categories == 255
    with pytest.raises(ConfigError, match="255"):
        M.ModelConfig(num_categories=256)


def test_gradients_flow_to_every_parameter_after_warmup():
    # one optimizer step on w_o/projection zeros would unblock them; emulate
    # by randomizing the residual paths and checking every grad is nonzero.
    # 64px input keeps the top stage at 2x2: a 1x1 top stage makes all
    # category embeddings equal, attention exactly uniform, and the query
    # path's gradient identically zero.
    model = M.SegModel(small_config(), rng=np.random.default_rng(19),
                       zero_residual_paths=False)
    images = Tensor(np.random.default_rng(20).standard_normal((1, 3, 64, 64)))
    logits, masks = model(images)
    loss = dot(logits, logits) * (1.0 / logits.size)
    for m in masks:
        loss = loss + dot(m, m) * (1.0 / m.size)
    grads = T.backward(loss, leaves=list(model.named_parameters().values()))
    dead = [name for name, t in model.named_parameters().items()
            if not np.abs(grads[t]).max() > 0]
    assert not dead, dead


@pytest.mark.parametrize("mask_mode", L.MASK_LOSS_MODES)
@pytest.mark.parametrize("variant", VARIANT_CHOICES)
def test_every_rule_returns_one_gradient_per_input(variant, mask_mode):
    # the gradient contract: a rule returns every input's gradient, and
    # only the sweep drops those of inputs that need none (the images, the
    # backbone's fixed standardization, the decode head's zero bias)
    model = M.SegModel(small_config(), variant=variant, rng=np.random.default_rng(21))
    rng = np.random.default_rng(22)
    images = Tensor(rng.standard_normal((2, 3, 32, 32)))
    logits, masks = model(images)
    loss = L.total_loss(logits, masks, rng.integers(0, 4, size=(2, 32, 32)),
                        mask_mode=mask_mode).total
    tape = T.trace(loss)
    for t in tape:
        grads = t.op.backward(np.ones(t.shape))
        assert len(grads) == len(t.op.inputs), t.op
        for inp, g in zip(t.op.inputs, grads):
            # a 0-d rule may give a numpy scalar, which has a shape too
            assert g is not None and np.shape(g) == inp.shape, t.op
    constants = [inp for t in tape for inp in t.op.inputs if not inp.requires_grad]
    assert constants
    grads = T.backward(loss)
    assert images not in grads
    assert not any(c in grads for c in constants)
    assert set(grads) == set(model.named_parameters().values())
