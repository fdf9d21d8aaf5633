"""FLOPs counter: definitions, additivity, orderings, executed-op oracle."""

import numpy as np
import pytest

from cftseg.config import VARIANT_CHOICES
from cftseg.errors import ConfigError
import cftseg.flops as FL
from cftseg.model import ModelConfig, SegModel
from cftseg.tensor import Tensor, trace


def param_count(model: SegModel) -> int:
    return sum(t.size for t in model.named_parameters().values())


def desk_config():
    return ModelConfig(num_categories=4, embed_channels=32, num_heads=4,
                       ffn_ratio=4, backbone_channels=(8, 16, 32, 64))


def test_primitive_definitions():
    assert FL.conv1x1_flops(8, 4, 4, 16) == 4 * 4 * 8 * 16
    assert FL.depthwise3x3_flops(8, 4, 4) == 8 * 16 * 9
    assert FL.attention_flops(10, 4, 32) == 2 * 10 * 4 * 32


def test_totals_are_sums_of_parts():
    rep = FL.count_flops(desk_config(), (64, 64), "cft")
    assert rep.total_flops == sum(rep.flops.values())
    assert rep.total_params == sum(rep.params.values())
    assert rep.aggregation_flops == sum(
        rep.flops[f"aggregate.s{i}"] for i in (1, 2, 3))


def test_backbone_stage_hand_count():
    rep = FL.count_flops(desk_config(), (64, 64), "none")
    # stage 1: 16x16 grid, 3 -> 8 channels, conv1x1 + depthwise3x3
    assert rep.flops["backbone.s1"] == 16 * 16 * 3 * 8 + 16 * 16 * 8 * 9
    assert rep.params["backbone.s1"] == 3 * 8 + 8 + 9 * 8 + 8
    assert rep.flops["aggregate.s1"] == 0
    # every stage classified at its own size: 16, 8, 4 and 2 px grids
    assert rep.flops["decode"] == (16 * 16 + 8 * 8 + 4 * 4 + 2 * 2) * 32 * 4


def test_cft_block_hand_count():
    cfg = desk_config()
    rep = FL.count_flops(cfg, (64, 64), "cft")
    c, l, ratio = 32, 4, 4
    n_lo, n_hi = 8 * 8, 4 * 4  # aggregate.s2 pairs stages 3 and 2
    ch = c * ratio
    want = (n_hi * c * l + n_hi * c * c + l * n_hi * c      # embedding
            + n_lo * c * c + 2 * l * c * c                  # q, k, v
            + 2 * n_lo * l * c + n_lo * c * c               # attention + out
            + n_lo * c * ch + n_lo * ch * 9 + n_lo * ch * c)  # ffn
    assert rep.flops["aggregate.s2"] == want


def test_param_counts_match_the_built_model():
    cfg = desk_config()
    for variant in ("cft", "naive", "avgpool", "a", "b", "c", "none"):
        rep = FL.count_flops(cfg, (64, 64), variant)
        model = SegModel(cfg, variant=variant, rng=np.random.default_rng(0))
        assert rep.variant == variant
        assert rep.total_params == param_count(model), variant


def test_default_input_ordering_naive_above_avgpool_above_cft():
    cfg = desk_config()
    naive = FL.count_flops(cfg, variant="naive").total_flops
    avgpool = FL.count_flops(cfg, variant="avgpool").total_flops
    cft = FL.count_flops(cfg, variant="cft").total_flops
    assert naive > avgpool >= cft


def test_naive_to_cft_aggregation_ratio_grows_with_resolution():
    cfg = desk_config()
    ratios = []
    for hw in ((64, 64), (128, 128), (256, 256)):
        naive = FL.count_flops(cfg, hw, "naive").aggregation_flops
        cft = FL.count_flops(cfg, hw, "cft").aggregation_flops
        ratios.append(naive / cft)
    assert ratios[0] < ratios[1] < ratios[2]


def _executed_flops(model: SegModel, size: int) -> int:
    """Multiply-adds of the matmul-shaped ops one grad-enabled forward records."""
    images = Tensor(np.random.default_rng(0).standard_normal((1, 3, size, size)))
    logits, _ = model(images)
    total = 0
    for t in trace(logits):
        rec, x = t.op, t.op.inputs[0]
        if rec.op in ("conv1x1", "linear"):
            total += x.size * rec.inputs[1].shape[0]
        elif rec.op == "depthwise_conv3x3":
            total += x.size * 9
        elif rec.op == "bmm":
            # output size x contracted length; `a` holds G * m * k values
            g, m, _ = t.shape
            total += t.size * (x.size // (g * m))
        elif rec.op == "attention":
            # scores and value mix: M multiply-adds per query channel each
            total += 2 * x.size * rec.inputs[1].shape[2]
    return total


def test_counts_equal_the_executed_ops():
    cfg = desk_config()
    for size in (64, 128, 256):
        base = _executed_flops(SegModel(cfg, variant="none"), size)
        for variant in VARIANT_CHOICES:
            model = SegModel(cfg, variant=variant)
            rep = FL.count_flops(cfg, (size, size), variant)
            executed = _executed_flops(model, size)
            assert executed == rep.total_flops, (variant, size)
            assert executed - base == rep.aggregation_flops, (variant, size)
            assert rep.total_params == param_count(model), (variant, size)


def test_input_validation():
    with pytest.raises(ConfigError):
        FL.count_flops(desk_config(), (48, 64), "cft")
    with pytest.raises(ConfigError):
        FL.count_flops(desk_config(), (64, 64), "bogus")


def test_report_as_dict_is_json_friendly():
    rep = FL.count_flops(desk_config(), (64, 64), "cft")
    d = rep.as_dict()
    assert d["total_flops"] == rep.total_flops
    assert set(d["flops"]) == set(d["params"])
