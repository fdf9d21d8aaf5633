"""Config file parsing, precedence, validation, serialization round trip."""

from hypothesis import given, settings, strategies as st
import pytest

import cftseg.config as CF
from cftseg.errors import ConfigError
from cftseg.losses import MASK_LOSS_MODES


def test_defaults_are_valid_and_desk_sized():
    cfg = CF.TrainConfig()
    assert cfg.baselr == 6e-5
    assert cfg.crop_size == 64
    assert cfg.variant == "cft"
    assert cfg.mask_loss_mode == "cumulative"
    assert cfg.backbone_channels == (8, 16, 32, 64)


def test_parse_key_value_lines_with_comments():
    text = """
    # training schedule
    baselr = 0.002
    total_iters = 50   # short run
    backbone_channels = 4,8,16,32

    variant = avgpool
    """
    pairs = CF.parse_config_text(text)
    assert pairs["baselr"] == "0.002"
    assert pairs["total_iters"] == "50"
    assert pairs["variant"] == "avgpool"


def test_load_config_applies_file_then_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("baselr = 0.002\nseed = 3\nvariant = naive\n")
    cfg = CF.load_config(path, overrides={"seed": "9"})
    assert cfg.baselr == 0.002
    assert cfg.seed == 9          # override wins
    assert cfg.variant == "naive"  # file wins over default
    assert cfg.total_iters == 500  # untouched default


def test_tuple_field_coercion(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("backbone_channels = 4, 8, 16, 32\n")
    cfg = CF.load_config(path)
    assert cfg.backbone_channels == (4, 8, 16, 32)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("warp_speed = 9\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        CF.load_config(path)
    with pytest.raises(ConfigError):
        CF.load_config(None, overrides={"warp_speed": "9"})


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        CF.parse_config_text("baselr 0.002")


def test_duplicate_key_rejected_with_its_line():
    with pytest.raises(ConfigError, match="line 3: config key 'seed' is set twice"):
        CF.parse_config_text("seed = 1\nbaselr = 0.002\nseed = 2\n")


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("total_iters = soon\n")
    with pytest.raises(ConfigError, match="bad value"):
        CF.load_config(path)


@pytest.mark.parametrize("overrides", [
    {"baselr": "0"},
    {"total_iters": "0"},
    {"crop_size": "48"},
    {"variant": "fancy"},
    {"mask_loss_mode": "sometimes"},
    {"flip_prob": "1.5"},
    {"batch_size": "0"},
    {"weight_decay": "-0.1"},
    {"baselr": "nan"},
    {"baselr": "inf"},
    {"weight_decay": "nan"},
    {"weight_decay": "inf"},
    {"power": "nan"},
    {"power": "inf"},
    {"power": "-1"},
    {"num_heads": "3"},
    {"num_heads": "0"},
    {"embed_channels": "0"},
    {"ffn_ratio": "0"},
    {"backbone_channels": "8,16,32"},
    {"backbone_channels": "8,0,32,64"},
    {"num_categories": "1"},
    {"num_categories": "256"},
    {"seed": "-1"},
])
def test_invariant_violations_raise(overrides):
    with pytest.raises(ConfigError):
        CF.load_config(None, overrides=overrides)


def test_serialization_round_trip():
    cfg = CF.TrainConfig(baselr=3e-3, seed=7, variant="b",
                         backbone_channels=(4, 8, 16, 32))
    text = CF.config_to_text(cfg)
    back = CF.load_config(None, overrides=CF.parse_config_text(text))
    assert back == cfg


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def train_configs(draw):
    heads = draw(st.integers(1, 8))
    return CF.TrainConfig(
        baselr=draw(st.floats(min_value=0.0, exclude_min=True, **finite)),
        power=draw(st.floats(min_value=0.0, **finite)),
        total_iters=draw(st.integers(1, 10 ** 6)),
        batch_size=draw(st.integers(1, 64)),
        weight_decay=draw(st.floats(min_value=0.0, **finite)),
        seed=draw(st.integers(0, 2 ** 63 - 1)),
        crop_size=32 * draw(st.integers(1, 16)),
        variant=draw(st.sampled_from(CF.VARIANT_CHOICES)),
        mask_loss_mode=draw(st.sampled_from(MASK_LOSS_MODES)),
        num_categories=draw(st.integers(2, 255)),
        embed_channels=heads * draw(st.integers(1, 16)),
        num_heads=heads,
        ffn_ratio=draw(st.integers(1, 8)),
        backbone_channels=tuple(draw(st.lists(st.integers(1, 512),
                                              min_size=4, max_size=4))),
        n_images=draw(st.integers(1, 1000)),
        flip_prob=draw(st.floats(0.0, 1.0)),
        checkpoint_every=draw(st.integers(0, 1000)),
        log_every=draw(st.integers(1, 1000)))


@settings(max_examples=100)
@given(train_configs())
def test_text_round_trip_reproduces_any_valid_config(cfg):
    text = CF.config_to_text(cfg)
    assert CF.load_config(None, overrides=CF.parse_config_text(text)) == cfg
    cfg.model_config()  # the drawn dimensions also build a model config


def test_model_config_projection():
    cfg = CF.TrainConfig(embed_channels=16, num_heads=2)
    mc = cfg.model_config()
    assert mc.embed_channels == 16
    assert mc.num_heads == 2
    assert mc.num_categories == cfg.num_categories
