"""Training loop behavior on miniature runs: logs, determinism, resume."""

import csv
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cftseg.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
import cftseg.config as CF
from cftseg.data import Dataset, gen_synthetic_dataset, model_input
from cftseg.errors import CheckpointError, ConfigError, DivergedError
import cftseg.flops as FL
import cftseg.losses as L
import cftseg.train as TR
from cftseg.tensor import Tensor, backward, no_grad


def tiny_config(**kw):
    base = dict(baselr=1e-3, total_iters=4, batch_size=2, seed=0,
                crop_size=32, num_categories=3, embed_channels=8,
                num_heads=2, ffn_ratio=2, backbone_channels=(4, 6, 8, 10),
                n_images=2)
    base.update(kw)
    return CF.TrainConfig(**base)


def test_train_writes_log_and_checkpoint(tmp_path):
    cfg = tiny_config()
    res = TR.train(cfg, tmp_path)
    assert res.checkpoint_path.exists()
    with res.log_path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(TR.LOG_HEADER)
    assert len(rows) == 1 + cfg.total_iters
    first = dict(zip(rows[0], rows[1]))
    assert float(first["lr"]) == cfg.baselr
    for row in rows[1:]:
        assert all(np.isfinite(float(v)) for v in row[1:])
    ck = load_checkpoint(res.checkpoint_path)
    assert ck.iteration == cfg.total_iters
    assert "param/decode.cls.w" in ck.arrays
    assert "adam_m/decode.cls.w" in ck.arrays


def test_lr_column_follows_poly_schedule(tmp_path):
    cfg = tiny_config(total_iters=5)
    res = TR.train(cfg, tmp_path)
    for row in res.rows:
        want = cfg.baselr * (1 - row["iteration"] / cfg.total_iters)
        np.testing.assert_allclose(row["lr"], want, rtol=1e-15)


def test_two_runs_are_byte_identical(tmp_path):
    cfg = tiny_config()
    a = TR.train(cfg, tmp_path / "a")
    b = TR.train(cfg, tmp_path / "b")
    assert a.log_path.read_bytes() == b.log_path.read_bytes()
    assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()


def test_seed_changes_the_run(tmp_path):
    a = TR.train(tiny_config(seed=0), tmp_path / "a")
    b = TR.train(tiny_config(seed=1), tmp_path / "b")
    assert a.log_path.read_bytes() != b.log_path.read_bytes()


def test_resume_reproduces_the_uninterrupted_run(tmp_path):
    full = TR.train(tiny_config(total_iters=6), tmp_path / "full")
    half_cfg = tiny_config(total_iters=6, checkpoint_every=3)
    TR.train(half_cfg, tmp_path / "half")
    resumed = TR.train(half_cfg, tmp_path / "resumed",
                       resume=tmp_path / "half" / "checkpoint_000003.ckpt")
    a = load_checkpoint(full.checkpoint_path)
    b = load_checkpoint(resumed.checkpoint_path)
    assert a.iteration == b.iteration == 6
    for key in a.arrays:
        if key.startswith("param/"):
            np.testing.assert_array_equal(a.arrays[key], b.arrays[key], err_msg=key)
    # the resumed log continues at the saved iteration
    assert resumed.rows[0]["iteration"] == 3


def test_resume_rejects_mismatched_config(tmp_path):
    TR.train(tiny_config(total_iters=2, checkpoint_every=1), tmp_path)
    with pytest.raises(ConfigError, match="config"):
        TR.train(tiny_config(total_iters=2, baselr=5e-3),
                 tmp_path / "other", resume=tmp_path / "checkpoint_000001.ckpt")


def test_resume_past_the_end_rejected(tmp_path):
    res = TR.train(tiny_config(total_iters=2), tmp_path)
    with pytest.raises(ConfigError, match="total_iters"):
        TR.train(tiny_config(total_iters=2), tmp_path / "again",
                 resume=res.checkpoint_path)


def test_resume_checks_every_array_it_restores(tmp_path):
    cfg = tiny_config(total_iters=4, checkpoint_every=2)
    TR.train(cfg, tmp_path)
    ck = load_checkpoint(tmp_path / "checkpoint_000002.ckpt")
    params_only = save_checkpoint(tmp_path / "params_only.ckpt", Checkpoint(
        iteration=ck.iteration, config_text=ck.config_text,
        arrays={k: v for k, v in ck.arrays.items() if k.startswith("param/")}))
    with pytest.raises(CheckpointError, match="missing adam_m/"):
        TR.train(cfg, tmp_path / "a", resume=params_only)
    del ck.arrays["param/decode.cls.b"]
    no_bias = save_checkpoint(tmp_path / "no_bias.ckpt", ck)
    with pytest.raises(CheckpointError, match="missing param/decode.cls.b"):
        TR.train(cfg, tmp_path / "b", resume=no_bias)


def test_checkpoint_cadence(tmp_path):
    TR.train(tiny_config(total_iters=5, checkpoint_every=2), tmp_path)
    names = sorted(p.name for p in tmp_path.glob("*.ckpt"))
    assert names == ["checkpoint_000002.ckpt", "checkpoint_000004.ckpt",
                     "checkpoint_final.ckpt"]


def test_log_every_thins_rows_but_keeps_final(tmp_path):
    res = TR.train(tiny_config(total_iters=5, log_every=2), tmp_path)
    assert [r["iteration"] for r in res.rows] == [0, 2, 4]


def test_non_finite_loss_aborts_with_diagnostics(tmp_path, monkeypatch):
    cfg = tiny_config()
    real_build = TR.build_model

    def poisoned(config):
        model = real_build(config)
        model.classifier.b.data[0] = np.nan  # every logit of category 0
        return model

    monkeypatch.setattr(TR, "build_model", poisoned)
    with pytest.raises(DivergedError) as err:
        TR.train(cfg, tmp_path)

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    record = json.loads((tmp_path / "diverged.json").read_text(),
                        parse_constant=refuse)
    assert record == err.value.diagnostics
    assert record["iteration"] == 0 and record["reason"] == "non-finite loss"
    assert record["total"] == "nan" and np.isfinite(record["lr"])


def test_non_finite_gradient_names_the_first_parameter(tmp_path, monkeypatch):
    cfg = tiny_config()
    names = list(TR.build_model(cfg).named_parameters())
    real_backward = TR.backward

    def poisoned(loss, leaves):
        grads = real_backward(loss, leaves=leaves)
        for k in (9, 4):  # both poisoned; the earlier one is reported
            grads[leaves[k]].reshape(-1)[-1] = np.nan
        return grads

    monkeypatch.setattr(TR, "backward", poisoned)
    with pytest.raises(DivergedError, match=names[4]) as err:
        TR.train(cfg, tmp_path)
    record = json.loads((tmp_path / "diverged.json").read_text())
    assert record == err.value.diagnostics
    assert record["reason"] == "non-finite gradient"
    assert record["parameter"] == names[4]
    assert record["iteration"] == 0 and np.isfinite(record["total"])
    assert not list(tmp_path.glob("*.ckpt"))


@pytest.mark.parametrize("num_categories", [2, 4])
def test_dataset_category_count_must_match_config(tmp_path, num_categories):
    cfg = tiny_config()
    ds = gen_synthetic_dataset(seed=0, n_images=2, size=32,
                               num_categories=num_categories)
    with pytest.raises(ConfigError, match="num_categories"):
        TR.train(cfg, tmp_path / "run", dataset=ds)
    assert not (tmp_path / "run").exists()


def test_evaluate_roundtrip_and_empty_dataset(tmp_path):
    cfg = tiny_config()
    res = TR.train(cfg, tmp_path)
    ds = TR.default_dataset(cfg)
    report = TR.evaluate(res.checkpoint_path, ds)
    assert 0.0 <= report["miou"] <= 1.0
    assert 0.0 <= report["pixel_accuracy"] <= 1.0
    assert len(report["per_category_iou"]) == cfg.num_categories
    assert 0.0 <= report["mask_agreement"] <= 1.0
    empty = Dataset(images=ds.images[:0], labels=ds.labels[:0],
                    num_categories=ds.num_categories)
    with pytest.raises(ValueError, match="empty"):
        TR.evaluate(res.checkpoint_path, empty)


def test_evaluation_is_stable_across_loads(tmp_path):
    cfg = tiny_config()
    res = TR.train(cfg, tmp_path)
    ds = TR.default_dataset(cfg)
    a = TR.evaluate(res.checkpoint_path, ds)
    b = TR.evaluate(res.checkpoint_path, ds)
    assert a == b


def test_model_from_checkpoint_missing_param(tmp_path):
    res = TR.train(tiny_config(), tmp_path)
    ck = load_checkpoint(res.checkpoint_path)
    del ck.arrays["param/decode.cls.b"]
    with pytest.raises(CheckpointError, match="missing"):
        TR.model_from_checkpoint(ck)


def test_untrained_zero_head_predictions_score_near_chance():
    # fresh classifier weights are uniform-random tiny; logits hover near
    # uniform, so the argmax collapses and mIoU sits near the 1/L scale
    cfg = tiny_config(n_images=4)
    model = TR.build_model(cfg)
    model.classifier.w.data[...] = 0.0
    model.classifier.b.data[...] = 0.0
    ds = TR.default_dataset(cfg)
    report = TR.evaluate(model, ds)
    assert report["miou"] <= 1.5 / cfg.num_categories


def test_mask_agreement_none_for_maskless_variants():
    cfg = tiny_config(variant="naive")
    ds = TR.default_dataset(cfg)
    report = TR.evaluate(TR.build_model(cfg), ds)
    assert report["mask_agreement"] is None
    assert 0.0 <= report["miou"] <= 1.0
    value = TR.evaluate(TR.build_model(tiny_config()), ds)["mask_agreement"]
    assert 0.0 <= value <= 1.0


def test_mask_agreement_scores_only_kept_pixels():
    # one image more than a forward holds: the counts pool over two forwards
    per_forward = TR._EVAL_PIXELS // (32 * 32)
    cfg = tiny_config(n_images=per_forward + 1)
    model = TR.build_model(cfg)
    ds = TR.default_dataset(cfg)
    labels = ds.labels.copy()
    labels[:, :, labels.shape[2] // 2:] = 255
    with no_grad():
        masks = [model(Tensor(model_input(ds.images[b:b + 1])))[1] for b in range(len(ds))]
    matched = scored = 0
    n, size, _ = labels.shape
    for b in range(n):
        for mask in masks[b]:
            h, w = mask.shape[2:]
            for i in range(h):
                for j in range(w):
                    y = labels[b, int((i + 0.5) * size / h), int((j + 0.5) * size / w)]
                    if y != 255:
                        scored += 1
                        matched += int(np.argmax(mask.data[0, :, i, j]) == y)
    half = Dataset(ds.images, labels, ds.num_categories)
    assert TR.evaluate(model, half)["mask_agreement"] == matched / scored
    # with no pixel left to score, the pixel metrics refuse the dataset
    void = Dataset(ds.images, np.full_like(labels, 255), ds.num_categories)
    with pytest.raises(ValueError, match="empty confusion matrix"):
        TR.evaluate(model, void)


def test_evaluate_refuses_nan_logits():
    cfg = tiny_config()
    model = TR.build_model(cfg)
    model.classifier.b.data[1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        TR.evaluate(model, TR.default_dataset(cfg))


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), n_images=st.integers(1, 2),
       num_categories=st.integers(2, 255), ignored=st.floats(0.0, 0.9),
       mask_mode=st.sampled_from(L.MASK_LOSS_MODES))
@example(seed=1, n_images=2, num_categories=2, ignored=0.5, mask_mode="cumulative")
@example(seed=2, n_images=2, num_categories=255, ignored=0.1, mask_mode="final")
def test_label_dtype_moves_no_bit(seed, n_images, num_categories, ignored, mask_mode):
    # a byte map and its int64 copy give the same loss, gradient and
    # report bytes; pixel (0, 0, 0) is labelled 255 and (0, 0, 1) is kept,
    # so every map has both
    rng = np.random.default_rng(seed)
    size = 32
    labels = rng.integers(0, num_categories, size=(n_images, size, size)).astype(np.uint8)
    labels[rng.random(labels.shape) < ignored] = L.IGNORE_INDEX
    labels[0, 0, 0] = L.IGNORE_INDEX
    labels[0, 0, 1] = 0
    leaves = [Tensor(rng.standard_normal((n_images, num_categories, s, s)),
                     requires_grad=True)
              for s in (size, size // 8, size // 4, size // 2)]

    def loss_bytes(map_):
        out = L.total_loss(leaves[0], leaves[1:], map_, mask_mode)
        grads = backward(out.total, leaves=leaves)
        return ([t.data.tobytes() for t in (out.ce, out.dice, out.focal, out.total)]
                + [grads[t].tobytes() for t in leaves])

    wide = labels.astype(np.int64)
    assert loss_bytes(labels) == loss_bytes(wide)
    model = TR.build_model(tiny_config(num_categories=num_categories))
    images = rng.integers(0, 256, size=(n_images, 3, size, size), dtype=np.uint8)
    assert TR.evaluate(model, Dataset(images, labels, num_categories)) == \
        TR.evaluate(model, Dataset(images, wide, num_categories))


def test_run_ablation_rows_and_determinism(tmp_path):
    cfg = tiny_config(total_iters=2)
    rows = TR.run_ablation(cfg, tmp_path / "a", variants=("cft", "none"))
    assert [r["variant"] for r in rows] == ["cft", "none"]
    cft_row, none_row = rows
    assert none_row["mask_agreement"] is None
    assert cft_row["mask_agreement"] is not None
    for row in rows:
        rep = FL.count_flops(CF.TrainConfig(**{**cfg.__dict__,
                                               "variant": row["variant"]}).model_config(),
                             (cfg.crop_size, cfg.crop_size), row["variant"])
        assert row["params"] == rep.total_params
        assert row["flops"] == rep.total_flops
    TR.run_ablation(cfg, tmp_path / "b", variants=("cft", "none"))
    assert (tmp_path / "a" / "ablation.csv").read_bytes() == \
        (tmp_path / "b" / "ablation.csv").read_bytes()


def test_run_ablation_mask_modes(tmp_path):
    cfg = tiny_config(total_iters=2)
    rows = TR.run_ablation(cfg, tmp_path, variants=("cft",),
                           mask_modes=("cumulative", "off"))
    assert [(r["variant"], r["mask_mode"]) for r in rows] == \
        [("cft", "cumulative"), ("cft", "off")]
    with (tmp_path / "ablation.csv").open() as fh:
        header = fh.readline().strip().split(",")
    assert header == list(TR.ABLATION_HEADER)


def test_grad_check_suite_reports_all_groups():
    rows = TR.grad_check_suite(coords_per_tensor=1)
    names = [r.name for r in rows]
    assert "loss.ce" in names and "loss.dice" in names and "loss.focal" in names
    assert any(n.startswith("block.s3") for n in names)
    assert any(n.startswith("backbone") for n in names)
    assert all(r.passed(1e-4) for r in rows), \
        [(r.name, r.max_rel_error) for r in rows if not r.passed(1e-4)]
