"""CLI behavior: verbs, config precedence, error reporting, exit codes."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from cftseg.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from cftseg.cli import main
from cftseg.data import load_dataset
from cftseg.model import SegModel
from cftseg.train import _EVAL_PIXELS

TINY = """\
# desk-size run
baselr = 1e-3
total_iters = 3
batch_size = 2
crop_size = 32
num_categories = 3
embed_channels = 8
num_heads = 2
ffn_ratio = 2
backbone_channels = 4,6,8,10
n_images = 2
"""


def tiny_with(line):
    """TINY with `line` in place of the line that sets the same key."""
    key = line.split("=")[0].strip()
    return re.sub(rf"^{key} = .*$", line, TINY, flags=re.M)


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


def test_train_then_eval(tiny_cfg, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", str(tiny_cfg), "--out", str(run)]) == 0
    out = capsys.readouterr().out
    assert "finished 3 iterations" in out
    assert (run / "checkpoint_final.ckpt").exists()
    report_path = tmp_path / "report.json"
    assert main(["eval", str(run / "checkpoint_final.ckpt"),
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {"miou", "pixel_accuracy", "per_category_iou",
                           "mask_agreement"}
    assert 0.0 <= report["miou"] <= 1.0


def test_eval_prints_json_to_stdout(tiny_cfg, tmp_path, capsys):
    run = tmp_path / "run"
    main(["train", "--config", str(tiny_cfg), "--out", str(run)])
    capsys.readouterr()
    assert main(["eval", str(run / "checkpoint_final.ckpt")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "pixel_accuracy" in report


def test_seed_flag_overrides_config(tiny_cfg, tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["train", "--config", str(tiny_cfg), "--out", str(a)])
    main(["train", "--config", str(tiny_cfg), "--seed", "7", "--out", str(b)])
    capsys.readouterr()
    assert (a / "train_log.csv").read_bytes() != (b / "train_log.csv").read_bytes()


def test_variant_flag_reaches_the_model(tiny_cfg, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", str(tiny_cfg), "--variant", "none",
                 "--out", str(run)]) == 0
    capsys.readouterr()
    assert main(["eval", str(run / "checkpoint_final.ckpt"),
                 "--out", str(tmp_path / "r.json")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["mask_agreement"] is None  # passthrough emits no masks


def test_gen_data_roundtrip_and_train_on_it(tiny_cfg, tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(tiny_cfg), "--seed", "5",
                 "--out", str(data_dir)]) == 0
    ds = load_dataset(data_dir)
    assert ds.images.shape == (2, 3, 32, 32)
    assert ds.num_categories == 3
    run = tmp_path / "run"
    assert main(["train", "--config", str(tiny_cfg), "--data", str(data_dir),
                 "--out", str(run)]) == 0
    capsys.readouterr()


def test_flops_report(tiny_cfg, capsys):
    assert main(["flops", "--config", str(tiny_cfg), "--size", "64"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["variant"] == "cft"
    assert report["input_hw"] == [64, 64]
    assert report["total_flops"] > 0
    assert "aggregate.s3" in report["flops"]


@pytest.mark.parametrize("argv", [["flops", "--seed", "3"], ["gen-data", "--variant", "naive"]])
def test_a_verb_refuses_a_flag_it_would_ignore(argv, tiny_cfg, capsys):
    # the FLOP count does not depend on the seed, nor the data on the variant
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(tiny_cfg)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_flops_variant_flag(tiny_cfg, capsys):
    assert main(["flops", "--config", str(tiny_cfg), "--size", "64",
                 "--variant", "naive"]) == 0
    naive = json.loads(capsys.readouterr().out)
    assert main(["flops", "--config", str(tiny_cfg), "--size", "64"]) == 0
    cft = json.loads(capsys.readouterr().out)
    assert naive["aggregation_flops"] > cft["aggregation_flops"]


def test_ablate_writes_table(tiny_cfg, tmp_path, capsys):
    run = tmp_path / "ab"
    assert main(["ablate", "--config", str(tiny_cfg), "--variant", "cft",
                 "--mask-modes", "cumulative,off", "--out", str(run)]) == 0
    out = capsys.readouterr().out
    assert "cumulative" in out and "off" in out
    lines = (run / "ablation.csv").read_text().splitlines()
    assert len(lines) == 3  # header + two modes


def test_gradcheck_verb(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "loss.focal" in out


def test_bad_config_key_is_one_json_error_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("no_such_knob = 3\n")
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError"
    assert "no_such_knob" in payload["message"]


def test_duplicate_config_key_is_one_json_error_line(tiny_cfg, capsys):
    # flags replace file values, but a file sets each key once
    tiny_cfg.write_text(TINY + "num_heads = 4\n")
    assert main(["flops", "--config", str(tiny_cfg), "--size", "64"]) == 2
    (err,) = capsys.readouterr().err.strip().splitlines()
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert payload["message"] == "line 12: config key 'num_heads' is set twice"


@pytest.mark.parametrize("verb", ["flops", "train"])
def test_zero_heads_is_json_error(verb, tiny_cfg, tmp_path, capsys):
    path = tmp_path / "zero.cfg"
    path.write_text(tiny_with("num_heads = 0"))
    assert main([verb, "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError"
    assert "num_heads" in payload["message"]


@pytest.mark.parametrize("line", ["num_heads = 3", "backbone_channels = 4,6,8",
                                  "embed_channels = 0"])
def test_bad_model_field_is_refused_before_any_output(line, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(tiny_with(line))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
    assert not (tmp_path / "run").exists()


def test_negative_seed_is_refused_before_any_output(tiny_cfg, tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(tiny_cfg), "--out", str(data_dir)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(tiny_cfg), "--seed", "-1",
                 "--data", str(data_dir), "--out", str(tmp_path / "run")]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
    assert not (tmp_path / "run").exists()


def _train_on_damaged_data(tiny_cfg, tmp_path, damage):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(tiny_cfg), "--out", str(data_dir)]) == 0
    damage(data_dir)
    return main(["train", "--config", str(tiny_cfg), "--data", str(data_dir),
                 "--out", str(tmp_path / "run")])


def test_short_labels_file_is_json_error(tiny_cfg, tmp_path, capsys):
    def drop_a_label(data_dir):
        np.save(data_dir / "labels.npy", np.load(data_dir / "labels.npy")[:1])

    assert _train_on_damaged_data(tiny_cfg, tmp_path, drop_a_label) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "DatasetError"
    assert "labels.npy" in payload["message"]


@pytest.mark.parametrize("name,content", [
    ("images.npy", b""), ("labels.npy", b""), ("meta.json", b"{not json"),
], ids=["empty-images", "empty-labels", "meta-not-json"])
def test_unreadable_dataset_file_is_json_error(name, content, tiny_cfg, tmp_path, capsys):
    def overwrite(data_dir):
        (data_dir / name).write_bytes(content)

    assert _train_on_damaged_data(tiny_cfg, tmp_path, overwrite) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "DatasetError"
    assert name in payload["message"]


def test_meta_without_category_count_is_json_error(tiny_cfg, tmp_path, capsys):
    def drop_count(data_dir):
        (data_dir / "meta.json").write_text('{"n_images": 2, "size": 32}\n')

    assert _train_on_damaged_data(tiny_cfg, tmp_path, drop_count) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "DatasetError"
    assert "num_categories" in payload["message"]


def test_label_outside_category_count_is_json_error(tiny_cfg, tmp_path, capsys):
    def paint_label_three(data_dir):
        labels = np.load(data_dir / "labels.npy")
        labels[0, 0, 0] = 3
        np.save(data_dir / "labels.npy", labels)

    assert _train_on_damaged_data(tiny_cfg, tmp_path, paint_label_three) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "DatasetError"
    assert "labels.npy" in payload["message"]


def test_dataset_category_count_other_than_config_is_json_error(tiny_cfg, tmp_path,
                                                                capsys):
    data_dir = tmp_path / "data"
    four = tmp_path / "four.cfg"
    four.write_text(TINY.replace("num_categories = 3", "num_categories = 4"))
    assert main(["gen-data", "--config", str(four), "--out", str(data_dir)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(tiny_cfg), "--data", str(data_dir),
                 "--out", str(tmp_path / "run")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigError"
    assert "num_categories" in payload["message"]


def test_eval_on_other_category_count_is_json_error(tiny_cfg, tmp_path, capsys):
    four = tmp_path / "four.cfg"
    four.write_text(TINY.replace("num_categories = 3", "num_categories = 4"))
    assert main(["gen-data", "--config", str(four), "--out", str(tmp_path / "data")]) == 0
    assert main(["train", "--config", str(tiny_cfg), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert main(["eval", str(tmp_path / "run" / "checkpoint_final.ckpt"),
                 "--data", str(tmp_path / "data")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigError"
    assert "num_categories" in payload["message"]


def test_eval_on_non_finite_images_is_json_error(tiny_cfg, tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(tiny_cfg), "--out", str(data_dir)]) == 0
    assert main(["train", "--config", str(tiny_cfg), "--out", str(tmp_path / "run")]) == 0
    images = np.load(data_dir / "images.npy")
    images[1, 2, 3, 4] = np.nan
    np.save(data_dir / "images.npy", images)
    capsys.readouterr()
    for argv in (["eval", str(tmp_path / "run" / "checkpoint_final.ckpt")],
                 ["train", "--config", str(tiny_cfg), "--out", str(tmp_path / "again")]):
        assert main(argv + ["--data", str(data_dir)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "DatasetError"
        assert "non-finite" in payload["message"]


def test_eval_sizes_its_forwards_by_pixel_count(tmp_path, monkeypatch, capsys):
    per_forward = _EVAL_PIXELS // (32 * 32)
    cfg = tmp_path / "more.cfg"
    cfg.write_text(TINY.replace("n_images = 2", f"n_images = {per_forward + 1}"))
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    batches = []
    forward = SegModel.forward

    def counted(self, images):
        batches.append(len(images.data))
        return forward(self, images)

    monkeypatch.setattr(SegModel, "forward", counted)
    capsys.readouterr()
    assert main(["eval", str(run / "checkpoint_final.ckpt")]) == 0
    assert batches == [per_forward, 1]
    assert json.loads(capsys.readouterr().out)["mask_agreement"] is not None


def test_eval_of_a_nan_checkpoint_is_json_error(tiny_cfg, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", str(tiny_cfg), "--out", str(run)]) == 0
    ck = load_checkpoint(run / "checkpoint_final.ckpt")
    ck.arrays["param/decode.cls.b"][0] = np.nan
    save_checkpoint(tmp_path / "nan.ckpt", ck)
    capsys.readouterr()
    assert main(["eval", str(tmp_path / "nan.ckpt")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ValueError"
    assert "NaN" in payload["message"]


def test_missing_checkpoint_is_json_error(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "nope.ckpt")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] in ("FileNotFoundError", "CheckpointError")


def test_corrupt_checkpoint_is_json_error(tmp_path, capsys):
    path = save_checkpoint(tmp_path / "bad.ckpt", Checkpoint(
        iteration=0, config_text="", arrays={"param/w": np.ones(4)}))
    path.write_bytes(path.read_bytes()[:-30])
    assert main(["eval", str(tmp_path / "bad.ckpt")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "CheckpointError"


def test_resume_from_params_only_checkpoint_is_json_error(tiny_cfg, tmp_path,
                                                          capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", str(tiny_cfg), "--out", str(run)]) == 0
    ck = load_checkpoint(run / "checkpoint_final.ckpt")
    params_only = save_checkpoint(tmp_path / "params.ckpt", Checkpoint(
        iteration=1, config_text=ck.config_text,
        arrays={k: v for k, v in ck.arrays.items() if k.startswith("param/")}))
    capsys.readouterr()
    assert main(["train", "--config", str(tiny_cfg), "--out",
                 str(tmp_path / "again"), "--resume", str(params_only)]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "CheckpointError"
    assert "adam_m/" in payload["message"]


def test_resume_is_bit_exact(tmp_path, capsys):
    cfg = tmp_path / "resume.cfg"
    cfg.write_text(TINY.replace("total_iters = 3", "total_iters = 4")
                   + "checkpoint_every = 2\n")
    full, resumed = tmp_path / "full", tmp_path / "resumed"
    assert main(["train", "--config", str(cfg), "--out", str(full)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(resumed),
                 "--resume", str(full / "checkpoint_000002.ckpt")]) == 0
    assert ((resumed / "checkpoint_final.ckpt").read_bytes()
            == (full / "checkpoint_final.ckpt").read_bytes())
    full_rows = (full / "train_log.csv").read_text().splitlines()
    resumed_rows = (resumed / "train_log.csv").read_text().splitlines()
    assert resumed_rows == [full_rows[0]] + full_rows[3:]


def test_module_runs_as_subprocess(tiny_cfg, tmp_path):
    run = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "cftseg.cli", "train",
         "--config", str(tiny_cfg), "--out", str(run)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (run / "train_log.csv").exists()


def test_subprocess_error_path(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cftseg.cli", "eval",
         str(tmp_path / "missing.ckpt")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert json.loads(proc.stderr.strip())["error"] in (
        "FileNotFoundError", "CheckpointError")
