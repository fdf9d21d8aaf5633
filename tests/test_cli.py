"""CLI behavior: verbs, config precedence, error reporting, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from cftseg.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from cftseg.cli import main
from cftseg.data import load_dataset

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


@pytest.mark.parametrize("verb", ["flops", "train"])
def test_zero_heads_is_json_error(verb, tiny_cfg, tmp_path, capsys):
    path = tmp_path / "zero.cfg"
    path.write_text(TINY + "num_heads = 0\n")
    assert main([verb, "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError"
    assert "num_heads" in payload["message"]


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
