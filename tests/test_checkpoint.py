"""Checkpoint binary format: round trip, corruption, atomicity."""

import struct

import numpy as np
import pytest

import cftseg.checkpoint as C
from cftseg.errors import CheckpointError


def sample_checkpoint(seed=0):
    rng = np.random.default_rng(seed)
    arrays = {
        "param/w": rng.standard_normal((3, 4)),
        "param/b": rng.standard_normal(4),
        "adam_m/w": rng.standard_normal((3, 4)),
        "param/scalar": np.array(2.5),
        "param/block": rng.standard_normal((2, 3, 2, 2)),
    }
    return C.Checkpoint(iteration=42, config_text="seed = 1\n", arrays=arrays)


def test_round_trip_is_bit_identical(tmp_path):
    ck = sample_checkpoint()
    path = tmp_path / "model.ckpt"
    C.save_checkpoint(path, ck)
    back = C.load_checkpoint(path)
    assert back.iteration == 42
    assert back.version == C.VERSION
    assert back.config_text == "seed = 1\n"
    assert list(back.arrays) == list(ck.arrays)
    for name, arr in ck.arrays.items():
        assert back.arrays[name].tobytes() == np.asarray(arr).tobytes()
        assert back.arrays[name].shape == np.asarray(arr).shape


def test_file_starts_with_magic_and_version(tmp_path):
    path = C.save_checkpoint(tmp_path / "m.ckpt", sample_checkpoint())
    head = path.read_bytes()[:8]
    assert head[:4] == b"CFTK"
    assert struct.unpack("<I", head[4:])[0] == C.VERSION


def test_corrupted_magic_rejected(tmp_path):
    path = C.save_checkpoint(tmp_path / "m.ckpt", sample_checkpoint())
    blob = bytearray(path.read_bytes())
    blob[:4] = b"JUNK"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        C.load_checkpoint(path)


def test_unknown_version_rejected(tmp_path):
    path = C.save_checkpoint(tmp_path / "m.ckpt", sample_checkpoint())
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        C.load_checkpoint(path)


def test_truncation_rejected(tmp_path):
    path = C.save_checkpoint(tmp_path / "m.ckpt", sample_checkpoint())
    blob = path.read_bytes()
    for cut in (3, 7, 20, len(blob) - 5):
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            C.load_checkpoint(path)


def test_no_temp_files_left_behind(tmp_path):
    C.save_checkpoint(tmp_path / "m.ckpt", sample_checkpoint())
    C.save_checkpoint(tmp_path / "m.ckpt", sample_checkpoint(seed=1))
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_overwrite_replaces_content(tmp_path):
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(path, sample_checkpoint(seed=0))
    C.save_checkpoint(path, C.Checkpoint(iteration=7, config_text="",
                                         arrays={"param/x": np.ones(2)}))
    back = C.load_checkpoint(path)
    assert back.iteration == 7
    assert list(back.arrays) == ["param/x"]


def test_model_state_prefixes_names():
    class Box:
        def __init__(self, data):
            self.data = data

    params = {"layer.w": Box(np.ones((2, 2))), "layer.b": Box(np.zeros(2))}
    opt = {"adam_m/layer.w": np.ones((2, 2)) * 0.5}
    state = C.model_state(params, opt)
    assert set(state) == {"param/layer.w", "param/layer.b", "adam_m/layer.w"}
    np.testing.assert_array_equal(state["param/layer.w"], 1.0)


def write_raw(path, records, config=b""):
    """A version-1 file holding `records` of (name bytes, dims, payload)."""
    blob = C.MAGIC + struct.pack("<IQI", C.VERSION, 0, len(config)) + config
    for name, dims, payload in records:
        blob += struct.pack("<I", len(name)) + name + struct.pack("<I", len(dims))
        blob += struct.pack(f"<{len(dims)}Q", *dims) + payload
    path.write_bytes(blob)
    return path


ONE = struct.pack("<d", 1.0)


@pytest.mark.parametrize("records, config, match", [
    ([(b"param/w", (1,), ONE), (b"param/w", (1,), ONE)], b"", "duplicate"),
    ([(b"param/\xff", (1,), ONE)], b"", "UTF-8"),
    ([(b"param/w", (1,), ONE)], b"seed = \xff", "UTF-8"),
    ([(b"param/w", (2 ** 62,), ONE)], b"", "truncated"),
    ([(b"param/w", (2 ** 32, 2 ** 32), b"")], b"", "truncated"),
], ids=["duplicate", "name_utf8", "config_utf8", "dim_2e62", "dims_wrap_int64"])
def test_corrupt_records_rejected(tmp_path, records, config, match):
    path = write_raw(tmp_path / "bad.ckpt", records, config)
    with pytest.raises(CheckpointError, match=match):
        C.load_checkpoint(path)
