"""Checkpoint .npz format: round trip, corruption, atomicity."""

import cProfile
import io
import pstats
import struct
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest

import cftseg.checkpoint as C
from cftseg.errors import CheckpointError
from cftseg.model import ModelConfig, SegModel
from cftseg.optim import AdamW


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


def same_contents(back, ck):
    return (back.iteration == ck.iteration and back.config_text == ck.config_text
            and list(back.arrays) == list(ck.arrays)
            and all(back.arrays[k].shape == np.shape(v)
                    and back.arrays[k].tobytes() == np.asarray(v).tobytes()
                    for k, v in ck.arrays.items()))


def test_round_trip_is_bit_identical(tmp_path):
    ck = sample_checkpoint()
    path = tmp_path / "model.ckpt"
    C.save_checkpoint(path, ck)
    assert same_contents(C.load_checkpoint(path), ck)


def test_empty_checkpoint_round_trips(tmp_path):
    ck = C.Checkpoint(iteration=0, config_text="")
    assert same_contents(C.load_checkpoint(C.save_checkpoint(tmp_path / "e", ck)), ck)


def test_file_starts_with_magic_and_version(tmp_path):
    path = C.save_checkpoint(tmp_path / "m.ckpt", sample_checkpoint())
    assert path.read_bytes()[:4] == b"PK\x03\x04"
    with np.load(path, allow_pickle=False) as npz:
        assert npz.files == ["format", "iteration", "config", "names",
                             "ndims", "dims", "data"]
        assert str(npz["format"]) == f"cftseg checkpoint v{C.VERSION}"


def test_corrupted_magic_rejected(tmp_path):
    path = C.save_checkpoint(tmp_path / "m.ckpt", sample_checkpoint())
    blob = bytearray(path.read_bytes())
    blob[:4] = b"JUNK"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="not a .npz"):
        C.load_checkpoint(path)


def test_unknown_version_rejected(tmp_path):
    path = write_members(tmp_path / "m.ckpt",
                         forged(format=np.array("cftseg checkpoint v99")))
    with pytest.raises(CheckpointError, match="unsupported format"):
        C.load_checkpoint(path)


def test_v1_file_rejected(tmp_path):
    path = tmp_path / "old.ckpt"
    path.write_bytes(b"CFTK" + struct.pack("<IQI", 1, 0, 0))
    with pytest.raises(CheckpointError, match="v1 CFTK"):
        C.load_checkpoint(path)


def test_plain_npy_rejected(tmp_path):
    path = tmp_path / "plain.npy"
    np.save(path, np.ones(3))
    with pytest.raises(CheckpointError, match="not a .npz"):
        C.load_checkpoint(path)


def test_each_member_header_is_parsed_once(tmp_path):
    path = C.save_checkpoint(tmp_path / "m.ckpt", sample_checkpoint())
    profile = cProfile.Profile()
    profile.runcall(C.load_checkpoint, path)
    parses = sum(calls for (_, _, func), (_, calls, *_) in
                 pstats.Stats(profile).stats.items() if func == "read_magic")
    assert parses == len(C._MEMBERS) == 7


def test_truncation_rejected(tmp_path):
    path = C.save_checkpoint(tmp_path / "m.ckpt", sample_checkpoint())
    blob = path.read_bytes()
    for cut in (3, 7, 20, len(blob) - 5):
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            C.load_checkpoint(path)


def test_flipped_payload_byte_rejected(tmp_path):
    ck = sample_checkpoint()
    path = C.save_checkpoint(tmp_path / "m.ckpt", ck)
    blob = bytearray(path.read_bytes())
    at = blob.find(ck.arrays["param/w"].tobytes())
    assert at > 0
    blob[at + 3] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="CRC"):
        C.load_checkpoint(path)


def test_every_truncation_and_byte_flip_loads_or_is_refused(tmp_path):
    ck = sample_checkpoint()
    path = C.save_checkpoint(tmp_path / "m.ckpt", ck)
    blob = path.read_bytes()
    damaged = [blob[:cut] for cut in range(len(blob))]
    damaged += [blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:]
                for i in range(len(blob))]
    loaded = 0
    for bad in damaged:
        path.write_bytes(bad)
        try:
            back = C.load_checkpoint(path)
        except CheckpointError:
            continue
        assert same_contents(back, ck)
        loaded += 1
    # only zip fields that carry no content (dates, attributes) may flip
    assert 0 < loaded < len(blob) // 2


def test_no_temp_files_left_behind(tmp_path):
    C.save_checkpoint(tmp_path / "m.ckpt", sample_checkpoint())
    C.save_checkpoint(tmp_path / "m.ckpt", sample_checkpoint(seed=1))
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


@pytest.mark.parametrize("config_text, name", [
    ("a\x00", "param/w"), ("a", "param/w\x00"), ("a\x00b", "param/w"),
    ("a", "param/\x00w")], ids=["config-end", "name-end", "config-inside",
                               "name-inside"])
def test_nul_in_text_is_refused_before_writing(tmp_path, config_text, name):
    ck = C.Checkpoint(iteration=1, config_text=config_text,
                      arrays={name: np.ones(2)})
    with pytest.raises(ValueError, match="NUL"):
        C.save_checkpoint(tmp_path / "run" / "m.ckpt", ck)
    assert list(tmp_path.iterdir()) == []


def test_overwrite_replaces_content(tmp_path):
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(path, sample_checkpoint(seed=0))
    C.save_checkpoint(path, C.Checkpoint(iteration=7, config_text="",
                                         arrays={"param/x": np.ones(2)}))
    back = C.load_checkpoint(path)
    assert back.iteration == 7
    assert list(back.arrays) == ["param/x"]


def trained_params(seed=0):
    """A small model's parameters and an AdamW over them after two steps."""
    config = ModelConfig(num_categories=3, embed_channels=8, num_heads=2,
                         ffn_ratio=2, backbone_channels=(4, 6, 8, 10))
    params = SegModel(config, rng=np.random.default_rng(seed)).named_parameters()
    opt = AdamW(params)
    rng = np.random.default_rng(seed + 1)
    for _ in range(2):
        opt.step({p: rng.standard_normal(p.shape) for p in params.values()}, lr=0.01)
    return params, opt


def test_model_state_prefixes_names():
    params, opt = trained_params()
    assert list(C.model_state(params)) == [f"param/{name}" for name in params]
    state = C.model_state(params, opt)
    assert list(state) == ([f"param/{name}" for name in params]
                           + [f"adam_{which}/{name}" for name in params for which in "mv"])
    for name, p in params.items():
        assert state[f"param/{name}"] is p.data
        assert state[f"adam_m/{name}"] is opt.m[name]
        assert state[f"adam_v/{name}"] is opt.v[name]


def test_restore_state_round_trips_parameters_and_moments(tmp_path):
    params, opt = trained_params(seed=3)
    path = C.save_checkpoint(tmp_path / "m.ckpt", C.Checkpoint(
        iteration=opt.step_count, config_text="", arrays=C.model_state(params, opt)))
    fresh, fresh_opt = trained_params(seed=4)
    C.restore_state(C.load_checkpoint(path), fresh, fresh_opt)
    assert fresh_opt.step_count == 2
    for name, p in params.items():
        np.testing.assert_array_equal(fresh[name].data, p.data)
        np.testing.assert_array_equal(fresh_opt.m[name], opt.m[name])
        np.testing.assert_array_equal(fresh_opt.v[name], opt.v[name])


def test_restore_state_refuses_a_missing_or_misshapen_array():
    params, opt = trained_params()
    arrays = {k: v.copy() for k, v in C.model_state(params, opt).items()}
    ck = C.Checkpoint(iteration=2, config_text="", arrays=arrays)
    del arrays["adam_v/decode.cls.b"]
    with pytest.raises(CheckpointError, match="missing adam_v/decode.cls.b"):
        C.restore_state(ck, params, opt)
    C.restore_state(ck, params)  # parameters alone need no moments
    arrays["param/decode.cls.b"] = np.zeros(4)
    with pytest.raises(CheckpointError, match="shape mismatch for param/decode.cls.b"):
        C.restore_state(ck, params)


def npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def write_members(path, members):
    """A zip of (member name, .npy bytes) pairs, in order."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # duplicate member names
        with zipfile.ZipFile(path, "w") as archive:
            for name, raw in members:
                archive.writestr(name + ".npy", raw)
    return path


def forged(**changes):
    """Members of a valid one-array checkpoint, with `changes` applied;
    a value of None drops the member."""
    members = {"format": np.array(f"cftseg checkpoint v{C.VERSION}"),
               "iteration": np.array(3, dtype=np.int64),
               "config": np.array("seed = 1\n"),
               "names": np.array(["param/w"]),
               "ndims": np.array([1], dtype=np.int64),
               "dims": np.array([2], dtype=np.int64),
               "data": np.ones(2)}
    members.update(changes)
    return [(k, npy_bytes(v)) for k, v in members.items() if v is not None]


def test_forged_members_load_when_left_alone(tmp_path):
    back = C.load_checkpoint(write_members(tmp_path / "ok.ckpt", forged()))
    assert back.iteration == 3 and back.config_text == "seed = 1\n"
    np.testing.assert_array_equal(back.arrays["param/w"], [1.0, 1.0])


@pytest.mark.parametrize("members, match", [
    (forged(names=np.array(["param/w", "param/w"]), ndims=np.array([1, 1]),
            dims=np.array([1, 1])), "inconsistent"),
    (forged(names=np.array([b"param/\xff"])), "wrong dtype"),
    (forged(config=np.array(b"seed = \xff")), "wrong dtype"),
    (forged(dims=np.array([2 ** 62])), "inconsistent"),
    (forged(ndims=np.array([2]), dims=np.array([2 ** 32, 2 ** 32]),
            data=np.ones(0)), "inconsistent"),
    (forged() + [("data", npy_bytes(np.ones(2)))], "unexpected members"),
    (forged(dims=np.array([-2])), "inconsistent"),
    (forged(ndims=np.array([1, 0])), "inconsistent"),
    (forged(ndims=np.array([2])), "inconsistent"),
    (forged(iteration=np.array(-1)), "inconsistent"),
    (forged(data=np.ones(2, dtype=np.float32)), "wrong dtype"),
    (forged(iteration=np.array([3])), "wrong dtype"),
    (forged(format=np.array("cftseg checkpoint v1")), "unsupported format"),
    (forged(config=None), "unexpected members"),
    (forged(extra=np.zeros(1)), "unexpected members"),
], ids=["duplicate", "name_utf8", "config_utf8", "dim_2e62", "dims_wrap_int64",
        "duplicate_member", "negative_dim", "ndims_longer_than_names",
        "ndims_past_dims", "negative_iteration", "float32_data", "iteration_1d",
        "old_format_tag", "missing_member", "extra_member"])
def test_corrupt_records_rejected(tmp_path, members, match):
    path = write_members(tmp_path / "bad.ckpt", members)
    with pytest.raises(CheckpointError, match=match):
        C.load_checkpoint(path)


@pytest.mark.parametrize("shape", [(2 ** 40,), (0,), (1,)])
def test_header_must_claim_the_stored_bytes(tmp_path, shape):
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        head, {"descr": "<f8", "fortran_order": False, "shape": shape})
    members = forged()[:-1] + [("data", head.getvalue() + np.ones(2).tobytes())]
    path = write_members(tmp_path / "forged.ckpt", members)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="header claims"):
            C.load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
