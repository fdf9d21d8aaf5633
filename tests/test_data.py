"""Synthetic dataset determinism, coverage, and appearance stability."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cftseg.data import (Dataset, category_color, gen_synthetic_dataset,
                         load_dataset, model_input, save_dataset)
from cftseg.errors import ConfigError, DatasetError
from oracles import scenes_o


def test_same_seed_gives_identical_bytes():
    a = gen_synthetic_dataset(seed=7, n_images=3, size=32)
    b = gen_synthetic_dataset(seed=7, n_images=3, size=32)
    assert a.images.tobytes() == b.images.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()


def test_different_seeds_differ():
    a = gen_synthetic_dataset(seed=0, n_images=2, size=32)
    b = gen_synthetic_dataset(seed=1, n_images=2, size=32)
    assert a.labels.tobytes() != b.labels.tobytes()


def test_shapes_dtypes_and_range():
    ds = gen_synthetic_dataset(seed=3, n_images=2, size=32, num_categories=5)
    assert ds.images.shape == (2, 3, 32, 32)
    assert ds.labels.shape == (2, 32, 32)
    assert ds.images.dtype == np.uint8
    assert ds.labels.dtype == np.uint8
    assert ds.labels.min() >= 0 and ds.labels.max() < 5
    assert len(ds) == 2


def test_seed0_histogram_covers_every_category():
    ds = gen_synthetic_dataset(seed=0, n_images=8, size=64, num_categories=4)
    hist = np.bincount(ds.labels.ravel(), minlength=4)
    assert (hist > 0).all()


def test_two_categories_make_binary_masks():
    ds = gen_synthetic_dataset(seed=2, n_images=4, size=32, num_categories=2)
    assert set(np.unique(ds.labels)) <= {0, 1}
    assert (ds.labels == 1).any()


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n_images=st.integers(1, 3),
       size=st.integers(16, 96), num_categories=st.integers(2, 20))
@example(seed=9, n_images=2, size=256, num_categories=16)
@example(seed=9, n_images=2, size=128, num_categories=4)
def test_scenes_match_the_whole_image_painter(seed, n_images, size, num_categories):
    # every image byte is rint(255 * the whole-image painter's float pixel)
    ds = gen_synthetic_dataset(seed, n_images, size, num_categories)
    images, labels = scenes_o(seed, n_images, size, num_categories)
    assert ds.images.dtype == np.uint8
    assert ds.images.tobytes() == images.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()


@pytest.mark.parametrize("num_categories", [4, 5, 6])
@pytest.mark.parametrize("size", [16, 17])
def test_smallest_scenes_draw_every_shape(size, num_categories):
    ds = gen_synthetic_dataset(seed=0, n_images=2, size=size, num_categories=num_categories)
    assert ds.images.shape == (2, 3, size, size)
    assert set(np.unique(ds.labels)) == set(range(num_categories))


def test_config_validation():
    with pytest.raises(ConfigError):
        gen_synthetic_dataset(seed=0, num_categories=1)
    with pytest.raises(ConfigError):
        gen_synthetic_dataset(seed=0, n_images=0)
    with pytest.raises(ConfigError):
        gen_synthetic_dataset(seed=0, size=8)


def test_category_count_stays_clear_of_the_ignore_label():
    with pytest.raises(ConfigError, match="255"):
        gen_synthetic_dataset(seed=0, n_images=1, size=16, num_categories=256)


def test_category_appearance_is_seed_independent():
    # the class cue must transfer across datasets drawn with different seeds
    a = gen_synthetic_dataset(seed=0, n_images=4, size=64)
    b = gen_synthetic_dataset(seed=99, n_images=4, size=64)
    for index in range(4):
        want = category_color(index, 4)
        for ds in (a, b):
            sel = ds.labels[:, None, :, :] == index
            sel = np.broadcast_to(sel, ds.images.shape)
            pixels = model_input(ds.images)
            mean_rgb = [pixels[:, c][sel[:, c]].mean() for c in range(3)]
            np.testing.assert_allclose(mean_rgb, want, atol=0.05)


def test_colors_are_distinct():
    colors = np.array([category_color(i, 4) for i in range(4)])
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.abs(colors[i] - colors[j]).sum() > 0.3


def test_save_load_round_trip(tmp_path):
    ds = gen_synthetic_dataset(seed=5, n_images=2, size=32, num_categories=3)
    save_dataset(ds, tmp_path)
    back = load_dataset(tmp_path)
    assert isinstance(back, Dataset)
    np.testing.assert_array_equal(back.images, ds.images)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.images.dtype == np.uint8
    assert back.labels.dtype == np.uint8
    assert back.num_categories == 3


def test_load_narrows_wider_labels_to_bytes(tmp_path):
    # older files hold int64 labels; they load as the same values in uint8
    ds = gen_synthetic_dataset(seed=5, n_images=2, size=32, num_categories=3)
    save_dataset(Dataset(ds.images, ds.labels.astype(np.int64), 3), tmp_path)
    assert np.load(tmp_path / "labels.npy").dtype == np.int64
    back = load_dataset(tmp_path)
    assert back.labels.dtype == np.uint8
    np.testing.assert_array_equal(back.labels, ds.labels)


def _one_label(labels, value):
    """An int64 copy of labels with pixel (0, 0, 0) set to value; narrowed
    to a byte, 511 would read as the ignore label and 258 as category 2."""
    wide = labels.astype(np.int64)
    wide[0, 0, 0] = value
    return wide


@pytest.mark.parametrize("damage", [
    lambda imgs, labels, meta: (imgs, labels[:1], meta),
    lambda imgs, labels, meta: (imgs, labels[:, :, :-1], meta),
    lambda imgs, labels, meta: (imgs, labels.astype(np.float64), meta),
    lambda imgs, labels, meta: (imgs[:, :2], labels, meta),
    lambda imgs, labels, meta: (imgs.astype(np.int64), labels, meta),
    lambda imgs, labels, meta: (model_input(imgs), labels, meta),
    lambda imgs, labels, meta: (imgs[0], labels, meta),
    lambda imgs, labels, meta: (imgs, labels, {}),
    lambda imgs, labels, meta: (imgs, labels, {"num_categories": 1}),
    lambda imgs, labels, meta: (imgs, labels, {"num_categories": 3.0}),
    lambda imgs, labels, meta: (imgs, labels, [3]),
    lambda imgs, labels, meta: (imgs, np.where(labels == 2, 3, labels), meta),
    lambda imgs, labels, meta: (imgs, np.where(labels == 2, -1, labels.astype(np.int64)), meta),
    lambda imgs, labels, meta: (imgs, _one_label(labels, 511), meta),
    lambda imgs, labels, meta: (imgs, _one_label(labels, 258), meta),
    lambda imgs, labels, meta: (imgs, labels, {"num_categories": 2}),
    lambda imgs, labels, meta: (imgs, labels, {"num_categories": 256}),
    lambda imgs, labels, meta: (np.where(imgs == imgs.max(), np.nan, imgs), labels, meta),
    lambda imgs, labels, meta: (np.where(imgs == imgs.min(), -np.inf, imgs), labels, meta),
], ids=["short-labels", "label-width", "float-labels", "two-channels", "int-images",
        "float-images",
        "3d-images", "no-category-count", "one-category", "float-count", "meta-list",
        "label-past-count", "negative-label", "label-wraps-to-ignore",
        "label-wraps-to-category", "count-below-labels",
        "count-reaches-ignore-label", "nan-pixel", "infinite-pixel"])
def test_load_rejects_parts_that_do_not_fit(tmp_path, damage):
    ds = gen_synthetic_dataset(seed=5, n_images=2, size=32, num_categories=3)
    images, labels, meta = damage(ds.images, ds.labels, {"num_categories": 3})
    np.save(tmp_path / "images.npy", images)
    np.save(tmp_path / "labels.npy", labels)
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DatasetError):
        load_dataset(tmp_path)


def test_load_accepts_the_ignore_label(tmp_path):
    ds = gen_synthetic_dataset(seed=5, n_images=2, size=32, num_categories=3)
    labels = ds.labels.copy()
    labels[:, :4] = 255
    save_dataset(Dataset(ds.images, labels, 3), tmp_path)
    np.testing.assert_array_equal(load_dataset(tmp_path).labels, labels)


def test_model_input_is_each_byte_over_255():
    pixels = model_input(np.arange(256, dtype=np.uint8))
    assert pixels.dtype == np.float64
    assert pixels.tobytes() == np.array([k / 255.0 for k in range(256)]).tobytes()
    for dtype in (np.float64, np.float32, np.int64, np.uint16):
        with pytest.raises(TypeError, match="uint8"):
            model_input(np.zeros((1, 3, 2, 2), dtype=dtype))


def test_generation_holds_one_float_image_beside_its_bytes():
    # four 256 px images and labels are 1 MB as bytes, against 6.3 MB of
    # float64 images; painting holds one float image and its temporaries
    n, size = 4, 256
    output = n * 3 * size * size + n * size * size
    float_image = 3 * size * size * 8
    gen_synthetic_dataset(seed=0, n_images=1, size=16)  # first-call set-up
    for seed in range(4):
        tracemalloc.start()
        try:
            gen_synthetic_dataset(seed, n_images=n, size=size, num_categories=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < output + 2 * float_image
