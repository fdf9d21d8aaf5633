"""Synthetic dataset determinism, coverage, and appearance stability."""

import json

import numpy as np
import pytest

from cftseg.data import (Dataset, category_color, gen_synthetic_dataset,
                         load_dataset, save_dataset)
from cftseg.errors import ConfigError, DatasetError


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
    assert ds.images.dtype == np.float64
    assert np.issubdtype(ds.labels.dtype, np.integer)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
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
            mean_rgb = [ds.images[:, c][sel[:, c]].mean() for c in range(3)]
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
    assert back.num_categories == 3


@pytest.mark.parametrize("damage", [
    lambda imgs, labels, meta: (imgs, labels[:1], meta),
    lambda imgs, labels, meta: (imgs, labels[:, :, :-1], meta),
    lambda imgs, labels, meta: (imgs, labels.astype(np.float64), meta),
    lambda imgs, labels, meta: (imgs[:, :2], labels, meta),
    lambda imgs, labels, meta: (imgs.astype(np.int64), labels, meta),
    lambda imgs, labels, meta: (imgs[0], labels, meta),
    lambda imgs, labels, meta: (imgs, labels, {}),
    lambda imgs, labels, meta: (imgs, labels, {"num_categories": 1}),
    lambda imgs, labels, meta: (imgs, labels, {"num_categories": 3.0}),
    lambda imgs, labels, meta: (imgs, labels, [3]),
    lambda imgs, labels, meta: (imgs, np.where(labels == 2, 3, labels), meta),
    lambda imgs, labels, meta: (imgs, np.where(labels == 2, -1, labels), meta),
    lambda imgs, labels, meta: (imgs, labels, {"num_categories": 2}),
    lambda imgs, labels, meta: (imgs, labels, {"num_categories": 256}),
], ids=["short-labels", "label-width", "float-labels", "two-channels", "int-images",
        "3d-images", "no-category-count", "one-category", "float-count", "meta-list",
        "label-past-count", "negative-label", "count-below-labels",
        "count-reaches-ignore-label"])
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
