"""Loss components vs per-pixel scalar oracles, closed forms, gradients."""

import numpy as np
import pytest

from cftseg import Tensor, backward
from cftseg.errors import ShapeError
import cftseg.functional as F
import cftseg.gradcheck as G
import cftseg.losses as L
from test_functional import check_op_gradient


# independent per-pixel loops; no tensor machinery

def ce_oracle(logits, labels):
    total, n = 0.0, 0
    b, _, h, w = logits.shape
    for bi in range(b):
        for i in range(h):
            for j in range(w):
                y = labels[bi, i, j]
                if y == L.IGNORE_INDEX:
                    continue
                z = logits[bi, :, i, j]
                z = z - z.max()
                total += np.log(np.exp(z).sum()) - z[y]
                n += 1
    return total / n


def planes(labels, l):
    """Float one-hot planes of a (B,H,W) label map and its kept-pixel mask."""
    target = np.zeros((labels.shape[0], l, *labels.shape[1:]))
    for bi, i, j in np.ndindex(labels.shape):
        if labels[bi, i, j] != L.IGNORE_INDEX:
            target[bi, labels[bi, i, j], i, j] = 1.0
    return target, labels != L.IGNORE_INDEX


def dice_oracle(logits, labels, s=1.0):
    target, valid = planes(labels, logits.shape[1])
    vals = []
    for bi in range(logits.shape[0]):
        for l in range(logits.shape[1]):
            t = target[bi, l][valid[bi]]
            if t.sum() == 0:
                continue
            p = 1.0 / (1.0 + np.exp(-logits[bi, l][valid[bi]]))
            vals.append(1.0 - (2.0 * (p * t).sum() + s) / (p.sum() + t.sum() + s))
    return float(np.mean(vals))


def focal_oracle(logits, labels, gamma=2.0, alpha=0.25):
    target, valid = planes(labels, logits.shape[1])
    p = 1.0 / (1.0 + np.exp(-logits))
    pt = np.where(target == 1.0, p, 1.0 - p)
    at = np.where(target == 1.0, alpha, 1.0 - alpha)
    per_pixel = -at * (1.0 - pt) ** gamma * np.log(pt)
    return float(np.mean(per_pixel.transpose(0, 2, 3, 1)[valid]))


class TestCrossEntropy:
    @pytest.mark.parametrize("l", [2, 3, 4, 6])
    def test_uniform_logits_give_log_l(self, l):
        logits = Tensor(np.zeros((1, l, 3, 3)))
        labels = np.random.default_rng(l).integers(0, l, size=(1, 3, 3))
        got = L.cross_entropy(logits, labels).item()
        np.testing.assert_allclose(got, np.log(l), rtol=1e-12)

    def test_saturated_true_class_is_near_zero(self):
        logits = np.zeros((1, 4, 2, 2))
        labels = np.array([[[0, 1], [2, 3]]])
        for i in range(2):
            for j in range(2):
                logits[0, labels[0, i, j], i, j] = 1000.0
        assert L.cross_entropy(Tensor(logits), labels).item() < 1e-12

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((2, 3, 2, 2)) * 3
        labels = rng.integers(0, 3, size=(2, 2, 2))
        got = L.cross_entropy(Tensor(logits), labels).item()
        np.testing.assert_allclose(got, ce_oracle(logits, labels), rtol=1e-12)

    def test_ignored_pixels_are_excluded(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((1, 3, 2, 4))
        labels = rng.integers(0, 3, size=(1, 2, 4))
        labels[0, 0, :2] = L.IGNORE_INDEX
        got = L.cross_entropy(Tensor(logits), labels).item()
        np.testing.assert_allclose(got, ce_oracle(logits, labels), rtol=1e-12)

    def test_all_ignored_raises(self):
        labels = np.full((1, 2, 2), L.IGNORE_INDEX)
        with pytest.raises(ValueError, match="ignored"):
            L.cross_entropy(Tensor(np.zeros((1, 3, 2, 2))), labels)

    @pytest.mark.parametrize("loss", [L.cross_entropy, L.dice_loss, L.focal_loss])
    def test_label_validation(self, loss):
        logits = Tensor(np.zeros((2, 3, 2, 2)))
        with pytest.raises(ValueError, match="labels must lie"):
            loss(logits, np.full((2, 2, 2), 3))
        # (1, 2, 2) would broadcast against the batch of two
        for shape in [(2, 4, 4), (1, 2, 2), (2, 1, 2, 2)]:
            with pytest.raises(ShapeError):
                loss(logits, np.zeros(shape, dtype=int))
        with pytest.raises(ValueError, match="integer"):
            loss(logits, np.zeros((2, 2, 2)))

    def test_gradient(self):
        check_op_gradient("cross_entropy", ((1, 3, 2, 2), 3.0, 0.0))


class TestMaskTargets:
    def test_same_size_is_exact_one_hot(self):
        labels = np.array([[[0, 1], [2, L.IGNORE_INDEX]]])
        small = L.downsample_labels(labels, 2, 2)
        got, valid = L._label_planes(Tensor(np.zeros((1, 3, 2, 2))), small)
        want = np.zeros((1, 3, 2, 2), dtype=bool)
        want[0, 0, 0, 0] = want[0, 1, 0, 1] = want[0, 2, 1, 0] = True
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(valid, [[[True, True], [True, False]]])

    def test_all_ignore_gives_zero_target(self):
        labels = np.full((2, 4, 4), L.IGNORE_INDEX)
        small = L.downsample_labels(labels, 2, 2)
        target, valid = L._label_planes(Tensor(np.zeros((2, 3, 2, 2))), small)
        assert not target.any() and not valid.any()

    def test_4x4_to_2x2_matches_index_sampling(self):
        labels = np.arange(16).reshape(1, 4, 4) % 4
        got = L.downsample_labels(labels, 2, 2)
        # cell centers land on source indices 1 and 3
        np.testing.assert_array_equal(got[0], labels[0][np.ix_([1, 3], [1, 3])])

    def test_out_of_range_label_that_survives_downsampling_raises(self):
        # the pixel term scores four categories, the mask terms three; label
        # 3 reaches the mask terms only where a cell center samples it
        logits = Tensor(np.zeros((1, 4, 4, 4)))
        masks = [Tensor(np.zeros((1, 3, 2, 2)))]
        labels = np.zeros((1, 4, 4), dtype=np.int64)
        labels[0, 0, 0] = 3  # no cell center
        L.total_loss(logits, masks, labels)
        labels[0, 1, 1] = 3  # a sampled cell center
        with pytest.raises(ValueError, match="labels must lie"):
            L.total_loss(logits, masks, labels)

    def test_nearest_indices_identity(self):
        labels = np.random.default_rng(0).integers(0, 4, size=(2, 5, 7))
        np.testing.assert_array_equal(L.downsample_labels(labels, 5, 7), labels)


class TestSumMasksOrderly:
    @staticmethod
    def stack(rng, sizes, l=3, b=2):
        return [Tensor(rng.standard_normal((b, l, s, s))) for s in sizes]

    def test_single_stage_is_identity(self):
        rng = np.random.default_rng(3)
        (m,) = self.stack(rng, [4])[:1]
        (out,) = L.sum_masks_orderly([m])
        np.testing.assert_array_equal(out.data, m.data)

    def test_identical_masks_accumulate_linearly(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((1, 3, 4, 4))
        masks = [Tensor(base.copy()) for _ in range(3)]
        sums = L.sum_masks_orderly(masks)
        for k, s in enumerate(sums, start=1):
            np.testing.assert_allclose(s.data, k * base, atol=1e-12)

    def test_mixed_resolution_matches_resize_then_add(self):
        rng = np.random.default_rng(5)
        masks = self.stack(rng, [1, 2, 4])
        sums = L.sum_masks_orderly(masks)
        resized = [F.bilinear_resize(m, 4, 4).data for m in masks]
        np.testing.assert_allclose(sums[0].data, resized[0], atol=1e-12)
        np.testing.assert_allclose(sums[1].data, resized[0] + resized[1], atol=1e-12)
        np.testing.assert_allclose(sums[2].data, sum(resized), atol=1e-12)

    def test_final_mode_returns_only_the_total(self):
        rng = np.random.default_rng(6)
        masks = self.stack(rng, [1, 2, 4])
        (final,) = L.sum_masks_orderly(masks, mode="final")
        np.testing.assert_array_equal(
            final.data, L.sum_masks_orderly(masks)[-1].data)

    def test_rejects_unknown_mode_and_empty_input(self):
        with pytest.raises(ValueError):
            L.sum_masks_orderly([], mode="cumulative")
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            L.sum_masks_orderly(self.stack(rng, [4]), mode="bogus")


class TestDice:
    @staticmethod
    def halves():
        """A (1, 8, 8) map labelled 0 left of column 4 and 1 from it, and
        its two planes."""
        labels = np.zeros((1, 8, 8), dtype=np.int64)
        labels[0, :, 4:] = 1
        return labels, planes(labels, 2)[0]

    def test_perfect_hard_prediction_is_near_zero(self):
        labels, target = self.halves()
        logits = np.where(target == 1.0, 40.0, -40.0)
        assert L.dice_loss(Tensor(logits), labels).item() < 1e-6

    def test_disjoint_large_masks_approach_one(self):
        labels, target = self.halves()
        logits = np.where(np.roll(target, 4, axis=3) == 1.0, 40.0, -40.0)
        val = L.dice_loss(Tensor(logits), labels).item()
        assert val > 0.98

    def test_half_overlap_equal_area_is_about_half(self):
        labels, target = self.halves()
        logits = np.where(np.roll(target, 2, axis=3) == 1.0, 40.0, -40.0)
        val = L.dice_loss(Tensor(logits), labels).item()
        assert abs(val - 0.5) < 0.02
        np.testing.assert_allclose(val, dice_oracle(logits, labels), rtol=1e-12)

    def test_matches_oracle_and_skips_absent_categories(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((2, 3, 4, 4)) * 2
        labels = rng.integers(0, 3, size=(2, 4, 4))
        labels[0][labels[0] == 1] = 2  # absent pair must not contribute
        labels[1, 0] = L.IGNORE_INDEX
        got = L.dice_loss(Tensor(logits), labels).item()
        np.testing.assert_allclose(got, dice_oracle(logits, labels), rtol=1e-12)

    def test_empty_target_gives_zero(self):
        # with labels, a sample's planes are empty only where all is ignored
        labels = np.full((2, 2, 2), L.IGNORE_INDEX)
        assert L.dice_loss(Tensor(np.ones((2, 2, 2, 2))), labels).item() == 0.0

    def test_gradient(self):
        check_op_gradient("dice", ((1, 2, 3, 3), 3.0, None))


class TestFocal:
    def test_confident_correct_prediction_is_zero(self):
        labels = np.random.default_rng(11).integers(0, 2, size=(1, 4, 4))
        logits = np.where(planes(labels, 2)[0] == 1.0, 40.0, -40.0)
        assert L.focal_loss(Tensor(logits), labels).item() < 1e-12

    def test_single_positive_pixel_closed_form(self):
        val = L.focal_loss(Tensor(np.zeros((1, 1, 1, 1))),
                           np.zeros((1, 1, 1), dtype=np.int64)).item()
        np.testing.assert_allclose(val, 0.25 * 0.25 * np.log(2.0), rtol=1e-15)

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((2, 3, 3, 3)) * 3
        labels = rng.integers(0, 3, size=(2, 3, 3))
        labels[rng.random((2, 3, 3)) < 0.3] = L.IGNORE_INDEX
        got = L.focal_loss(Tensor(logits), labels).item()
        np.testing.assert_allclose(got, focal_oracle(logits, labels), rtol=1e-12)

    def test_saturated_logits_stay_finite(self):
        logits = np.array([[[[800.0]], [[-800.0]]]])
        labels = np.array([[[1]]])
        val = L.focal_loss(Tensor(logits), labels).item()
        assert np.isfinite(val) and val > 100  # confidently wrong is expensive

    def test_gradient(self):
        check_op_gradient("focal", ((1, 2, 3, 3), 3.0, None))


class TestDiceAndFocal:
    @pytest.mark.parametrize("loss", [L.dice_loss, L.focal_loss])
    def test_saturated_gradients_are_finite_and_signed(self, loss):
        # in plane 0: confidently wrong and confidently right at +-800,
        # plus live pixels; plane 1 holds the opposite logits and targets
        row = np.array([800.0, -800.0, 800.0, -800.0, 0.5, -0.5])
        logits = Tensor(np.stack([row, -row])[None, :, None], requires_grad=True)
        labels = np.array([[[1, 0, 0, 1, 0, 1]]])
        target = planes(labels, 2)[0]
        g = backward(loss(logits, labels))[logits]
        assert np.all(np.isfinite(g))
        assert np.all(g[target == 1.0] <= 0.0) and np.all(g[target == 0.0] >= 0.0)
        assert g[0, 0, 0, 4] < 0.0 < g[0, 0, 0, 5]
        if loss is L.focal_loss:  # log p_t keeps its slope where p_t saturates
            assert g[0, 0, 0, 0] > 0.0 > g[0, 0, 0, 1]

    @pytest.mark.parametrize("loss", [L.dice_loss, L.focal_loss])
    def test_rejects_unbatched_input(self, loss):
        with pytest.raises(ShapeError):
            loss(Tensor(np.zeros((2, 3, 3))), np.zeros((2, 3, 3), dtype=np.int64))

    @pytest.mark.parametrize("loss", [L.dice_loss, L.focal_loss])
    def test_no_kept_pixel_gives_zero(self, loss):
        labels = np.full((1, 3, 3), L.IGNORE_INDEX)
        assert loss(Tensor(np.zeros((1, 2, 3, 3))), labels).item() == 0.0


class TestTotalLoss:
    @staticmethod
    def case(seed, b=2, l=4, hw=8):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.standard_normal((b, l, hw, hw)), requires_grad=True)
        masks = [Tensor(rng.standard_normal((b, l, s, s)), requires_grad=True)
                 for s in (hw // 8, hw // 4, hw // 2)]
        labels = rng.integers(0, l, size=(b, hw, hw))
        labels[0, 0, 0] = L.IGNORE_INDEX
        return logits, masks, labels

    def test_weighted_sum_is_exact(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            ce, dice, focal = (Tensor(v) for v in rng.random(3))
            out = L.LossBreakdown.combine(ce, dice, focal)
            assert out.total.item() == ce.item() + 2.0 * dice.item() + 5.0 * focal.item()

    def test_composition_matches_component_oracles(self):
        logits, masks, labels = self.case(16)
        out = L.total_loss(logits, masks, labels)
        sums = [s.data for s in L.sum_masks_orderly(masks)]
        small = L.downsample_labels(labels, 4, 4)
        want_ce = ce_oracle(logits.data, labels)
        want_dice = np.mean([dice_oracle(s, small) for s in sums])
        want_focal = np.mean([focal_oracle(s, small) for s in sums])
        np.testing.assert_allclose(out.ce.item(), want_ce, rtol=1e-12)
        np.testing.assert_allclose(out.dice.item(), want_dice, rtol=1e-12)
        np.testing.assert_allclose(out.focal.item(), want_focal, rtol=1e-12)
        np.testing.assert_allclose(
            out.total.item(),
            want_ce + 2.0 * want_dice + 5.0 * want_focal, rtol=1e-12)

    def test_ignored_half_scores_like_the_kept_half(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal((1, 3, 8, 8)))
        mask = Tensor(rng.standard_normal((1, 3, 8, 8)), requires_grad=True)
        labels = rng.integers(0, 3, size=(1, 8, 8))
        kept = labels[:, :, :4].copy()
        labels[:, :, 4:] = L.IGNORE_INDEX
        out = L.total_loss(logits, [mask], labels)
        half = Tensor(mask.data[..., :4])
        np.testing.assert_allclose(out.dice.item(),
                                   L.dice_loss(half, kept).item(), rtol=1e-12)
        np.testing.assert_allclose(out.focal.item(),
                                   L.focal_loss(half, kept).item(), rtol=1e-12)
        np.testing.assert_allclose(out.focal.item(),
                                   focal_oracle(half.data, kept), rtol=1e-12)
        grad = backward(out.total, leaves=[mask])[mask]
        np.testing.assert_array_equal(grad[..., 4:], 0.0)
        assert np.all(grad[..., :4] != 0.0)

    def test_mask_mode_off_reduces_to_ce(self):
        logits, masks, labels = self.case(17)
        out = L.total_loss(logits, masks, labels, mask_mode="off")
        assert out.dice.item() == 0.0 and out.focal.item() == 0.0
        assert out.total.item() == out.ce.item()

    def test_final_mode_supervises_one_sum(self):
        logits, masks, labels = self.case(18)
        out = L.total_loss(logits, masks, labels, mask_mode="final")
        (s,) = L.sum_masks_orderly(masks, mode="final")
        small = L.downsample_labels(labels, 4, 4)
        np.testing.assert_allclose(out.dice.item(),
                                   dice_oracle(s.data, small), rtol=1e-12)

    def test_rejects_unknown_mode(self):
        logits, masks, labels = self.case(19)
        with pytest.raises(ValueError):
            L.total_loss(logits, masks, labels, mask_mode="sometimes")

    def test_gradient_through_everything(self):
        logits, masks, labels = self.case(20, b=1, l=3, hw=8)
        params = {"logits": logits}
        params.update({f"mask{i}": m for i, m in enumerate(masks)})
        rows = G.check_gradients(
            lambda: L.total_loss(logits, masks, labels).total,
            params, coords_per_tensor=4)
        assert all(r.passed(1e-4) for r in rows), [r for r in rows if not r.passed(1e-4)]


# ---------------------------------------------------------------------------
# the registry check at saturated logits (bound 50) and one kept pixel; it
# draws these losses' logits, ignored pixels and masks


def test_cross_entropy_gradient_matches_central_differences():
    check_op_gradient("cross_entropy", ((2, 4, 4, 4), 50.0, 1.0))


@pytest.mark.parametrize("name", ["dice", "focal"], ids=["dice_loss", "focal_loss"])
def test_mask_loss_gradient_matches_central_differences(name):
    check_op_gradient(name, ((2, 4, 4, 4), 50.0, 1.0))
