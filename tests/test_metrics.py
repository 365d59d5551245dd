import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lesionseg.autodiff import Tape, Tensor, tsum
from lesionseg.errors import ShapeError, ValidationError, is_binary, is_probability
from lesionseg.metrics import MetricsReport, ce_loss, segmentation_metrics


def brute_force_metrics(pred_prob, gt, threshold=0.5):
    """Independent pixel-by-pixel oracle for the four metrics."""
    tp = fp = fn = 0
    abs_err = 0.0
    n = 0
    for i in range(pred_prob.shape[0]):
        for j in range(pred_prob.shape[1]):
            p = pred_prob[i, j] >= threshold
            g = gt[i, j] >= 0.5
            tp += p and g
            fp += p and not g
            fn += g and not p
            abs_err += abs(pred_prob[i, j] - gt[i, j])
            n += 1
    sr, gt_n = tp + fp, tp + fn
    if sr + gt_n == 0:
        dice, iou = 1.0, 1.0
    else:
        dice = 2.0 * tp / (sr + gt_n)
        iou = tp / (sr + gt_n - tp)
    recall = 1.0 if gt_n == 0 else tp / gt_n
    return dice, iou, recall, abs_err / n


class TestSegmentationMetrics:
    def test_perfect_prediction(self):
        gt = np.zeros((8, 8))
        gt[2:5, 3:6] = 1.0
        dice, iou, recall, mae = segmentation_metrics(gt, gt)
        assert (dice, iou, recall, mae) == (1.0, 1.0, 1.0, 0.0)
        # perfect once binarized, but MAE is taken on the probability map
        dice, _, _, mae = segmentation_metrics(np.full((4, 4), 0.8), np.ones((4, 4)))
        assert dice == 1.0 and mae == pytest.approx(0.2)

    def test_disjoint_masks(self):
        pred = np.zeros((4, 4))
        pred[0, 0] = 1.0
        gt = np.zeros((4, 4))
        gt[3, 3] = 1.0
        dice, iou, recall, _ = segmentation_metrics(pred, gt)
        assert (dice, iou, recall) == (0.0, 0.0, 0.0)

    def test_counted_2x2_example(self):
        pred = np.array([[1.0, 1.0], [0.0, 0.0]])
        gt = np.array([[0.0, 1.0], [0.0, 1.0]])
        dice, iou, recall, _ = segmentation_metrics(pred, gt)
        assert dice == 0.5
        assert iou == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert recall == 0.5

    def test_both_empty(self):
        zero = np.zeros((4, 4))
        dice, iou, recall, mae = segmentation_metrics(zero, zero)
        assert (dice, iou, recall, mae) == (1.0, 1.0, 1.0, 0.0)

    def test_gt_empty_pred_not(self):
        pred = np.ones((4, 4))
        dice, iou, recall, _ = segmentation_metrics(pred, np.zeros((4, 4)))
        assert (dice, iou, recall) == (0.0, 0.0, 1.0)

    def test_matches_bruteforce_on_100_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            pred = rng.random((16, 16))
            gt = (rng.random((16, 16)) > 0.5).astype(np.float64)
            got = segmentation_metrics(pred, gt)
            want = brute_force_metrics(pred, gt)
            for g, w in zip(got, want):
                assert abs(g - w) < 1e-12

    def test_dice_iou_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            pred = rng.random((16, 16))
            gt = (rng.random((16, 16)) > 0.5).astype(np.float64)
            dice, iou, _, _ = segmentation_metrics(pred, gt)
            assert abs(dice - 2.0 * iou / (1.0 + iou)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            segmentation_metrics(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_nonbinary_gt_rejected(self):
        with pytest.raises(ValidationError):
            segmentation_metrics(np.zeros((2, 2)), np.full((2, 2), 0.3))
        with pytest.raises(ValidationError, match="binary"):
            segmentation_metrics(np.zeros((2, 2)), np.array([[0.0, np.nan], [1.0, 0.0]]))

    def test_non_finite_prediction_rejected(self):
        # an all-NaN map binarizes to an empty mask: against an empty GT it
        # would score dice = iou = recall = 1 with a NaN MAE
        with pytest.raises(ValidationError, match=r"finite probabilities in \[0, 1\]"):
            segmentation_metrics(np.full((4, 4), np.nan), np.zeros((4, 4)))
        pred = np.zeros((4, 4))
        pred[1, 2] = np.inf
        with pytest.raises(ValidationError):
            segmentation_metrics(pred, np.zeros((4, 4)))

    @pytest.mark.parametrize("value", [7.0, 1.0 + 1e-12, -1e-300])
    def test_prediction_outside_unit_interval_rejected(self, value):
        pred = np.full((4, 4), 0.5)
        pred[0, 0] = value
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            segmentation_metrics(pred, np.ones((4, 4)))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.random((6, 6))
        gt = (rng.random((6, 6)) > 0.4).astype(np.float64)
        perm = rng.permutation(36)
        base = segmentation_metrics(pred, gt)
        shuffled = segmentation_metrics(
            pred.reshape(-1)[perm].reshape(6, 6), gt.reshape(-1)[perm].reshape(6, 6))
        assert np.allclose(base, shuffled, atol=1e-15)


class TestCeLoss:
    def test_perfect_prediction_tiny_loss(self):
        gt = np.zeros((8, 8))
        gt[3:6, 2:5] = 1.0
        loss = ce_loss([(Tensor(gt.copy()), Tensor(gt))])
        assert 0.0 <= loss.item() <= -math.log(1.0 - 1e-7) + 1e-12

    def test_uniform_half_is_ln2(self):
        pred = Tensor(np.full((8, 8), 0.5))
        gt = Tensor((np.arange(64).reshape(8, 8) % 2).astype(np.float64))
        loss = ce_loss([(pred, gt)])
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_additivity_over_pairs(self):
        rng = np.random.default_rng(3)
        pairs = []
        singles = []
        for _ in range(2):
            pred = Tensor(rng.uniform(0.01, 0.99, (5, 5)))
            gt = Tensor((rng.random((5, 5)) > 0.5).astype(np.float64))
            pairs.append((pred, gt))
            singles.append(ce_loss([(pred, gt)]).item())
        assert ce_loss(pairs).item() == pytest.approx(sum(singles), abs=1e-12)

    def test_nonbinary_gt_rejected(self):
        with pytest.raises(ValidationError):
            ce_loss([(Tensor(np.zeros((2, 2))), Tensor(np.full((2, 2), 0.4)))])
        with pytest.raises(ValidationError, match="binary"):
            ce_loss([(Tensor(np.zeros((2, 2))), Tensor(np.array([[np.nan, 1.0], [0.0, 1.0]])))])

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValidationError):
            ce_loss([])

    def test_monotone_toward_gt(self):
        rng = np.random.default_rng(8)
        gt = (rng.random((6, 6)) > 0.5).astype(np.float64)
        losses = []
        for alpha in np.linspace(0.0, 0.9, 10):
            pred = 0.5 + alpha * (gt - 0.5)
            losses.append(ce_loss([(Tensor(pred), Tensor(gt))]).item())
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            pred = Tensor(rng.random((4, 4)))
            gt = Tensor((rng.random((4, 4)) > 0.5).astype(np.float64))
            assert ce_loss([(pred, gt)]).item() >= 0.0

    def test_gradient_flows_to_pred(self):
        rng = np.random.default_rng(4)
        pred = Tensor(rng.uniform(0.2, 0.8, (4, 4)), requires_grad=True)
        gt = Tensor((rng.random((4, 4)) > 0.5).astype(np.float64))
        with Tape() as tape:
            loss = ce_loss([(pred, gt)])
        tape.backward(loss)
        # d/dp of -[g log p + (1-g) log(1-p)] = (p - g) / (p (1-p)), / N for the mean
        expected = (pred.data - gt.data) / (pred.data * (1 - pred.data)) / pred.data.size
        assert np.allclose(pred.grad, expected, atol=1e-12)


_VALUES = st.sampled_from([0.0, -0.0, 1.0, 0.5, -1e-300, 1.0 + 1e-12, 7.0,
                           np.nan, np.inf, -np.inf])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_VALUES, max_size=6))
def test_value_rules_accept_what_the_old_checks_accepted_and_refuse_nan(values):
    x = np.array(values, dtype=np.float64)
    # the binary rule the mask sites used to spell out with np.unique
    assert is_binary(x) == bool(np.isin(np.unique(x), (0.0, 1.0)).all())
    # the old min/max range test, plus NaN, which it let through
    old_range = x.size == 0 or (x.min() >= 0.0 and x.max() <= 1.0)
    assert is_probability(x) == (old_range and not np.isnan(x).any())


class TestMetricsReport:
    def test_macro_is_mean_of_sequences(self):
        report = MetricsReport()
        report.add_sequence("a", [(1.0, 1.0, 1.0, 0.0), (0.5, 0.4, 0.6, 0.1)])
        report.add_sequence("b", [(0.2, 0.1, 0.3, 0.5)])
        assert report.dice == pytest.approx((0.75 + 0.2) / 2, abs=1e-12)
        assert report.frames == 3

    def test_table_shape(self):
        report = MetricsReport()
        report.add_sequence("seq", [(0.8, 0.7, 0.9, 0.05)])
        table = report.to_table("ours")
        lines = table.strip().split("\n")
        assert lines[0].split("\t") == ["Method", "Dice", "Iou", "Recall", "MAE"]
        assert lines[1].split("\t")[0] == "ours"
