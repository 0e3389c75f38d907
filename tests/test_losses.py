import math
import struct

import numpy as np
import pytest

from confdet.geometry import BoxDelta
from confdet.losses import (
    ConfLossKind,
    FocalParams,
    ce_confidence_loss,
    ce_confidence_loss_grad,
    confidence_loss,
    confidence_loss_grad,
    focal_loss,
    focal_loss_grad,
    gfocal_loss,
    gfocal_loss_grad,
    l1_confidence_loss,
    l1_localization_loss,
    l2_confidence_loss,
    sigmoid,
    sigmoid_regression_grad,
    smooth_l1_confidence_loss,
    total_loss,
    weighted_ce_confidence_loss,
    weighted_ce_confidence_loss_grad,
)
from toytrain_oracle import sigmoid_two_divide

LN2 = math.log(2.0)


def logit(p):
    return math.log(p / (1.0 - p))


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_antisymmetry(self):
        for z in np.linspace(-20, 20, 41):
            assert sigmoid(-z) == pytest.approx(1.0 - sigmoid(z), abs=1e-15)

    def test_known_value(self):
        assert sigmoid(math.log(3.0)) == pytest.approx(0.75)

    def test_no_overflow_at_extreme_logits(self):
        with np.errstate(over="raise"):
            low = sigmoid(-500.0)
            high = sigmoid(500.0)
        assert 0.0 <= low < 1e-200
        assert high == 1.0  # saturates in float64, but finite and exact

    def test_monotonic(self):
        z = np.linspace(-30, 30, 2000)
        assert (np.diff(sigmoid(z)) >= 0).all()

    def test_array_shape(self):
        out = sigmoid(np.zeros((3, 2)))
        assert out.shape == (3, 2)
        assert (out == 0.5).all()

    def test_one_divide_matches_two_divides_bit_for_bit(self):
        # the same value at every edge, NaN's bits included
        edges = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                 -1e-310, 745.0, -745.0, 746.0, -746.0, 36.7, -36.7, 1e308, -1e308, 1.7976931348623157e308]
        rng = np.random.default_rng(0)
        patterns = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
        values = np.concatenate([edges, patterns, rng.standard_normal(100_000) * 40.0])
        with np.errstate(invalid="ignore"):
            assert (sigmoid(values).view(np.uint64) == sigmoid_two_divide(values).view(np.uint64)).all()
            for z in edges:
                got, want = sigmoid(z), sigmoid_two_divide(z)
                assert type(got) is float and struct.pack("<d", got) == struct.pack("<d", want)


class TestFocalLoss:
    def test_confident_positive_vanishes(self):
        assert focal_loss([40.0], [True], n_pos=1) == pytest.approx(0.0, abs=1e-12)

    def test_single_negative_at_half(self):
        # alpha_t = 0.75, p_t = 0.5: 0.75 * 0.25 * ln 2
        expected = 0.75 * 0.25 * LN2
        assert focal_loss([0.0], [False], n_pos=1) == pytest.approx(expected, abs=1e-12)

    def test_degenerates_to_half_cross_entropy(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-4, 4, 50)
        pos = rng.random(50) < 0.4
        params = FocalParams(alpha=0.5, gamma=0.0)
        value = focal_loss(z, pos, n_pos=int(pos.sum()), params=params)
        p = sigmoid(z)
        ce = np.where(pos, -np.log(p), -np.log(1.0 - p)).sum() / int(pos.sum())
        assert value == pytest.approx(0.5 * ce, abs=1e-12)

    def test_rejects_zero_positives(self):
        with pytest.raises(ValueError):
            focal_loss([0.0], [False], n_pos=0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-3, 3, 20)
        pos = rng.random(20) < 0.5
        perm = rng.permutation(20)
        assert focal_loss(z, pos, 4) == pytest.approx(focal_loss(z[perm], pos[perm], 4))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FocalParams(alpha=1.5)
        with pytest.raises(ValueError):
            FocalParams(gamma=-1.0)


class TestL1LocalizationLoss:
    def test_zero_at_fit(self):
        deltas = [BoxDelta(0.1, 0.2, -0.3, 0.4)]
        assert l1_localization_loss(deltas, deltas, n_pos=1) == 0.0

    def test_sum_of_absolute_components(self):
        pred = [BoxDelta(0.1, -0.2, 0.0, 0.3)]
        target = [BoxDelta(0.0, 0.0, 0.0, 0.0)]
        assert l1_localization_loss(pred, target, n_pos=1) == pytest.approx(0.6)

    def test_homogeneous(self):
        pred = [BoxDelta(0.2, -0.4, 0.0, 0.6)]
        target = [BoxDelta(0.0, 0.0, 0.0, 0.0)]
        single = l1_localization_loss([BoxDelta(0.1, -0.2, 0.0, 0.3)], target, n_pos=1)
        assert l1_localization_loss(pred, target, n_pos=1) == pytest.approx(2.0 * single)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            l1_localization_loss([BoxDelta(0, 0, 0, 0)], [], n_pos=1)

    def test_accepts_arrays(self):
        pred = np.array([[0.1, -0.2, 0.0, 0.3]])
        target = np.zeros((1, 4))
        assert l1_localization_loss(pred, target, n_pos=1) == pytest.approx(0.6)


class TestCeConfidenceLoss:
    def test_minimum_at_matching_prediction(self):
        rng = np.random.default_rng(2)
        y = rng.uniform(0.05, 0.95, 20)
        z = np.array([logit(v) for v in y])
        value = ce_confidence_loss(z, y)
        entropy = (-(y * np.log(y) + (1 - y) * np.log(1 - y))).sum() / 20
        assert value == pytest.approx(entropy, abs=1e-9)
        # any perturbation increases the loss
        assert ce_confidence_loss(z + 0.3, y) > value

    def test_single_positive_known_value(self):
        assert ce_confidence_loss([0.0], [1.0], n_pos=1) == pytest.approx(LN2, abs=1e-12)

    def test_mask_excludes_negatives(self):
        z = [0.3, -4.0, 1.2, 9.0]
        y = [0.7, 0.0, 0.5, 0.0]
        pos = [True, False, True, False]
        masked = ce_confidence_loss(z, y, pos)
        positives_only = ce_confidence_loss([0.3, 1.2], [0.7, 0.5])
        assert masked == pytest.approx(positives_only, abs=1e-12)

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            ce_confidence_loss([0.0], [1.2])

    def test_rejects_no_positives(self):
        with pytest.raises(ValueError):
            ce_confidence_loss([0.0], [0.5], [False])


class TestWeightedCeLoss:
    def test_weight_zero_equals_positives_only(self):
        z = [0.5, -1.0, 2.0]
        y = [0.8, 0.0, 0.3]
        pos = [True, False, True]
        assert weighted_ce_confidence_loss(z, y, pos, w=0.0) == pytest.approx(
            ce_confidence_loss(z, y, pos), abs=1e-15
        )

    def test_weight_one_is_plain_ce_over_all(self):
        z = np.array([0.5, -1.0, 2.0, 0.1])
        pos = np.array([True, False, True, False])
        y = np.array([0.8, 0.0, 0.3, 0.0])
        n_pos = 2
        value = weighted_ce_confidence_loss(z, y, pos, w=1.0)
        p = np.clip(sigmoid(z), 1e-12, 1 - 1e-12)
        all_ce = (-(y * np.log(p) + (1 - y) * np.log(1 - p))).sum() / n_pos
        assert value == pytest.approx(all_ce, abs=1e-12)

    def test_small_weight_many_negatives(self):
        # 1 positive (y=1, p=0.5) + 10000 negatives (p=0.5, weight 1e-4)
        z = np.zeros(10001)
        pos = np.zeros(10001, dtype=bool)
        pos[0] = True
        y = np.where(pos, 1.0, 0.0)
        value = weighted_ce_confidence_loss(z, y, pos, w=0.0001)
        assert value == pytest.approx(2.0 * LN2, abs=1e-9)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            weighted_ce_confidence_loss([0.0], [1.0], [True], w=-0.1)


class TestGFocalLoss:
    def test_zero_at_fit(self):
        y = np.array([0.3, 0.8, 0.55])
        z = np.array([logit(v) for v in y])
        assert gfocal_loss(z, sigmoid(z)) == 0.0

    def test_zero_at_fit_many_random_vectors(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            z = rng.uniform(-6, 6, n)
            y = sigmoid(z)
            assert abs(gfocal_loss(z, y, n)) <= 1e-12

    def test_beta_zero_is_cross_entropy(self):
        rng = np.random.default_rng(4)
        z = rng.uniform(-4, 4, 30)
        y = rng.uniform(0, 1, 30)
        assert gfocal_loss(z, y, beta=0.0) == pytest.approx(ce_confidence_loss(z, y), abs=1e-15)

    def test_known_value(self):
        # y = 1, p = 0.5, beta = 2: 0.25 * ln 2
        assert gfocal_loss([0.0], [1.0], beta=2.0) == pytest.approx(0.25 * LN2, abs=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = rng.uniform(-8, 8, 10)
            y = rng.uniform(0, 1, 10)
            assert gfocal_loss(z, y) >= 0.0

    def test_strictly_positive_off_fit(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            z = rng.uniform(-5, 5, 8)
            y = np.clip(sigmoid(z) + rng.uniform(0.01, 0.2, 8), 0.0, 1.0)
            if (y == sigmoid(z)).any():
                continue
            assert gfocal_loss(z, y) > 0.0


class TestSigmoidRegressionGrad:
    def test_ce_gradient_is_error_times_input(self):
        z = logit(0.999)
        grad = sigmoid_regression_grad("ce", 0.0, z, np.array([1.0]))
        assert grad == pytest.approx([0.999], abs=1e-9)

    def test_l2_gradient_vanishes_at_saturation(self):
        z = logit(0.999)
        grad = sigmoid_regression_grad("l2", 0.0, z, np.array([1.0]))
        assert abs(grad[0]) == pytest.approx(0.999 * 0.999 * 0.001, abs=1e-9)

    def test_saturation_ratio_formula(self):
        # |grad ce| / |grad l2| = 1 / (h (1 - h)) for any shared point
        for p in (0.9, 0.99, 0.999, 0.9999):
            z = logit(p)
            g_ce = sigmoid_regression_grad("ce", 0.0, z, np.array([1.0]))
            g_l2 = sigmoid_regression_grad("l2", 0.0, z, np.array([1.0]))
            h = sigmoid(z)
            assert abs(g_ce[0]) / abs(g_l2[0]) == pytest.approx(1.0 / (h * (1.0 - h)), rel=1e-9)

    def test_zero_at_fit(self):
        z = logit(0.4)
        for kind in ("l2", "ce"):
            grad = sigmoid_regression_grad(kind, sigmoid(z), z, np.array([2.0, -1.0]))
            assert grad == pytest.approx(np.zeros(2), abs=1e-12)

    def test_l1_subgradient_zero_at_tie(self):
        z = logit(0.4)
        grad = sigmoid_regression_grad("l1", sigmoid(z), z, np.array([2.0, -1.0]))
        assert grad == pytest.approx(np.zeros(2), abs=1e-12)

    def test_l1_magnitude_midrange(self):
        # near y == h inside (0.2, 0.8) the l1 gradient stays ~ h(1-h)|x|
        z = logit(0.5)
        grad = sigmoid_regression_grad("l1", 0.49, z, np.array([1.0]))
        assert abs(grad[0]) == pytest.approx(0.25, abs=1e-12)
        assert abs(grad[0]) >= 0.16

    def test_batched_shapes(self):
        rng = np.random.default_rng(6)
        y = rng.uniform(0, 1, 5)
        z = rng.uniform(-3, 3, 5)
        x = rng.uniform(-1, 1, (5, 3))
        grads = sigmoid_regression_grad("ce", y, z, x)
        assert grads.shape == (5, 3)
        for i in range(5):
            assert grads[i] == pytest.approx(sigmoid_regression_grad("ce", y[i], z[i], x[i]))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            sigmoid_regression_grad("huber", 0.5, 0.0, np.array([1.0]))

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            sigmoid_regression_grad("ce", 1.5, 0.0, np.array([1.0]))

    def test_ce_magnitude_monotone_in_error(self):
        z = 0.0
        gaps = [abs(sigmoid_regression_grad("ce", y, z, np.array([1.0]))[0]) for y in (0.5, 0.3, 0.1, 0.0)]
        assert gaps == sorted(gaps)


class TestAnalyticGradsAgainstNumeric:
    """Spot checks; the systematic sweep lives in the gradcheck harness."""

    @staticmethod
    def _numeric(fn, z, step=1e-6):
        out = np.zeros_like(z)
        for i in range(z.size):
            bump = np.zeros_like(z)
            bump[i] = step
            out[i] = (fn(z + bump) - fn(z - bump)) / (2 * step)
        return out

    def test_focal_grad(self):
        z = np.array([0.7, -1.3, 2.0, 0.0])
        pos = np.array([True, False, False, True])
        analytic = focal_loss_grad(z, pos, 2)
        numeric = self._numeric(lambda zz: focal_loss(zz, pos, 2), z)
        assert analytic == pytest.approx(numeric, abs=1e-8)

    def test_focal_grad_gamma_zero(self):
        z = np.array([0.4, -0.9])
        pos = np.array([True, False])
        params = FocalParams(alpha=0.5, gamma=0.0)
        analytic = focal_loss_grad(z, pos, 1, params)
        numeric = self._numeric(lambda zz: focal_loss(zz, pos, 1, params), z)
        assert analytic == pytest.approx(numeric, abs=1e-8)

    def test_gfocal_grad(self):
        z = np.array([0.2, -2.0, 1.1])
        y = np.array([0.9, 0.1, 0.5])
        analytic = gfocal_loss_grad(z, y, 3)
        numeric = self._numeric(lambda zz: gfocal_loss(zz, y, 3), z)
        assert analytic == pytest.approx(numeric, abs=1e-8)

    def test_gfocal_grad_zero_exactly_at_fit(self):
        y = np.array([0.25, 0.75])
        z = np.array([logit(v) for v in y])
        assert gfocal_loss_grad(z, sigmoid(z), 2) == pytest.approx(np.zeros(2), abs=1e-12)

    def test_weighted_ce_grad(self):
        z = np.array([0.2, -2.0, 1.1, 3.0])
        pos = np.array([True, False, True, False])
        y = np.where(pos, [0.9, 0.0, 0.5, 0.0], 0.0)
        analytic = weighted_ce_confidence_loss_grad(z, y, pos, w=0.25)
        numeric = self._numeric(lambda zz: weighted_ce_confidence_loss(zz, y, pos, w=0.25), z)
        assert analytic == pytest.approx(numeric, abs=1e-8)

    def test_ce_grad(self):
        z = np.array([0.2, -2.0])
        y = np.array([0.9, 0.2])
        analytic = ce_confidence_loss_grad(z, y)
        numeric = self._numeric(lambda zz: ce_confidence_loss(zz, y), z)
        assert analytic == pytest.approx(numeric, abs=1e-8)


class TestConfLossKindDispatch:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            ConfLossKind(name="hinge")
        with pytest.raises(ValueError):
            ConfLossKind(name="gfocal", beta=-1.0)
        with pytest.raises(ValueError):
            ConfLossKind(name="weighted_ce", w=-0.5)

    def test_dispatch_matches_direct_calls(self):
        rng = np.random.default_rng(8)
        z = rng.uniform(-4, 4, 12)
        y = rng.uniform(0, 1, 12)
        pos = rng.random(12) < 0.6
        y = np.where(pos, y, 0.0)
        n_pos = int(pos.sum())
        assert confidence_loss(ConfLossKind("ce"), z, y, pos) == pytest.approx(
            ce_confidence_loss(z, y, pos)
        )
        assert confidence_loss(ConfLossKind("weighted_ce", w=0.1), z, y, pos) == pytest.approx(
            weighted_ce_confidence_loss(z, y, pos, 0.1)
        )
        assert confidence_loss(ConfLossKind("gfocal"), z, y, pos) == pytest.approx(
            gfocal_loss(z[pos], y[pos], n_pos)
        )
        assert confidence_loss(ConfLossKind("l1"), z, y, pos) == pytest.approx(
            l1_confidence_loss(z, y, pos)
        )
        assert confidence_loss(ConfLossKind("l2"), z, y, pos) == pytest.approx(
            l2_confidence_loss(z, y, pos)
        )
        assert confidence_loss(ConfLossKind("smooth_l1"), z, y, pos) == pytest.approx(
            smooth_l1_confidence_loss(z, y, pos)
        )

    def test_every_kind_gradient_matches_numeric(self):
        rng = np.random.default_rng(9)
        z = rng.uniform(-4, 4, 10)
        pos = rng.random(10) < 0.6
        y = np.where(pos, rng.uniform(0, 1, 10), 0.0)
        for name in ("l1", "smooth_l1", "l2", "ce", "weighted_ce", "gfocal"):
            kind = ConfLossKind(name, w=0.2)
            analytic = confidence_loss_grad(kind, z, y, pos)
            numeric = TestAnalyticGradsAgainstNumeric._numeric(
                lambda zz: confidence_loss(kind, zz, y, pos), z
            )
            assert analytic == pytest.approx(numeric, abs=1e-7), name

    def test_smooth_l1_linear_branch(self):
        # with a small threshold the loss goes linear above it
        value = smooth_l1_confidence_loss([logit(0.9)], [0.0], threshold=0.5)
        assert value == pytest.approx(0.9 - 0.25, abs=1e-9)


class TestTotalLoss:
    def test_zero(self):
        assert total_loss(0.0, 0.0, 0.0).total == 0.0

    def test_sum(self):
        breakdown = total_loss(1.0, 2.0, 3.0)
        assert breakdown.total == 6.0
        assert breakdown.classification == 1.0
        assert breakdown.localization == 2.0
        assert breakdown.object_confidence == 3.0

    def test_commutative_total(self):
        assert total_loss(1.0, 2.0, 3.0).total == total_loss(3.0, 1.0, 2.0).total

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            total_loss(-1.0, 0.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            total_loss(float("inf"), 0.0, 0.0)


def test_losses_permutation_invariant():
    rng = np.random.default_rng(10)
    z = rng.uniform(-3, 3, 15)
    y = rng.uniform(0, 1, 15)
    pos = rng.random(15) < 0.5
    y = np.where(pos, y, 0.0)
    perm = rng.permutation(15)
    for name in ("l1", "l2", "ce", "weighted_ce", "gfocal", "smooth_l1"):
        kind = ConfLossKind(name, w=0.3)
        assert confidence_loss(kind, z, y, pos) == pytest.approx(
            confidence_loss(kind, z[perm], y[perm], pos[perm]), abs=1e-12
        )


class TestSaturatedLogits:
    """At |z| = 40, p is 1.0 or 4e-18 and p(1 - p) has underflowed."""

    z = np.array([40.0, -40.0, 40.0, -40.0])
    y = np.array([0.0, 1.0, 0.3, 0.7])

    @pytest.mark.parametrize("name", ["ce", "weighted_ce"])
    def test_cross_entropy_grad_is_p_minus_y(self, name):
        grad = confidence_loss_grad(ConfLossKind(name), self.z, self.y, n_pos=1)
        assert np.array_equal(grad, sigmoid(self.z) - self.y)
        assert np.abs(grad).min() >= 0.7  # a confidently wrong output keeps its full gradient

    @pytest.mark.parametrize("name", ["l1", "l2", "smooth_l1"])
    def test_regression_grads_vanish(self, name):
        grad = confidence_loss_grad(ConfLossKind(name), self.z, self.y)
        assert np.abs(grad).max() <= 1e-15

    def test_gfocal_finite(self):
        kind = ConfLossKind("gfocal")
        assert math.isfinite(confidence_loss(kind, self.z, self.y))
        assert np.isfinite(confidence_loss_grad(kind, self.z, self.y)).all()


class TestNanRejected:
    """NaN in a target, a logit or a loss parameter raises instead of returning NaN."""

    nan = float("nan")

    @pytest.mark.parametrize("name", ["l1", "smooth_l1", "l2", "ce", "weighted_ce", "gfocal"])
    def test_nan_target(self, name):
        with pytest.raises(ValueError, match="targets"):
            confidence_loss(ConfLossKind(name), [0.0, 1.0], [self.nan, 0.5])
        with pytest.raises(ValueError, match="targets"):
            confidence_loss_grad(ConfLossKind(name), [0.0, 1.0], [0.5, self.nan])

    @pytest.mark.parametrize("name", ["l1", "smooth_l1", "l2", "ce", "weighted_ce", "gfocal"])
    def test_nan_logit(self, name):
        with pytest.raises(ValueError, match="logits"):
            confidence_loss(ConfLossKind(name), [self.nan, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="logits"):
            confidence_loss_grad(ConfLossKind(name), [0.0, self.nan], [0.5, 0.5])

    def test_nan_logit_in_per_kind_function(self):
        with pytest.raises(ValueError, match="logits"):
            ce_confidence_loss([self.nan], [0.5])

    def test_nan_logit_in_focal(self):
        with pytest.raises(ValueError, match="logits"):
            focal_loss([self.nan, 0.0], [True, False], 1)
        with pytest.raises(ValueError, match="logits"):
            focal_loss_grad([self.nan, 0.0], [True, False], 1)

    def test_nan_in_sigmoid_regression_grad(self):
        with pytest.raises(ValueError, match="logits"):
            sigmoid_regression_grad("ce", 0.5, self.nan, np.ones(2))
        with pytest.raises(ValueError, match="targets"):
            sigmoid_regression_grad("l2", self.nan, 0.0, np.ones(2))

    @pytest.mark.parametrize("field", ["w", "beta", "smooth_l1_threshold"])
    def test_nan_loss_parameter(self, field):
        with pytest.raises(ValueError):
            ConfLossKind("weighted_ce", **{field: self.nan})

    def test_nan_focal_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            FocalParams(gamma=self.nan)

    @pytest.mark.parametrize("name", ["l1", "smooth_l1", "l2", "ce", "weighted_ce", "gfocal"])
    def test_saturated_finite_logits_stay_valid(self, name):
        z, y = [700.0, -700.0], [0.2, 0.9]
        assert math.isfinite(confidence_loss(ConfLossKind(name), z, y))
        assert np.isfinite(confidence_loss_grad(ConfLossKind(name), z, y)).all()
        assert np.isfinite(sigmoid_regression_grad("ce", np.array(y), np.array(z), np.ones((2, 3)))).all()
