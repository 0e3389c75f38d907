import numpy as np
import pytest

from confdet.losses import sigmoid, sigmoid_regression_grad
from confdet.toytrain import (
    GRADCHECK_LOSSES,
    SATURATION_LOGIT,
    ToyDataset,
    ToyTrainConfig,
    finite_diff_check,
    initial_theta,
    make_dataset,
    train,
    write_trace_csv,
)


def saturation_scenario(n=100, d=3, seed=0):
    """Targets at zero while the saturated+ init pins every prediction ~0.999."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    features[:, 0] = 1.0
    return ToyDataset(features=features, targets=np.zeros(n), seed=seed)


class TestMakeDataset:
    def test_deterministic(self):
        a = make_dataset(50, 4, seed=9)
        b = make_dataset(50, 4, seed=9)
        assert (a.features == b.features).all()
        assert (a.targets == b.targets).all()

    def test_different_seeds_differ(self):
        a = make_dataset(50, 4, seed=1)
        b = make_dataset(50, 4, seed=2)
        assert not (a.targets == b.targets).all()

    def test_single_row(self):
        data = make_dataset(1, 3, seed=0)
        assert data.features.shape == (1, 3)
        assert data.targets.shape == (1,)

    def test_targets_in_unit_interval(self):
        data = make_dataset(10_000, 5, seed=3)
        assert data.targets.min() >= 0.0
        assert data.targets.max() <= 1.0

    def test_bias_column_is_constant_one(self):
        data = make_dataset(200, 4, seed=4)
        assert (data.features[:, 0] == 1.0).all()

    def test_rejects_bad_shape_args(self):
        with pytest.raises(ValueError):
            make_dataset(0, 3, seed=0)

    def test_dataset_validation(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            ToyDataset(features=np.ones((2, 2)), targets=np.array([0.5, 1.5]), seed=0)


class TestInitialTheta:
    def test_zeros(self):
        assert (initial_theta("zeros", 4) == 0.0).all()

    def test_saturated_plus_pins_predictions_high(self):
        data = saturation_scenario()
        theta = initial_theta("saturated+", 3)
        h = sigmoid(data.features @ theta)
        assert h == pytest.approx(np.full(100, sigmoid(SATURATION_LOGIT)), abs=1e-12)
        assert h.min() > 0.999

    def test_saturated_minus(self):
        theta = initial_theta("saturated-", 2)
        assert theta[0] == -SATURATION_LOGIT

    def test_unknown_init(self):
        with pytest.raises(ValueError):
            initial_theta("warm", 3)


class TestTrain:
    def test_tiny_learning_rate_keeps_mae_constant(self):
        data = make_dataset(50, 3, seed=5)
        cfg = ToyTrainConfig(loss_kind="ce", learning_rate=1e-300, max_iters=20)
        trace = train(data, cfg)
        assert len(trace) == 20
        assert trace.mae == pytest.approx(np.full(20, trace.mae[0]), abs=1e-12)

    def test_deterministic_traces(self):
        data = make_dataset(80, 3, seed=6)
        cfg = ToyTrainConfig(loss_kind="l2", learning_rate=0.5, max_iters=100, init="saturated+")
        a = train(data, cfg)
        b = train(data, cfg)
        assert (a.loss == b.loss).all()
        assert (a.mae == b.mae).all()
        assert (a.grad_norm == b.grad_norm).all()
        assert (a.final_theta == b.final_theta).all()

    def test_trace_length_bounded(self):
        data = make_dataset(30, 3, seed=7)
        trace = train(data, ToyTrainConfig(max_iters=5))
        assert len(trace) <= 5

    def test_divergence_truncates_and_flags(self):
        # badly-scaled features plus a huge step overflow the weights at once
        base = make_dataset(50, 3, seed=8)
        data = ToyDataset(features=base.features * 1e200, targets=base.targets, seed=8)
        cfg = ToyTrainConfig(loss_kind="ce", learning_rate=1e200, max_iters=50)
        trace = train(data, cfg)
        assert trace.diverged
        assert len(trace) < 50
        assert np.isfinite(trace.loss).all()

    def test_ce_escapes_saturation_before_l2(self):
        data = make_dataset(200, 3, seed=0)
        crossings = {}
        for loss in ("ce", "l2"):
            cfg = ToyTrainConfig(loss_kind=loss, learning_rate=0.5, max_iters=2000, init="saturated+")
            crossings[loss] = train(data, cfg).first_iteration_below(0.05)
        assert crossings["ce"] is not None
        assert crossings["l2"] is None or crossings["ce"] < crossings["l2"]

    def test_first_step_gradient_ratio_at_saturation(self):
        data = saturation_scenario()
        theta = initial_theta("saturated+", 3)
        z = data.features @ theta
        g_ce = sigmoid_regression_grad("ce", data.targets, z, data.features).mean(axis=0)
        g_l2 = sigmoid_regression_grad("l2", data.targets, z, data.features).mean(axis=0)
        ratio = np.linalg.norm(g_ce) / np.linalg.norm(g_l2)
        h = sigmoid(SATURATION_LOGIT)
        assert ratio >= 100.0
        assert ratio == pytest.approx(1.0 / (h * (1.0 - h)), rel=1e-9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ToyTrainConfig(loss_kind="huber")
        with pytest.raises(ValueError):
            ToyTrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            ToyTrainConfig(max_iters=0)
        with pytest.raises(ValueError):
            ToyTrainConfig(init="random")


class TestFiniteDiffCheck:
    @pytest.mark.parametrize("loss", GRADCHECK_LOSSES)
    def test_all_losses_verify(self, loss):
        assert finite_diff_check(loss, trials=100, seed=0) < 1e-6

    @pytest.mark.parametrize("seed", [1, 2, 3, 625, 694])
    def test_stable_across_seeds(self, seed):
        assert finite_diff_check("ce", trials=50, seed=seed) < 1e-6
        assert finite_diff_check("l2", trials=50, seed=seed) < 1e-6

    def test_deterministic(self):
        a = finite_diff_check("gfocal", trials=30, seed=5)
        b = finite_diff_check("gfocal", trials=30, seed=5)
        assert a == b

    def test_stationary_point_ce(self):
        # y == h is a stationary point: both gradients vanish together
        x = np.array([1.0, -0.5, 2.0])
        theta = np.array([0.2, 0.1, -0.3])
        z = float(x @ theta)
        y = sigmoid(z)
        analytic = sigmoid_regression_grad("ce", y, z, x)
        step = 1e-6
        numeric = np.zeros(3)
        for i in range(3):
            bump = np.zeros(3)
            bump[i] = step

            def value(t):
                h = sigmoid(float(x @ t))
                return -(y * np.log(h) + (1 - y) * np.log(1 - h))

            numeric[i] = (value(theta + bump) - value(theta - bump)) / (2 * step)
        assert analytic == pytest.approx(np.zeros(3), abs=1e-9)
        assert numeric == pytest.approx(np.zeros(3), abs=1e-9)

    def test_rejects_unknown_loss(self):
        with pytest.raises(ValueError):
            finite_diff_check("hinge")

    def test_weighted_ce_alias(self):
        assert finite_diff_check("weighted_ce", trials=10, seed=0) < 1e-6


class TestTraceCsv:
    def test_format(self, tmp_path):
        data = make_dataset(20, 3, seed=10)
        trace = train(data, ToyTrainConfig(max_iters=3))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,loss,mae,grad_norm"
        assert len(lines) == 4
        assert lines[1].startswith("0,")

    def test_divergence_footer(self, tmp_path):
        base = make_dataset(20, 3, seed=11)
        data = ToyDataset(features=base.features * 1e200, targets=base.targets, seed=11)
        trace = train(data, ToyTrainConfig(loss_kind="ce", learning_rate=1e200, max_iters=30))
        assert trace.diverged
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_text().strip().splitlines()[-1].startswith("# diverged")

    def test_identical_runs_identical_bytes(self, tmp_path):
        data = make_dataset(20, 3, seed=12)
        cfg = ToyTrainConfig(max_iters=10)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(train(data, cfg), p1)
        write_trace_csv(train(data, cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()
