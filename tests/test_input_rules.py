"""Each input rule has one copy, and every value it covers fails it the same way.

The [0, 1] rule covers eleven values in four modules, the class-id rule
two records, the count rule ten values in four modules, the finite rule
the four loss parameters, and the training-target rule both the losses
and the toy dataset.  ``train`` takes its gradient from the loss table; a
reference loop that calls the public ``sigmoid_regression_grad`` on every
iteration holds it bit for bit.
"""

import math
import re

import numpy as np
import pytest

from confdet import losses
from confdet.analysis import Condition
from confdet.assignment import GroundTruthBox
from confdet.cli import main
from confdet.fusion import FusionParams, fuse
from confdet.geometry import AnchorGridConfig, Box, _areas, boxes_to_array
from confdet.losses import ConfLossKind, FocalParams, confidence_loss, focal_loss, sigmoid, sigmoid_regression_grad
from confdet.postprocess import Detection, NmsParams, dump_detections_jsonl, inference_pipeline, load_detections_jsonl
from confdet.toytrain import (
    INITS, REGRESSION_LOSSES, ToyDataset, ToyTrainConfig, finite_diff_check, initial_theta, make_dataset, train,
)

_BOX = Box(0.0, 0.0, 1.0, 1.0)

# (name in the message, a constructor of the checked value)
_UNIT_VALUES = [
    ("alpha", lambda v: FusionParams(alpha=v)),
    ("obj_gate", lambda v: FusionParams(obj_gate=v)),
    ("cls_score", lambda v: fuse(v, 0.5, FusionParams())),
    ("obj_score", lambda v: fuse(0.5, v, FusionParams())),
    ("cls_score", lambda v: Detection(_BOX, 0, v)),
    ("obj_score", lambda v: Detection(_BOX, 0, 0.5, obj_score=v)),
    ("fused_score", lambda v: Detection(_BOX, 0, 0.5, fused_score=v)),
    ("iou_threshold", lambda v: NmsParams(iou_threshold=v)),
    ("score_threshold", lambda v: NmsParams(score_threshold=v)),
    ("condition threshold", lambda v: Condition("iou", v)),
    ("alpha", lambda v: FocalParams(alpha=v)),
]
_UNIT_IDS = [
    "FusionParams.alpha", "FusionParams.obj_gate", "fuse.cls", "fuse.obj", "Detection.cls_score",
    "Detection.obj_score", "Detection.fused_score", "NmsParams.iou_threshold", "NmsParams.score_threshold",
    "Condition.threshold", "FocalParams.alpha",
]


@pytest.mark.parametrize(("name", "build"), _UNIT_VALUES, ids=_UNIT_IDS)
@pytest.mark.parametrize(("value", "shown"), [(math.nan, "nan"), (-1e-9, "-1e-09"), (1.0 + 1e-9, "1.000000001")])
def test_unit_rule_message(name, build, value, shown):
    with pytest.raises(ValueError) as err:
        build(value)
    assert str(err.value) == f"{name} must be in [0, 1], got {shown}"


@pytest.mark.parametrize(("name", "build"), _UNIT_VALUES, ids=_UNIT_IDS)
def test_unit_rule_accepts_both_ends(name, build):
    build(0.0)
    build(1.0)


@pytest.mark.parametrize("class_id", [-1, True, 1.0, "0"])
def test_class_id_rule_is_shared(class_id):
    messages = set()
    for build in (lambda: Detection(_BOX, class_id, 0.5), lambda: GroundTruthBox(_BOX, class_id)):
        with pytest.raises(ValueError) as err:
            build()
        messages.add(str(err.value))
    assert messages == {f"class_id must be a non-negative integer, got {class_id!r}"}


def test_areas_equal_box_area_bit_for_bit():
    rng = np.random.default_rng(4)
    boxes = []
    for x, y, w, h in rng.uniform(-1e3, 1e3, (200, 4)).tolist():
        boxes.append(Box(x, y, x + abs(w) * 1e-3, y + abs(h) * 1e5))
    got = _areas(boxes_to_array(boxes)).tolist()
    assert [a.hex() for a in got] == [b.area.hex() for b in boxes]


@pytest.mark.parametrize(("name", "build"), [
    ("gamma", lambda v: FocalParams(gamma=v)),
    ("beta", lambda v: ConfLossKind("gfocal", beta=v)),
    ("w", lambda v: ConfLossKind("weighted_ce", w=v)),
    ("smooth_l1_threshold", lambda v: ConfLossKind("smooth_l1", smooth_l1_threshold=v)),
])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_loss_parameter_rejected_by_name(name, build, value):
    with pytest.raises(ValueError, match=rf"^{name}\b.* must be finite .*, got {value}$"):
        build(value)


class TestTopK:
    def _dets(self):
        return [Detection(Box(i * 20.0, 0.0, i * 20.0 + 10.0, 10.0), 0, 0.5 + 0.1 * i, 0.9) for i in range(5)]

    @pytest.mark.parametrize("top_k", [-1, -3])
    def test_negative_top_k_raises(self, top_k):
        with pytest.raises(ValueError, match=f"top_k must be >= 0, got {top_k}"):
            inference_pipeline(self._dets(), top_k=top_k)

    @pytest.mark.parametrize("top_k", [True, False, 2.5, 2.0, "2"])
    def test_non_int_top_k_raises(self, top_k):
        with pytest.raises(ValueError, match=re.escape(f"top_k must be an int, got {top_k!r}")):
            inference_pipeline(self._dets(), top_k=top_k)

    def test_numpy_int_top_k_accepted(self):
        assert inference_pipeline(self._dets(), top_k=np.int64(2)) == inference_pipeline(self._dets(), top_k=2)

    def test_zero_top_k_keeps_no_box(self):
        assert inference_pipeline(self._dets(), top_k=0) == []

    @pytest.mark.parametrize("flag", ["-1", "-3"])
    def test_cli_negative_topk_exits_2(self, tmp_path, capsys, flag):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        dump_detections_jsonl(self._dets(), src, include_fused=False)
        assert main(["nms", str(src), str(out), "--topk", flag]) == 2
        assert f"top_k must be >= 0, got {flag}" in capsys.readouterr().err

    def test_cli_zero_topk_writes_no_box(self, tmp_path):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        dump_detections_jsonl(self._dets(), src, include_fused=False)
        assert main(["nms", str(src), str(out), "--topk", "0"]) == 0
        assert len(load_detections_jsonl(out)) == 0


class TestTrainingInputs:
    def test_nan_learning_rate_rejected(self):
        with pytest.raises(ValueError, match="learning_rate must be > 0, got nan"):
            ToyTrainConfig(learning_rate=math.nan)

    def test_nan_target_rejected(self):
        targets = np.full(4, 0.5)
        targets[2] = math.nan
        with pytest.raises(ValueError, match=r"targets must lie in \[0, 1\]"):
            ToyDataset(features=np.ones((4, 2)), targets=targets, seed=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_rejected(self, value):
        with pytest.raises(ValueError, match="features must be finite: NaN and inf are rejected"):
            ToyDataset(features=[[1.0, value], [1.0, 2.0]], targets=[0.5, 0.5], seed=0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match=r"features must be \(n, d\) with n >= 1, got shape \(0, 3\)"):
            ToyDataset(features=np.empty((0, 3)), targets=np.empty(0), seed=0)

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -math.inf])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ValueError, match=f"noise must be finite, got {noise}"):
            make_dataset(10, 3, seed=0, noise=noise)

    @pytest.mark.parametrize(("flag", "value", "message"), [
        ("--lr", "nan", "learning_rate must be > 0, got nan"), ("--noise", "nan", "noise must be finite, got nan"),
        ("--noise", "inf", "noise must be finite, got inf"),
    ])
    def test_cli_non_finite_exits_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "trace.csv"
        assert main(["toytrain", str(out), flag, value, "--iters", "5"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestGradcheckTolerance:
    def test_nan_tol_rejected(self):
        with pytest.raises(ValueError, match="tol must be >= 0, got nan"):
            finite_diff_check("ce", tol=math.nan)

    def test_cli_nan_tol_exits_2(self, capsys):
        assert main(["gradcheck", "--loss", "ce", "--tol", "nan"]) == 2
        captured = capsys.readouterr()
        assert "tol must be >= 0, got nan" in captured.err
        assert captured.out == ""


def _reference_train(data, cfg):
    """``train``'s loop with the public per-sample gradient called on every iteration."""
    x, y = data.features, data.targets
    theta = initial_theta(cfg.init, x.shape[1])
    value, abs_err = losses._LOSSES[cfg.loss_kind].value, losses._LOSSES["l1"].value
    loss_rows, mae_rows, norm_rows, diverged = [], [], [], False
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_iters):
            z = x @ theta
            h = sigmoid(z)
            loss = float(np.mean(value(h, y)))
            if not np.isfinite(loss):
                diverged = True
                break
            grad = sigmoid_regression_grad(cfg.loss_kind, y, z, x).mean(axis=0)
            loss_rows.append(loss)
            mae_rows.append(float(np.mean(abs_err(h, y))))
            norm_rows.append(float(np.linalg.norm(grad)))
            theta = theta - cfg.learning_rate * grad
            if not np.isfinite(theta).all():
                diverged = True
                break
    return loss_rows, mae_rows, norm_rows, theta, diverged


def _assert_same_trace(data, cfg):
    loss, mae, norm, theta, diverged = _reference_train(data, cfg)
    trace = train(data, cfg)
    hexes = lambda values: [float(v).hex() for v in values]
    assert hexes(trace.loss) == hexes(loss)
    assert hexes(trace.mae) == hexes(mae)
    assert hexes(trace.grad_norm) == hexes(norm)
    assert hexes(trace.final_theta) == hexes(theta)
    assert trace.diverged == diverged
    return trace


@pytest.mark.parametrize("init", INITS)
@pytest.mark.parametrize("kind", REGRESSION_LOSSES)
def test_train_matches_public_gradient_loop(kind, init):
    cfg = ToyTrainConfig(loss_kind=kind, learning_rate=0.5, max_iters=300, init=init)
    trace = _assert_same_trace(make_dataset(120, 3, seed=11), cfg)
    assert len(trace) == 300 and not trace.diverged


def test_train_matches_public_gradient_loop_when_diverging():
    base = make_dataset(50, 3, seed=8)
    data = ToyDataset(features=base.features * 1e200, targets=base.targets, seed=8)
    trace = _assert_same_trace(data, ToyTrainConfig(loss_kind="ce", learning_rate=1e200, max_iters=50))
    assert trace.diverged


# (name in the message, the smallest valid value, a constructor of the checked value)
_COUNT_VALUES = [
    ("top_k", 0, lambda v: inference_pipeline([], top_k=v)),
    ("max_iters", 1, lambda v: ToyTrainConfig(max_iters=v)),
    ("trials", 1, lambda v: finite_diff_check("l2", trials=v)),
    ("n_pos", 1, lambda v: confidence_loss(ConfLossKind("ce"), [0.3, -1.0], [0.5, 0.8], n_pos=v)),
    ("n_pos", 1, lambda v: focal_loss([0.3, -1.0], [True, False], n_pos=v)),
    ("n", 1, lambda v: make_dataset(v, 3, 0).targets.tolist()),
    ("d", 1, lambda v: make_dataset(5, v, 0).targets.tolist()),
    ("seed", 0, lambda v: make_dataset(5, 3, v).targets.tolist()),
    ("seed", 0, lambda v: ToyTrainConfig(seed=v)),
    ("strides", 1, lambda v: AnchorGridConfig(strides=(v,), base_sizes=(32.0,), scales=(1.0,), ratios=(1.0,))),
]


class TestCountRule:
    @pytest.mark.parametrize(("name", "minimum", "make"), _COUNT_VALUES)
    @pytest.mark.parametrize("value", [True, False, 2.5, 3.0, "2", np.float64(2.0)])
    def test_non_int_rejected_by_name(self, name, minimum, make, value):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an int, got {value!r}")):
            make(value)

    @pytest.mark.parametrize(("name", "minimum", "make"), _COUNT_VALUES)
    def test_below_minimum_rejected_by_name(self, name, minimum, make):
        for value in (minimum - 1, np.int64(minimum - 5)):
            with pytest.raises(ValueError, match=re.escape(f"{name} must be >= {minimum}, got {value}")):
                make(value)

    @pytest.mark.parametrize(("name", "minimum", "make"), _COUNT_VALUES)
    def test_numpy_int_accepted(self, name, minimum, make):
        for kind in (np.int64, np.int32, np.uint8):
            assert make(kind(minimum + 1)) == make(minimum + 1)
