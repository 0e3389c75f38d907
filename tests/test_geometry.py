import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confdet.geometry import (
    Anchor,
    AnchorGridConfig,
    Box,
    _iou_row,
    boxes_to_array,
    generate_anchors,
    iou,
    iou_matrix,
)


def _finite_box(max_coord=1000.0, min_size=0.1):
    return st.tuples(
        st.floats(0.0, max_coord),
        st.floats(0.0, max_coord),
        st.floats(min_size, 200.0),
        st.floats(min_size, 200.0),
    ).map(lambda t: Box(t[0], t[1], t[0] + t[2], t[1] + t[3]))


class TestBox:
    def test_rejects_reversed_corners(self):
        with pytest.raises(ValueError):
            Box(5.0, 0.0, 0.0, 5.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Box(float("nan"), 0.0, 1.0, 1.0)

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            Box(0.0, 0.0, float("inf"), 1.0)

    def test_zero_area_allowed(self):
        assert Box(1.0, 1.0, 1.0, 1.0).area == 0.0

    def test_list_round_trip(self):
        box = Box(1.5, 2.5, 3.0, 4.0)
        assert Box.from_list(box.to_list()) == box

    def test_from_list_wrong_length(self):
        with pytest.raises(ValueError):
            Box.from_list([1.0, 2.0, 3.0])


class TestIou:
    def test_identity(self):
        box = Box(3.0, 4.0, 10.0, 12.0)
        assert iou(box, box) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0

    def test_known_overlap(self):
        # intersection 1, union 4 + 4 - 1 = 7
        assert iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == pytest.approx(1.0 / 7.0)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = Box(*sorted(rng.uniform(0, 10, 2)), *sorted(rng.uniform(10, 20, 2)))
            b = Box(*sorted(rng.uniform(0, 10, 2)), *sorted(rng.uniform(10, 20, 2)))
            assert iou(a, b) == iou(b, a)

    def test_two_degenerate_boxes(self):
        point = Box(2.0, 2.0, 2.0, 2.0)
        assert iou(point, point) == 0.0
        assert iou(point, Box(5.0, 5.0, 5.0, 5.0)) == 0.0

    def test_one_degenerate_box(self):
        assert iou(Box(0, 0, 4, 4), Box(1.0, 1.0, 1.0, 1.0)) == 0.0

    @given(a=_finite_box(), b=_finite_box())
    @settings(max_examples=200)
    def test_bounds(self, a, b):
        value = iou(a, b)
        assert 0.0 <= value <= 1.0

    @given(
        a=_finite_box(max_coord=100.0),
        b=_finite_box(max_coord=100.0),
        dx=st.floats(-50.0, 50.0),
        dy=st.floats(-50.0, 50.0),
        scale=st.floats(0.1, 10.0),
    )
    @settings(max_examples=200)
    def test_translation_and_scaling_invariance(self, a, b, dx, dy, scale):
        def move(box):
            return Box(
                (box.x1 + dx) * scale,
                (box.y1 + dy) * scale,
                (box.x2 + dx) * scale,
                (box.y2 + dy) * scale,
            )

        assert iou(move(a), move(b)) == pytest.approx(iou(a, b), abs=1e-9)


class TestIouMatrix:
    def test_single_pair_matches_scalar(self):
        a, b = Box(0, 0, 2, 2), Box(1, 1, 3, 3)
        m = iou_matrix([a], [b])
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(iou(a, b))

    def test_self_matrix_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(1)
        boxes = [Box(x, y, x + w, y + h) for x, y, w, h in rng.uniform(1, 20, (8, 4))]
        m = iou_matrix(boxes, boxes)
        np.testing.assert_allclose(m, m.T)
        np.testing.assert_allclose(np.diag(m), 1.0)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        boxes_a = [Box(x, y, x + w, y + h) for x, y, w, h in rng.uniform(1, 30, (5, 4))]
        boxes_b = [Box(x, y, x + w, y + h) for x, y, w, h in rng.uniform(1, 30, (7, 4))]
        m = iou_matrix(boxes_a, boxes_b)
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert m[i, j] == pytest.approx(iou(a, b), abs=1e-12)

    def test_empty_inputs(self):
        assert iou_matrix([], [Box(0, 0, 1, 1)]).shape == (0, 1)
        assert iou_matrix([Box(0, 0, 1, 1)], []).shape == (1, 0)


class TestAnchorGridConfig:
    def test_rejects_empty_scales(self):
        with pytest.raises(ValueError):
            AnchorGridConfig(strides=(8,), base_sizes=(32.0,), scales=(), ratios=(1.0,))

    def test_rejects_non_increasing_strides(self):
        with pytest.raises(ValueError):
            AnchorGridConfig(strides=(8, 8), base_sizes=(32.0, 64.0), scales=(1.0,), ratios=(1.0,))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            AnchorGridConfig(strides=(8, 16), base_sizes=(32.0,), scales=(1.0,), ratios=(1.0,))

    def test_rejects_negative_ratio(self):
        with pytest.raises(ValueError):
            AnchorGridConfig(strides=(8,), base_sizes=(32.0,), scales=(1.0,), ratios=(-1.0,))

    def test_dict_round_trip(self):
        config = AnchorGridConfig.retinanet_defaults()
        assert AnchorGridConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("field", ["base_sizes", "scales", "ratios"])
    @pytest.mark.parametrize("value", [True, False, "2", None, [1.0], math.inf, -math.inf, math.nan, 0, 0.0, -1.0,
                                       10**400])
    def test_shape_values_must_be_finite_positive_numbers(self, field, value):
        shapes = {"base_sizes": (32.0,), "scales": (1.0, 2.0), "ratios": (1.0,)}
        shapes[field] = (*shapes[field][:-1], value)
        with pytest.raises(ValueError, match=f"^{field} must hold "):
            AnchorGridConfig(strides=(8,), **shapes)

    def test_int_shape_values_become_floats_and_round_trip(self):
        config = AnchorGridConfig(strides=(8, 16), base_sizes=(32, 64.0), scales=(1,), ratios=(1, 2))
        assert config == AnchorGridConfig(strides=(8, 16), base_sizes=(32.0, 64.0), scales=(1.0,), ratios=(1.0, 2.0))
        assert {type(v) for v in config.base_sizes + config.scales + config.ratios} == {float}
        assert AnchorGridConfig.from_dict(config.to_dict()) == config

    def test_from_dict_missing_key(self):
        with pytest.raises(ValueError, match="missing key"):
            AnchorGridConfig.from_dict({"strides": [8]})


class TestGenerateAnchors:
    def test_single_cell_grid(self):
        stride = 16
        config = AnchorGridConfig(
            strides=(stride,),
            base_sizes=(32.0,),
            scales=(1.0, 2.0, 3.0),
            ratios=(0.5, 1.0, 2.0),
        )
        anchors = generate_anchors(config, stride, stride)
        assert len(anchors) == 9
        for anchor in anchors:
            assert anchor.box.center == pytest.approx((stride / 2, stride / 2), abs=1e-9)
            assert anchor.cell == (0, 0)
            assert anchor.level == 0

    def test_unit_scale_unit_ratio_square(self):
        config = AnchorGridConfig(strides=(8,), base_sizes=(32.0,), scales=(1.0,), ratios=(1.0,))
        (anchor,) = generate_anchors(config, 8, 8)
        assert anchor.box.width == pytest.approx(32.0)
        assert anchor.box.height == pytest.approx(32.0)

    def test_ratio_preserves_area(self):
        config = AnchorGridConfig(strides=(8,), base_sizes=(32.0,), scales=(1.0,), ratios=(0.5, 2.0))
        anchors = generate_anchors(config, 8, 8)
        assert len(anchors) == 2
        for anchor, ratio in zip(anchors, config.ratios):
            assert anchor.box.area == pytest.approx(32.0 * 32.0)
            assert anchor.box.height / anchor.box.width == pytest.approx(ratio)

    def test_count_matches_closed_form(self):
        config = AnchorGridConfig.retinanet_defaults()
        w, h = 1216, 800
        anchors = generate_anchors(config, w, h)
        expected = sum(
            math.ceil(h / s) * math.ceil(w / s) * config.anchors_per_cell for s in config.strides
        )
        assert len(anchors) == expected
        # a typical detector grid holds on the order of 1e5 anchors
        assert 3e4 < len(anchors) < 1e6

    def test_rejects_bad_image_size(self):
        config = AnchorGridConfig.retinanet_defaults()
        with pytest.raises(ValueError):
            generate_anchors(config, 0, 100)


def test_anchor_carries_level_and_cell():
    anchor = Anchor(box=Box(0, 0, 1, 1), level=2, cell=(3, 4))
    assert anchor.level == 2
    assert anchor.cell == (3, 4)


def _largest_square_side():
    """The largest side s for which Box(0, 0, s, s) passes the 2 * area bound."""

    def fits(side):
        return math.isfinite(2.0 * (side * side))

    s = math.sqrt(sys.float_info.max / 2.0)
    while fits(math.nextafter(s, math.inf)):
        s = math.nextafter(s, math.inf)
    while not fits(s):
        s = math.nextafter(s, 0.0)
    return s


class TestBoxInputContract:
    def test_largest_accepted_box_has_unit_self_iou(self):
        s = _largest_square_side()
        box = Box(0.0, 0.0, s, s)
        assert iou(box, box) == 1.0
        assert iou_matrix([box], [box])[0, 0] == 1.0
        assert _iou_row(np.array(box.to_list()), box.area, np.array([box.to_list()]), np.array([box.area]))[0] == 1.0

    def test_one_step_past_the_area_bound_rejected(self):
        s = math.nextafter(_largest_square_side(), math.inf)
        with pytest.raises(ValueError, match="area"):
            Box(0.0, 0.0, s, s)

    def test_huge_box_rejected_naming_the_area(self):
        with pytest.raises(ValueError, match="area"):
            Box(0, 0, 1e200, 1e200)

    def test_huge_zero_area_box_allowed(self):
        assert Box(-8e307, 5.0, 8e307, 5.0).area == 0.0

    def test_width_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="area"):
            Box(-1e308, 5.0, 1e308, 5.0)

    def test_bool_coordinates_rejected(self):
        with pytest.raises(ValueError, match="bool"):
            Box(True, 0, 1, 1)
        with pytest.raises(ValueError, match="bool"):
            Box(0.0, 0.0, 1.0, False)
        with pytest.raises(ValueError, match="bool"):
            Box.from_list([0, True, 1, 1])

    def test_int_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Box(10**400, 0, 10**400, 1)

    def test_non_numbers_rejected(self):
        with pytest.raises(ValueError):
            Box("0", 0, 1, 1)
        with pytest.raises(ValueError):
            Box(None, 0, 1, 1)

    def test_numpy_float_coordinates_accepted(self):
        assert Box(np.float64(0.0), 0.0, np.float64(2.0), 1.0).area == 2.0


class TestIouRow:
    @given(
        boxes=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.0]) | st.floats(-50.0, 50.0),
                st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.0]) | st.floats(-50.0, 50.0),
                st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 40.0),
                st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 40.0),
            ).map(lambda t: Box(t[0], t[1], t[0] + t[2], t[1] + t[3])),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=200)
    def test_equals_scalar_iou_bit_for_bit(self, boxes):
        corners = boxes_to_array(boxes)
        areas = np.array([b.area for b in boxes])
        for k, box in enumerate(boxes):
            row = _iou_row(corners[k], areas[k], corners, areas)
            assert row.tolist() == [iou(b, box) for b in boxes]


_ROW_BOX = st.tuples(
    st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.0]) | st.floats(-50.0, 50.0),
    st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.0]) | st.floats(-50.0, 50.0),
    st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 40.0),
    st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 40.0),
).map(lambda t: Box(t[0], t[1], t[0] + t[2], t[1] + t[3]))
_FAR = sys.float_info.max
_EDGE_BOXES = [
    Box(-1e308, 0.0, -1e308, 0.0),
    Box(1e308, 0.0, 1e308, 0.0),
    Box(-_FAR, -_FAR, -_FAR, -_FAR),
    Box(_FAR, _FAR, _FAR, _FAR),
    Box(0.0, 0.0, _largest_square_side(), _largest_square_side()),
    Box(0.0, 0.0, 0.0, 0.0),
]


class TestIouMatrixBitForBit:
    """Every entry of ``iou_matrix`` is the scalar ``iou``, compared by ``float.hex`` so signed zeros count."""

    @given(
        boxes_a=st.lists(_ROW_BOX | st.sampled_from(_EDGE_BOXES), max_size=10),
        boxes_b=st.lists(_ROW_BOX | st.sampled_from(_EDGE_BOXES), max_size=10),
    )
    @example(boxes_a=[], boxes_b=[])
    @example(boxes_a=[], boxes_b=_EDGE_BOXES)
    @example(boxes_a=_EDGE_BOXES, boxes_b=[])
    @example(boxes_a=_EDGE_BOXES, boxes_b=_EDGE_BOXES)
    @settings(max_examples=300)
    def test_equals_scalar_iou(self, boxes_a, boxes_b):
        m = iou_matrix(boxes_a, boxes_b)
        assert m.shape == (len(boxes_a), len(boxes_b))
        assert [[v.hex() for v in row] for row in m.tolist()] == [[iou(a, b).hex() for b in boxes_b] for a in boxes_a]
        corners = iou_matrix(boxes_to_array(boxes_a), boxes_to_array(boxes_b))
        assert corners.tobytes() == m.tobytes()
