"""Differential property tests: the column-walk ``assign`` against the IoU-matrix reference.

``assign`` walks the ground truths one IoU column at a time and never builds
the anchor x ground-truth matrix.  The generators aim at the inputs where
that walk could disagree with ``iou_matrix`` + ``argmax``: duplicate ground
truths, ground truths sharing a best anchor, a ground truth that overlaps
nothing (far enough away that the gap overflows), IoU exactly at
``pos_iou`` or ``neg_iou``, zero-area anchors, and ``force_match`` on and
off.  Every test here runs with warnings turned into errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchor_reference import reference_assign
from confdet.analysis import compute_image_stats
from confdet.assignment import AssignerConfig, GroundTruthBox, assign, localization_targets
from confdet.geometry import Anchor, AnchorGridConfig, Box, generate_anchors, iou_matrix

pytestmark = pytest.mark.filterwarnings("error")

# Grid values give ties, touching edges, zero areas and exact rational IoUs.
_GRID = [0.0, 0.5, 1.0, 2.0, 3.0, 4.0]
_SIDES = [0.0, 0.5, 1.0, 2.0, 3.0]
# Sides stay at most 4 * scale, so 2 * area stays finite up to the largest scale.
_SCALES = [1.0, 0.1, 2.0**-1000, 1e100, 2.3e153]
# Anchors near -1.5e308 against the far ground truth overflow the gap to -inf.
_OFFSETS = [0.0, -1e300, 1e307, -1.5e308]
_FAR_GT = Box(1e308, 0.0, 1.1e308, 1.0)
_THRESHOLDS = [0.0, 1.0, 0.5, 0.4, 1.0 / 3.0, 0.25, 0.2]


@st.composite
def _box(draw, scale, offset, positive):
    sides = [s for s in _SIDES if s > 0.0] if positive else _SIDES
    if draw(st.booleans()):
        x, y = draw(st.sampled_from(_GRID)), draw(st.sampled_from(_GRID))
        w, h = draw(st.sampled_from(sides)), draw(st.sampled_from(sides))
    else:
        lo = 0.01 if positive else 0.0
        x, y = draw(st.floats(0.0, 4.0)), draw(st.floats(0.0, 4.0))
        w, h = draw(st.floats(lo, 4.0)), draw(st.floats(lo, 4.0))
    x1, y1 = offset + x * scale, offset + y * scale
    return Box(x1, y1, x1 + w * scale, y1 + h * scale)


@st.composite
def _instance(draw):
    scale, offset = draw(st.sampled_from(_SCALES)), draw(st.sampled_from(_OFFSETS))
    anchors = draw(st.lists(_box(scale, offset, positive=False), min_size=1, max_size=12))
    gt_boxes = draw(st.lists(_box(scale, offset, positive=True), max_size=6))
    gt_boxes = [b for b in gt_boxes if b.area > 0.0]  # tiny scales can round a side to zero
    if gt_boxes and draw(st.booleans()):  # duplicate ground truths
        gt_boxes.insert(draw(st.integers(0, len(gt_boxes))), draw(st.sampled_from(gt_boxes)))
    if draw(st.booleans()):  # a ground truth equal to an anchor: IoU exactly 1
        candidates = [a for a in anchors if a.area > 0.0]
        if candidates:
            gt_boxes.append(draw(st.sampled_from(candidates)))
    if draw(st.booleans()):  # a ground truth that overlaps nothing
        gt_boxes.insert(draw(st.integers(0, len(gt_boxes))), _FAR_GT)
    if draw(st.booleans()):
        anchors = [Anchor(box=b, level=0, cell=(i, 0)) for i, b in enumerate(anchors)]
    return anchors, [GroundTruthBox(box=b, class_id=0) for b in gt_boxes]


def _thresholds(draw, anchors, gts):
    """pos_iou and neg_iou, often exactly equal to an IoU that occurs."""
    values = list(_THRESHOLDS)
    if gts:
        boxes = [a.box if isinstance(a, Anchor) else a for a in anchors]
        values += [float(v) for v in iou_matrix(boxes, [g.box for g in gts]).ravel()]
    a, b = draw(st.sampled_from(values)), draw(st.sampled_from(values))
    return max(a, b), min(a, b)


def _assert_same(result, reference):
    labels, matched_iou, forced = reference
    assert result.labels.tolist() == labels.tolist()
    assert np.array_equal(result.matched_iou, matched_iou)  # equal as numbers; 0.0 == -0.0
    assert result.forced.tolist() == forced.tolist()


@given(_instance(), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_assign_matches_iou_matrix_reference(instance, force_match, data):
    anchors, gts = instance
    pos_iou, neg_iou = _thresholds(data.draw, anchors, gts)
    cfg = AssignerConfig(pos_iou=pos_iou, neg_iou=neg_iou, force_match=force_match)
    boxes = [a.box if isinstance(a, Anchor) else a for a in anchors]
    reference = reference_assign(boxes, [g.box for g in gts], pos_iou, neg_iou, force_match)
    _assert_same(assign(anchors, gts, cfg), reference)


@st.composite
def _image_gts(draw):
    w, h = draw(st.integers(1, 90)), draw(st.integers(1, 90))
    gts = []
    for _ in range(draw(st.integers(0, 8))):
        x, y = draw(st.floats(-20.0, w + 20.0)), draw(st.floats(-20.0, h + 20.0))
        bw, bh = draw(st.floats(1.0, 120.0)), draw(st.floats(1.0, 120.0))
        gts.append(GroundTruthBox(box=Box(x, y, x + bw, y + bh), class_id=0))
    if gts and draw(st.booleans()):
        gts.append(draw(st.sampled_from(gts)))
    return w, h, gts


_SMALL_GRID = AnchorGridConfig(strides=(8, 16), base_sizes=(16.0, 40.0), scales=(1.0, 1.5), ratios=(0.5, 1.0, 2.0))


@given(_image_gts(), st.booleans(), st.sampled_from([(0.5, 0.4), (0.4, 0.4), (0.7, 0.3)]))
@settings(max_examples=100, deadline=None)
def test_grid_assign_matches_reference(image, force_match, thresholds):
    w, h, gts = image
    grid = generate_anchors(_SMALL_GRID, w, h)
    boxes = [a.box for a in grid]
    pos_iou, neg_iou = thresholds
    cfg = AssignerConfig(pos_iou=pos_iou, neg_iou=neg_iou, force_match=force_match)
    result = assign(grid, gts, cfg)
    _assert_same(result, reference_assign(boxes, [g.box for g in gts], pos_iou, neg_iou, force_match))
    assert localization_targets(grid, gts, result) == localization_targets(boxes, gts, result)
    stats = compute_image_stats([], [], gts, anchors=grid, positive_iou=pos_iou)
    expected = int((iou_matrix(boxes, [g.box for g in gts]).max(axis=1) > pos_iou).sum()) if gts else 0
    assert stats.positive_num == expected


class TestFarApart:
    """Gaps that overflow to -inf mean no overlap, without a floating-point warning."""

    def test_iou_matrix(self):
        assert iou_matrix([Box(-1e308, 0, -1e308, 0)], [Box(1e308, 0, 1e308, 0)]).tolist() == [[0.0]]

    def test_assign(self):
        anchors = [Box(-1.1e308, 0.0, -1e308, 1.0), Box(1e308, 0.0, 1.1e308, 1.0)]
        result = assign(anchors, [GroundTruthBox(box=_FAR_GT, class_id=0)])
        assert result.labels.tolist() == [-1, 0]
        assert result.matched_iou.tolist() == [0.0, 1.0]

    def test_ground_truth_overlapping_nothing_is_not_forced(self):
        result = assign([Box(-1.1e308, 0.0, -1e308, 1.0)], [GroundTruthBox(box=_FAR_GT, class_id=0)])
        assert result.labels.tolist() == [-1]
        assert not result.forced.any()
