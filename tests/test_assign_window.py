"""The windowed walk of ``_best_matches`` on an anchor grid against the full IoU column.

On a ``generate_anchors`` grid, ``_best_matches`` computes each ground
truth's IoU only over the rows and cell columns of each level that it can
overlap.  These tests hold all four of its arrays, byte for byte, to the
same walk over the plain corner array (one window holding every anchor)
and to an ``iou_matrix`` + ``argmax`` reference, on layouts other than
the default and on the edge cases of the window: ground truths on the
image border, larger than the image, outside it on each side, near the
area bound, tied across levels and overlapping nothing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdet import assignment
from confdet.assignment import AssignerConfig, GroundTruthBox, _best_matches, assign
from confdet.geometry import AnchorGridConfig, Box, generate_anchors, iou_matrix

pytestmark = pytest.mark.filterwarnings("error")


def _reference(corners, gts):
    """(best_iou, best_gt, gt_best_anchor, gt_best_iou) from the full n x m IoU matrix."""
    overlaps = iou_matrix(corners, [g.box for g in gts])
    best_gt = overlaps.argmax(axis=1)
    gt_best_anchor = overlaps.argmax(axis=0)
    m = np.arange(len(gts))
    return overlaps[np.arange(len(corners)), best_gt], best_gt, gt_best_anchor, overlaps[gt_best_anchor, m]


def _assert_windowed_walk_exact(grid, gts):
    windowed = _best_matches(grid, gts)
    for expected in (_best_matches(grid.corners, gts), _reference(grid.corners, gts)):
        for got, want in zip(windowed, expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    return windowed


def _gt(x1, y1, x2, y2):
    return GroundTruthBox(box=Box(x1, y1, x2, y2), class_id=0)


@st.composite
def _layout(draw):
    n_levels = draw(st.integers(1, 3))
    strides = sorted(draw(st.lists(st.sampled_from([3, 5, 7, 8, 13, 16, 32]), min_size=n_levels,
                                   max_size=n_levels, unique=True)))
    config = AnchorGridConfig(
        strides=tuple(strides),
        base_sizes=tuple(draw(st.lists(st.floats(1.0, 80.0), min_size=n_levels, max_size=n_levels))),
        scales=tuple(draw(st.lists(st.sampled_from([1.0, 2.0 ** (1.0 / 3.0), 0.5, 1.7]), min_size=1, max_size=2))),
        ratios=tuple(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 0.3]), min_size=1, max_size=3))),
    )
    return config, draw(st.integers(1, 100)), draw(st.integers(1, 100))


@st.composite
def _ground_truth(draw, w, h):
    kind = draw(st.sampled_from(["inside", "border", "larger", "left", "right", "above", "below", "aligned"]))
    bw, bh = draw(st.floats(0.5, 60.0)), draw(st.floats(0.5, 60.0))
    x, y = draw(st.floats(-10.0, w + 10.0)), draw(st.floats(-10.0, h + 10.0))
    gap = draw(st.floats(0.0, 80.0))
    if kind == "border":  # an edge on the image border
        x = draw(st.sampled_from([0.0, w - bw]))
        y = draw(st.sampled_from([0.0, h - bh]))
    elif kind == "larger":
        x, y, bw, bh = -gap, -gap, w + 2 * gap + bw, h + 2 * gap + bh
    elif kind == "left":
        x = -gap - bw
    elif kind == "right":
        x = w + gap
    elif kind == "above":
        y = -gap - bh
    elif kind == "below":
        y = h + gap
    elif kind == "aligned":  # corners on half-pixel grid points, where anchor edges touch exactly
        x, y = draw(st.integers(-8, 2 * w + 8)) / 2.0, draw(st.integers(-8, 2 * h + 8)) / 2.0
        bw, bh = draw(st.integers(1, 80)) / 2.0, draw(st.integers(1, 80)) / 2.0
    return _gt(x, y, x + bw, y + bh)


@st.composite
def _grid_and_gts(draw):
    config, w, h = draw(_layout())
    gts = draw(st.lists(_ground_truth(w, h), min_size=1, max_size=8))
    if draw(st.booleans()):  # a duplicate: ties between ground truths
        gts.append(draw(st.sampled_from(gts)))
    return generate_anchors(config, w, h), gts


@given(_grid_and_gts())
@settings(max_examples=200, deadline=None)
def test_windowed_walk_matches_full_column_walk(instance):
    grid, gts = instance
    _assert_windowed_walk_exact(grid, gts)


_ONE_SHAPE = dict(scales=(1.0,), ratios=(1.0,))


class TestWindowEdges:
    config = AnchorGridConfig(strides=(8, 16), base_sizes=(16.0, 40.0), scales=(1.0, 1.5), ratios=(0.5, 1.0, 2.0))

    @pytest.mark.parametrize("box", [
        (0.0, 0.0, 20.0, 20.0), (60.0, 28.0, 90.0, 50.0), (0.0, 20.0, 90.0, 30.0),  # on the border of 90x50
        (-30.0, -30.0, 130.0, 90.0),  # larger than the image
        (-60.0, 10.0, -30.0, 20.0), (120.0, 10.0, 150.0, 20.0),  # wholly left, wholly right
        (10.0, -60.0, 20.0, -30.0), (10.0, 80.0, 20.0, 110.0),  # wholly above, wholly below
    ])
    def test_border_larger_and_outside(self, box):
        _assert_windowed_walk_exact(generate_anchors(self.config, 90, 50), [_gt(*box)])

    def test_base_sizes_near_the_area_bound(self):
        # 2 * (9e153)^2 = 1.62e308, just under the largest float: Box's area bound.
        config = AnchorGridConfig(strides=(1, 2), base_sizes=(9e153, 8e153), **_ONE_SHAPE)
        grid = generate_anchors(config, 3, 2)
        gts = [_gt(-4e153, -4e153, 4e153, 4e153), _gt(-4.5e153, -4.5e153, 4.5e153 + 1e140, 4.5e153), _gt(0, 0, 1, 1)]
        best_iou, *_ = _assert_windowed_walk_exact(grid, gts)
        assert best_iou.max() > 0.5

    def test_best_anchor_tie_across_levels_goes_to_the_lower_index(self):
        # Level 0 cell (1, 1) and level 1 cell (0, 0) are both centred at (12, 12): the same 16x16 anchor.
        config = AnchorGridConfig(strides=(8, 24), base_sizes=(16.0, 16.0), **_ONE_SHAPE)
        grid = generate_anchors(config, 48, 48)
        level0, level1 = 1 * 6 + 1, 36
        assert grid[level0].box == grid[level1].box == Box(4.0, 4.0, 20.0, 20.0)
        best_iou, best_gt, gt_best_anchor, gt_best_iou = _assert_windowed_walk_exact(grid, [_gt(4, 4, 20, 20)])
        assert gt_best_anchor.tolist() == [level0]
        assert gt_best_iou.tolist() == [1.0]
        assert best_iou[level1] == 1.0

    def test_ground_truth_overlapping_nothing_keeps_anchor_zero_and_is_not_forced(self):
        grid = generate_anchors(self.config, 90, 50)
        gts = [_gt(10.0, 10.0, 30.0, 30.0), _gt(5000.0, 5000.0, 5010.0, 5010.0)]
        _, best_gt, gt_best_anchor, gt_best_iou = _assert_windowed_walk_exact(grid, gts)
        assert gt_best_anchor[1] == 0 and gt_best_iou[1] == 0.0
        assert not (best_gt == 1).any()
        result = assign(grid, gts, AssignerConfig(force_match=True))
        assert not (result.labels == 1).any()
        assert result.forced.sum() <= 1


def test_small_ground_truth_reaches_few_anchors(monkeypatch):
    """One 20 px ground truth on a 1024x768 RetinaNet grid: IoU over under 5% of the anchors."""
    seen = []
    iou_row = assignment._iou_row

    def counting(box, area, boxes, areas):
        seen.append(np.size(areas))
        return iou_row(box, area, boxes, areas)

    monkeypatch.setattr(assignment, "_iou_row", counting)
    grid = generate_anchors(AnchorGridConfig.retinanet_defaults(), 1024, 768)
    assert len(grid) == 147_312
    result = assign(grid, [_gt(500.0, 380.0, 520.0, 400.0)])
    assert result.forced.sum() + result.n_pos >= 1
    assert 0 < sum(seen) < 0.05 * len(grid)
