import json

import numpy as np
import pytest

from confdet.assignment import (
    IGNORE,
    NEGATIVE,
    AssignerConfig,
    GroundTruthBox,
    assign,
    confidence_targets,
    load_ground_truth_jsonl,
)
from confdet.geometry import Box


def gt(x1, y1, x2, y2, class_id=0):
    return GroundTruthBox(box=Box(x1, y1, x2, y2), class_id=class_id)


def strip_box(x1, y1, x2, y2):
    """Boxes sharing a left edge with gt [0,0,10,10] give easy exact IoUs."""
    return Box(x1, y1, x2, y2)


class TestConfig:
    def test_defaults(self):
        cfg = AssignerConfig()
        assert cfg.pos_iou == 0.5 and cfg.neg_iou == 0.4 and cfg.force_match

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            AssignerConfig(pos_iou=0.4, neg_iou=0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AssignerConfig(pos_iou=1.5)


class TestGroundTruthBox:
    def test_rejects_zero_area(self):
        with pytest.raises(ValueError):
            gt(0, 0, 0, 10)

    def test_rejects_negative_class(self):
        with pytest.raises(ValueError):
            gt(0, 0, 1, 1, class_id=-1)


class TestAssign:
    def test_above_threshold_is_positive(self):
        # anchor [0,0,10,6] vs gt [0,0,10,10]: IoU = 60/100 = 0.6
        anchor = strip_box(0, 0, 10, 6)
        result = assign([anchor], [gt(0, 0, 10, 10)], AssignerConfig(force_match=False))
        assert result.labels[0] == 0
        assert result.matched_iou[0] == pytest.approx(0.6)
        assert result.n_pos == 1

    def test_band_is_ignore(self):
        # IoU = 45/100 = 0.45, inside [0.4, 0.5)
        anchor = strip_box(0, 0, 10, 4.5)
        result = assign([anchor], [gt(0, 0, 10, 10)], AssignerConfig(force_match=False))
        assert result.labels[0] == IGNORE
        assert result.n_pos == 0

    def test_below_band_is_negative(self):
        anchor = strip_box(0, 0, 10, 2)  # IoU 0.2
        result = assign([anchor], [gt(0, 0, 10, 10)], AssignerConfig(force_match=False))
        assert result.labels[0] == NEGATIVE

    def test_empty_gts_all_negative(self):
        anchors = [strip_box(0, 0, 10, 10), strip_box(5, 5, 15, 15)]
        result = assign(anchors, [])
        assert (result.labels == NEGATIVE).all()
        assert result.n_pos == 0
        assert (result.matched_iou == 0.0).all()

    def test_empty_anchors_rejected(self):
        with pytest.raises(ValueError):
            assign([], [gt(0, 0, 10, 10)])

    def test_partition(self):
        rng = np.random.default_rng(3)
        anchors = [Box(x, y, x + w, y + h) for x, y, w, h in rng.uniform(0, 30, (40, 4)) + 1]
        gts = [gt(5, 5, 20, 20), gt(10, 0, 25, 12, class_id=1)]
        result = assign(anchors, gts)
        for label in result.labels:
            assert label in (NEGATIVE, IGNORE) or 0 <= label < len(gts)

    def test_matched_to_max_iou_gt(self):
        anchor = strip_box(0, 0, 10, 8)
        gts = [gt(0, 0, 10, 4), gt(0, 0, 10, 10)]  # IoUs 0.5 and 0.8
        result = assign([anchor], gts, AssignerConfig(force_match=False))
        assert result.labels[0] == 1
        assert result.matched_iou[0] == pytest.approx(0.8)

    def test_tie_breaks_to_lowest_gt_index(self):
        anchor = strip_box(0, 0, 10, 10)
        duplicate = gt(0, 0, 10, 10)
        result = assign([anchor], [duplicate, duplicate], AssignerConfig(force_match=False))
        assert result.labels[0] == 0

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        anchors = [Box(x, y, x + w, y + h) for x, y, w, h in rng.uniform(0, 30, (25, 4)) + 1]
        gts = [gt(5, 5, 18, 18), gt(2, 9, 12, 30, class_id=2)]
        first = assign(anchors, gts)
        second = assign(anchors, gts)
        assert (first.labels == second.labels).all()
        assert (first.matched_iou == second.matched_iou).all()

    def test_single_anchor_single_gt_positive(self):
        result = assign([strip_box(0, 0, 10, 9)], [gt(0, 0, 10, 10)])
        assert result.n_pos == 1

    def test_force_match_promotes_best_anchor(self):
        # best anchor only reaches IoU 0.3: negative unless force-matched
        anchor = strip_box(0, 0, 10, 3)
        with_force = assign([anchor], [gt(0, 0, 10, 10)], AssignerConfig(force_match=True))
        without = assign([anchor], [gt(0, 0, 10, 10)], AssignerConfig(force_match=False))
        assert with_force.labels[0] == 0
        assert with_force.forced[0]
        assert with_force.matched_iou[0] == pytest.approx(0.3)
        assert without.labels[0] == NEGATIVE

    def test_force_match_skips_disjoint_gt(self):
        anchor = Box(100, 100, 110, 110)
        result = assign([anchor], [gt(0, 0, 10, 10)], AssignerConfig(force_match=True))
        assert result.labels[0] == NEGATIVE
        assert not result.forced.any()

    def test_force_match_collision_lower_gt_wins(self):
        # one anchor is the best anchor of both gts; gt 0 keeps it
        anchor = strip_box(0, 0, 10, 3)
        gts = [gt(0, 0, 10, 10), gt(0, 0, 10, 12, class_id=1)]
        result = assign([anchor], gts, AssignerConfig(force_match=True))
        assert result.labels[0] == 0

    def test_raising_pos_iou_never_increases_threshold_positives(self):
        rng = np.random.default_rng(5)
        anchors = [Box(x, y, x + w, y + h) for x, y, w, h in rng.uniform(0, 40, (60, 4)) + 1]
        gts = [gt(5, 5, 25, 25), gt(18, 2, 36, 22, class_id=1)]
        previous = None
        for pos_iou in (0.3, 0.5, 0.7, 0.9):
            result = assign(anchors, gts, AssignerConfig(pos_iou=pos_iou, neg_iou=0.2))
            unforced = int((result.positive_mask & ~result.forced).sum())
            if previous is not None:
                assert unforced <= previous
            previous = unforced


class TestConfidenceTargets:
    def test_positive_passes_matched_iou(self):
        anchor = strip_box(0, 0, 10, 7.3)  # IoU 0.73
        result = assign([anchor], [gt(0, 0, 10, 10)])
        targets, used = confidence_targets(result)
        assert targets[0] == pytest.approx(0.73)
        assert used[0]

    def test_negative_is_zero_and_unused(self):
        result = assign([Box(50, 50, 60, 60)], [gt(0, 0, 10, 10)], AssignerConfig(force_match=False))
        targets, used = confidence_targets(result)
        assert targets[0] == 0.0
        assert not used[0]

    def test_all_negative_all_zero(self):
        result = assign([Box(0, 0, 5, 5), Box(9, 9, 12, 12)], [])
        targets, used = confidence_targets(result)
        assert (targets == 0.0).all()
        assert not used.any()


class TestGroundTruthJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        records = [
            {"image_id": "a", "box": [0, 0, 10, 10], "class_id": 1},
            {"image_id": "b", "box": [5, 5, 9, 9], "class_id": 0},
            {"image_id": "a", "box": [1, 1, 4, 4], "class_id": 2},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        loaded = load_ground_truth_jsonl(path)
        assert list(loaded) == ["a", "b"]
        assert len(loaded["a"]) == 2
        assert loaded["b"][0].box == Box(5, 5, 9, 9)

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('{"image_id": "a", "box": [0, 0, 10, 10], "class_id": 1}\n{"nope": 1}\n')
        with pytest.raises(ValueError, match="line 2"):
            load_ground_truth_jsonl(path)


    @pytest.mark.parametrize("line", ["[1, 2, 3]", "null", '"a"'])
    def test_non_object_line_rejected_with_number(self, tmp_path, line):
        path = tmp_path / "gt.jsonl"
        path.write_text(f'{{"image_id": "a", "box": [0, 0, 10, 10], "class_id": 1}}\n{line}\n')
        with pytest.raises(ValueError, match=r"gt\.jsonl: line 2: each record must be a JSON object"):
            load_ground_truth_jsonl(path)

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('\n  \n{"image_id": "a", "box": [0, 0, 10, 10], "class_id": 1}\n\n{"box": 5}\n')
        with pytest.raises(ValueError, match=r"gt\.jsonl: line 5: "):
            load_ground_truth_jsonl(path)


def test_result_invariants():
    rng = np.random.default_rng(7)
    anchors = [Box(x, y, x + w, y + h) for x, y, w, h in rng.uniform(0, 25, (20, 4)) + 1]
    gts = [gt(4, 4, 16, 16)]
    result = assign(anchors, gts)
    assert result.n_total == 20
    assert result.n_pos == int(result.positive_mask.sum())
    # positives not promoted by the best-anchor rule sit at or above the threshold
    assert (result.matched_iou[result.positive_mask & ~result.forced] >= 0.5).all()
    assert (result.matched_iou >= 0.0).all() and (result.matched_iou <= 1.0).all()


class TestClassIdContract:
    def test_bool_class_id_rejected(self):
        with pytest.raises(ValueError, match="class_id"):
            GroundTruthBox(box=Box(0, 0, 1, 1), class_id=True)

    @pytest.mark.parametrize("value", ["true", "1.7", '"1"', "null"])
    def test_loader_rejects_non_integral_class_id(self, tmp_path, value):
        path = tmp_path / "gt.jsonl"
        path.write_text(
            '{"image_id": "a", "box": [0, 0, 10, 10], "class_id": 1}\n'
            f'{{"image_id": "a", "box": [0, 0, 10, 10], "class_id": {value}}}\n'
        )
        with pytest.raises(ValueError, match=r"gt\.jsonl: line 2: class_id"):
            load_ground_truth_jsonl(path)

    def test_loader_accepts_integral_float_class_id(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('{"image_id": "a", "box": [0, 0, 10, 10], "class_id": 3.0}\n')
        (loaded,) = load_ground_truth_jsonl(path)["a"]
        assert loaded.class_id == 3 and type(loaded.class_id) is int

    def test_loader_rejects_bool_coordinate(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('{"image_id": "a", "box": [0, 0, true, 10], "class_id": 1}\n')
        with pytest.raises(ValueError, match="line 1: box coordinates must not be bool"):
            load_ground_truth_jsonl(path)
