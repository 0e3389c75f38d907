import json
import math
import sys
import warnings

import numpy as np
import pytest

from confdet.fusion import FusionParams
from confdet.geometry import Box, iou
from confdet.postprocess import (
    Detection,
    NmsParams,
    apply_fusion,
    detection_from_dict,
    detection_to_dict,
    dump_detections_jsonl,
    group_by_image,
    inference_pipeline,
    load_detections_jsonl,
    nms,
    score_filter,
)
from nms_oracle import nms_oracle


def det(x1, y1, x2, y2, cls_score, class_id=0, obj=None, fused=None, image_id="img"):
    return Detection(
        box=Box(x1, y1, x2, y2),
        class_id=class_id,
        cls_score=cls_score,
        obj_score=obj,
        fused_score=fused,
        image_id=image_id,
    )


def random_detections(rng, n_boxes, n_classes, image_id="img"):
    dets = []
    for _ in range(n_boxes):
        x1 = float(rng.uniform(0, 100))
        y1 = float(rng.uniform(0, 100))
        w = float(rng.uniform(1, 30))
        h = float(rng.uniform(1, 30))
        dets.append(
            det(
                x1, y1, x1 + w, y1 + h,
                cls_score=float(rng.uniform(0.05, 1.0)),
                class_id=int(rng.integers(0, n_classes)),
                image_id=image_id,
            )
        )
    return dets


CLS_NMS = NmsParams(iou_threshold=0.5, score_threshold=0.05, score_field="cls")


class TestDetection:
    def test_rejects_out_of_range_scores(self):
        with pytest.raises(ValueError):
            det(0, 0, 1, 1, cls_score=1.5)
        with pytest.raises(ValueError):
            det(0, 0, 1, 1, cls_score=0.5, obj=-0.1)

    def test_rejects_negative_class(self):
        with pytest.raises(ValueError):
            det(0, 0, 1, 1, cls_score=0.5, class_id=-2)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            NmsParams(iou_threshold=1.5)
        with pytest.raises(ValueError):
            NmsParams(score_field="obj")


class TestScoreFilter:
    def test_zero_threshold_is_identity_on_positive_scores(self):
        dets = [det(0, 0, 1, 1, 0.3), det(2, 2, 3, 3, 0.9)]
        assert score_filter(dets, 0.0, "cls") == dets

    def test_strictly_greater(self):
        dets = [det(0, 0, 1, 1, 0.04), det(0, 0, 1, 1, 0.05), det(0, 0, 1, 1, 0.06)]
        kept = score_filter(dets, 0.05, "cls")
        assert kept == [dets[2]]

    def test_empty_input(self):
        assert score_filter([], 0.5, "cls") == []

    def test_missing_fused_rejected(self):
        with pytest.raises(ValueError, match="fused"):
            score_filter([det(0, 0, 1, 1, 0.5)], 0.1, "fused")

    def test_preserves_order(self):
        dets = [det(0, 0, 1, 1, 0.9), det(1, 1, 2, 2, 0.2), det(2, 2, 3, 3, 0.8)]
        assert score_filter(dets, 0.1, "cls") == dets


class TestNms:
    def test_duplicate_boxes_keep_highest(self):
        a = det(0, 0, 10, 10, 0.9)
        b = det(0, 0, 10, 10, 0.8)
        assert nms([b, a], CLS_NMS) == [a]

    def test_disjoint_boxes_both_kept(self):
        a = det(0, 0, 10, 10, 0.9)
        b = det(50, 50, 60, 60, 0.8)
        assert nms([a, b], CLS_NMS) == [a, b]

    def test_different_classes_do_not_suppress(self):
        a = det(0, 0, 10, 10, 0.9, class_id=0)
        b = det(0, 0, 10, 10, 0.8, class_id=1)
        assert nms([b, a], CLS_NMS) == [a, b]

    def test_output_sorted_by_score(self):
        rng = np.random.default_rng(11)
        dets = random_detections(rng, 40, 3)
        kept = nms(dets, CLS_NMS)
        scores = [d.cls_score for d in kept]
        assert scores == sorted(scores, reverse=True)

    def test_matches_oracle_on_mixed_instance(self):
        rng = np.random.default_rng(12)
        dets = random_detections(rng, 50, 3)
        kept = nms(dets, CLS_NMS)
        oracle_idx = nms_oracle(
            [d.box.to_list() for d in dets],
            [d.cls_score for d in dets],
            [d.class_id for d in dets],
            CLS_NMS.iou_threshold,
        )
        assert kept == [dets[i] for i in oracle_idx]

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        dets = random_detections(rng, 60, 4)
        kept = nms(dets, CLS_NMS)
        assert nms(kept, CLS_NMS) == kept

    def test_no_kept_pair_overlaps_above_threshold(self):
        rng = np.random.default_rng(14)
        dets = random_detections(rng, 80, 2)
        kept = nms(dets, CLS_NMS)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                if a.class_id == b.class_id:
                    assert iou(a.box, b.box) <= CLS_NMS.iou_threshold

    def test_kept_set_invariant_under_monotone_score_transform(self):
        rng = np.random.default_rng(15)
        dets = random_detections(rng, 50, 3)
        kept = nms(dets, CLS_NMS)
        squashed = [
            Detection(
                box=d.box, class_id=d.class_id, cls_score=d.cls_score**2,
                image_id=d.image_id,
            )
            for d in dets
        ]
        kept_squashed = nms(squashed, CLS_NMS)
        assert [d.box for d in kept_squashed] == [d.box for d in kept]

    def test_threshold_one_suppresses_nothing(self):
        a = det(0, 0, 10, 10, 0.9)
        b = det(0, 0, 10, 10, 0.8)  # exact duplicate, IoU == 1, not > 1
        c = det(0, 0, 10, 9, 0.7)
        params = NmsParams(iou_threshold=1.0, score_field="cls")
        assert nms([a, b, c], params) == [a, b, c]

    def test_threshold_zero_keeps_one_per_overlap_chain(self):
        # a chain of boxes where consecutive members overlap
        chain = [det(i * 5, 0, i * 5 + 10, 10, 0.9 - 0.1 * i) for i in range(4)]
        params = NmsParams(iou_threshold=0.0, score_field="cls")
        kept = nms(chain, params)
        assert kept == [chain[0], chain[2]]  # greedy skips overlapping neighbours

    def test_tie_broken_by_input_index(self):
        a = det(0, 0, 10, 10, 0.5)
        b = det(100, 100, 110, 110, 0.5)
        assert nms([a, b], CLS_NMS) == [a, b]

    def test_mixed_image_ids_rejected(self):
        with pytest.raises(ValueError, match="single image"):
            nms([det(0, 0, 1, 1, 0.5, image_id="a"), det(0, 0, 1, 1, 0.5, image_id="b")], CLS_NMS)

    def test_empty_input(self):
        assert nms([], CLS_NMS) == []


class TestApplyFusion:
    def test_attaches_fused_without_touching_raw_scores(self):
        d = det(0, 0, 1, 1, 0.8, obj=0.9)
        (out,) = apply_fusion([d], FusionParams(alpha=0.5))
        assert out.cls_score == 0.8
        assert out.obj_score == 0.9
        assert out.fused_score == pytest.approx((0.9 * 0.8) ** 0.5)

    def test_cls_mode_copies_cls(self):
        d = det(0, 0, 1, 1, 0.8)  # no obj score needed
        (out,) = apply_fusion([d], FusionParams(mode="cls"))
        assert out.fused_score == 0.8

    def test_product_mode_requires_obj(self):
        with pytest.raises(ValueError, match="obj_score"):
            apply_fusion([det(0, 0, 1, 1, 0.8)], FusionParams(mode="product"))


class TestInferencePipeline:
    def test_cls_mode_reproduces_score_guided_baseline(self):
        rng = np.random.default_rng(16)
        dets = random_detections(rng, 30, 3)
        pipeline_out = inference_pipeline(
            dets, FusionParams(mode="cls"), NmsParams(score_field="fused")
        )
        baseline = nms(score_filter(dets, 0.05, "cls"), CLS_NMS)
        assert [d.box for d in pipeline_out] == [d.box for d in baseline]
        assert [d.cls_score for d in pipeline_out] == [d.cls_score for d in baseline]

    def test_product_with_obj_equal_cls_matches_cls_mode(self):
        rng = np.random.default_rng(17)
        dets = [
            Detection(box=d.box, class_id=d.class_id, cls_score=d.cls_score,
                      obj_score=d.cls_score, image_id=d.image_id)
            for d in random_detections(rng, 30, 3)
        ]
        product = inference_pipeline(dets, FusionParams(alpha=0.4, mode="product"))
        cls_only = inference_pipeline(dets, FusionParams(mode="cls"))
        assert [d.box for d in product] == [d.box for d in cls_only]

    def test_matches_stage_composition(self):
        rng = np.random.default_rng(18)
        dets = [
            Detection(box=d.box, class_id=d.class_id, cls_score=d.cls_score,
                      obj_score=float(rng.uniform(0, 1)), image_id=d.image_id)
            for d in random_detections(rng, 20, 2)
        ]
        params = FusionParams(alpha=0.4, mode="product", obj_gate=0.2)
        nms_params = NmsParams(iou_threshold=0.5, score_threshold=0.05, score_field="fused")
        got = inference_pipeline(dets, params, nms_params)

        from confdet.fusion import gate

        staged = gate(dets, 0.2)
        staged = apply_fusion(staged, params)
        staged = score_filter(staged, 0.05, "fused")
        staged = nms(staged, nms_params)
        assert got == staged

    def test_gate_applies_before_fusion(self):
        keepable = det(0, 0, 10, 10, 0.9, obj=0.8)
        gated_out = det(50, 50, 60, 60, 0.95, obj=0.1)
        out = inference_pipeline([keepable, gated_out], FusionParams(alpha=0.5, obj_gate=0.5))
        assert [d.box for d in out] == [keepable.box]

    def test_top_k_caps_nms_input(self):
        dets = [det(i * 20, 0, i * 20 + 10, 10, 0.1 + 0.05 * i, obj=0.9) for i in range(5)]
        out = inference_pipeline(
            dets, FusionParams(alpha=0.5), NmsParams(score_threshold=0.0), top_k=2
        )
        assert len(out) == 2
        assert [d.cls_score for d in out] == sorted([d.cls_score for d in dets], reverse=True)[:2]


class TestMisalignmentFlip:
    """High-cls/low-IoU box A overlaps low-cls/high-IoU box B; score-guided
    suppression keeps A, fused guidance keeps B."""

    def _instance(self):
        gt = Box(0, 0, 10, 10)
        box_a = Box(0, 0, 10, 5.5)  # IoU to gt = 0.55
        box_b = Box(0, 0, 10, 9.0)  # IoU to gt = 0.90
        assert iou(box_a, gt) == pytest.approx(0.55)
        assert iou(box_b, gt) == pytest.approx(0.90)
        assert iou(box_a, box_b) > 0.5  # they suppress each other
        a = Detection(box=box_a, class_id=0, cls_score=0.6, obj_score=iou(box_a, gt), image_id="i")
        b = Detection(box=box_b, class_id=0, cls_score=0.4, obj_score=iou(box_b, gt), image_id="i")
        return a, b

    def test_cls_guidance_keeps_high_cls_box(self):
        a, b = self._instance()
        out = inference_pipeline([a, b], FusionParams(mode="cls"))
        assert len(out) == 1
        assert out[0].box == a.box

    def test_fused_guidance_keeps_high_iou_box(self):
        a, b = self._instance()
        out = inference_pipeline([a, b], FusionParams(alpha=0.5, mode="product"))
        assert len(out) == 1
        assert out[0].box == b.box


class TestNmsOracleSweep:
    def test_thousand_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(250):  # acceptance covers the full 1000-instance sweep
            dets = random_detections(rng, int(rng.integers(1, 101)), int(rng.integers(1, 6)))
            kept = nms(dets, CLS_NMS)
            oracle_idx = nms_oracle(
                [d.box.to_list() for d in dets],
                [d.cls_score for d in dets],
                [d.class_id for d in dets],
                CLS_NMS.iou_threshold,
            )
            assert kept == [dets[i] for i in oracle_idx]
            assert nms(kept, CLS_NMS) == kept


class TestJsonl:
    def test_round_trip(self, tmp_path):
        dets = [
            det(0, 0, 10, 10, 0.9, obj=0.7, image_id="a"),
            det(1, 1, 5, 5, 0.2, image_id="b"),
        ]
        path = tmp_path / "dets.jsonl"
        dump_detections_jsonl(dets, path)
        assert load_detections_jsonl(path) == dets

    def test_obj_score_null_round_trips(self):
        d = det(0, 0, 1, 1, 0.5)
        record = detection_to_dict(d)
        assert record["obj_score"] is None
        assert detection_from_dict(json.loads(json.dumps(record))) == d

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing key"):
            detection_from_dict({"box": [0, 0, 1, 1]})

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text(
            '{"image_id": "a", "box": [0, 0, 1, 1], "class_id": 0, "cls_score": 0.5}\nnot json\n'
        )
        with pytest.raises(ValueError, match="line 2"):
            load_detections_jsonl(path)

    @pytest.mark.parametrize("line", ["[1, 2, 3]", "null", '"box"', "7"])
    def test_non_object_line_rejected_with_number(self, tmp_path, line):
        path = tmp_path / "dets.jsonl"
        path.write_text(f"\n{line}\n")
        with pytest.raises(ValueError, match=r"dets\.jsonl: line 2: each record must be a JSON object"):
            load_detections_jsonl(path)

    def test_int_beyond_float_range_rejected_with_number(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text(f'{{"image_id": "a", "box": [0, 0, 1{"0" * 400}, 1], "class_id": 0, "cls_score": 0.5}}\n')
        with pytest.raises(ValueError, match=r"dets\.jsonl: line 1: "):
            load_detections_jsonl(path)

    def test_deeply_nested_line_rejected_with_number(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text("[" * 100_000 + "\n")
        with pytest.raises(ValueError, match=r"dets\.jsonl: line 1: "):
            load_detections_jsonl(path)

    def test_group_by_image_preserves_order(self):
        dets = [
            det(0, 0, 1, 1, 0.5, image_id="b"),
            det(0, 0, 1, 1, 0.5, image_id="a"),
            det(0, 0, 1, 1, 0.6, image_id="b"),
        ]
        groups = group_by_image(dets)
        assert list(groups) == ["b", "a"]
        assert len(groups["b"]) == 2


class TestInputContract:
    def test_largest_box_duplicate_suppressed(self):
        s = math.sqrt(sys.float_info.max / 2.0)
        while not math.isfinite(2.0 * (s * s)):
            s = math.nextafter(s, 0.0)
        a = det(0.0, 0.0, s, s, 0.9)
        b = det(0.0, 0.0, s, s, 0.8)
        assert nms([b, a], CLS_NMS) == [a]

    def test_bool_class_id_rejected(self):
        with pytest.raises(ValueError, match="class_id"):
            det(0, 0, 1, 1, 0.5, class_id=True)

    @pytest.mark.parametrize("value", ["true", "false", "1.7", '"1"', "null"])
    def test_loader_rejects_non_integral_class_id(self, tmp_path, value):
        path = tmp_path / "dets.jsonl"
        path.write_text(
            '{"image_id": "a", "box": [0, 0, 1, 1], "class_id": 0, "cls_score": 0.5}\n'
            f'{{"image_id": "a", "box": [0, 0, 1, 1], "class_id": {value}, "cls_score": 0.5}}\n'
        )
        with pytest.raises(ValueError, match=r"dets\.jsonl: line 2: class_id"):
            load_detections_jsonl(path)

    def test_loader_accepts_integral_float_class_id(self):
        record = {"image_id": "a", "box": [0, 0, 1, 1], "class_id": 2.0, "cls_score": 0.5}
        loaded = detection_from_dict(record)
        assert loaded.class_id == 2 and type(loaded.class_id) is int

    def test_huge_box_in_dump_rejected_with_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text('{"image_id": "a", "box": [0, 0, 1e200, 1e200], "class_id": 0, "cls_score": 0.5}\n')
        with pytest.raises(ValueError, match="line 1: box area"):
            load_detections_jsonl(path)

    def test_large_class_ids_are_separate_classes(self):
        a = det(0, 0, 10, 10, 0.9, class_id=2**70)
        b = det(0, 0, 10, 10, 0.8, class_id=2**70 + 1)
        c = det(0, 0, 10, 10, 0.7, class_id=2**70)
        assert nms([c, b, a], CLS_NMS) == [a, b]

    def test_far_apart_boxes_kept_without_warnings(self):
        a = det(-1e308, 0.0, -1e308, 0.0, 0.9)
        b = det(1e308, 0.0, 1e308, 0.0, 0.8)
        assert iou(a.box, b.box) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nms([a, b], NmsParams(iou_threshold=0.0, score_field="cls")) == [a, b]
