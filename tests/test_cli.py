import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from confdet import assignment, postprocess
from confdet.analysis import bundled_count_table
from confdet.assignment import AssignerConfig
from confdet.cli import build_parser, main
from confdet.fusion import MODES, FusionParams
from confdet.geometry import AnchorGridConfig, Box
from confdet.postprocess import (
    Detection,
    NmsParams,
    dump_detections_jsonl,
    load_detections_jsonl,
    nms,
    score_filter,
)
from confdet.toytrain import ToyTrainConfig


def det(x1, y1, x2, y2, cls_score, class_id=0, obj=None, image_id="img"):
    return Detection(
        box=Box(x1, y1, x2, y2), class_id=class_id, cls_score=cls_score,
        obj_score=obj, image_id=image_id,
    )


def random_dump(path, seed=0, n=50, with_obj=True, image_ids=("img",)):
    rng = np.random.default_rng(seed)
    dets = []
    for image_id in image_ids:
        for _ in range(n):
            x1, y1 = rng.uniform(0, 80, 2)
            w, h = rng.uniform(2, 30, 2)
            dets.append(
                det(
                    float(x1), float(y1), float(x1 + w), float(y1 + h),
                    cls_score=float(rng.uniform(0.05, 1.0)),
                    class_id=int(rng.integers(0, 3)),
                    obj=float(rng.uniform(0, 1)) if with_obj else None,
                    image_id=image_id,
                )
            )
    dump_detections_jsonl(dets, path, include_fused=False)
    return dets


class TestNmsCommand:
    def test_cls_mode_matches_baseline(self, tmp_path):
        src = tmp_path / "in.jsonl"
        out = tmp_path / "out.jsonl"
        dets = random_dump(src, seed=1, with_obj=False)
        assert main(["nms", str(src), str(out), "--mode", "cls"]) == 0
        got = load_detections_jsonl(out)
        baseline = nms(
            score_filter(dets, 0.05, "cls"),
            NmsParams(iou_threshold=0.5, score_field="cls"),
        )
        assert [d.box for d in got] == [d.box for d in baseline]
        assert [d.cls_score for d in got] == [d.cls_score for d in baseline]

    def test_empty_input_empty_output(self, tmp_path):
        src = tmp_path / "in.jsonl"
        out = tmp_path / "out.jsonl"
        src.write_text("")
        assert main(["nms", str(src), str(out)]) == 0
        assert out.read_text() == ""

    def test_byte_identical_across_runs(self, tmp_path):
        src = tmp_path / "in.jsonl"
        random_dump(src, seed=2)
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["nms", str(src), str(out1), "--alpha", "0.4"]) == 0
        assert main(["nms", str(src), str(out2), "--alpha", "0.4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_schema_error_exit_code_and_line(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        out = tmp_path / "out.jsonl"
        src.write_text('{"image_id": "a", "box": [0, 0, 1, 1], "class_id": 0}\n')
        assert main(["nms", str(src), str(out)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_obj_gate_drops_boxes(self, tmp_path):
        src = tmp_path / "in.jsonl"
        out = tmp_path / "out.jsonl"
        dets = [
            det(0, 0, 10, 10, 0.9, obj=0.9),
            det(30, 30, 40, 40, 0.9, obj=0.2),
        ]
        dump_detections_jsonl(dets, src, include_fused=False)
        assert main(["nms", str(src), str(out), "--obj-gate", "0.5"]) == 0
        got = load_detections_jsonl(out)
        assert len(got) == 1
        assert got[0].box == dets[0].box

    def test_images_processed_independently_in_input_order(self, tmp_path):
        src = tmp_path / "in.jsonl"
        out = tmp_path / "out.jsonl"
        random_dump(src, seed=3, n=20, image_ids=("b", "a"))
        assert main(["nms", str(src), str(out)]) == 0
        got = load_detections_jsonl(out)
        ids = [d.image_id for d in got]
        assert ids == sorted(ids, key=["b", "a"].index)

    def test_topk_flag(self, tmp_path):
        src = tmp_path / "in.jsonl"
        out = tmp_path / "out.jsonl"
        dets = [det(i * 20, 0, i * 20 + 10, 10, 0.5 + 0.1 * i, obj=0.9) for i in range(4)]
        dump_detections_jsonl(dets, src, include_fused=False)
        assert main(["nms", str(src), str(out), "--topk", "2"]) == 0
        assert len(load_detections_jsonl(out)) == 2

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["nms", str(tmp_path / "nope.jsonl"), str(tmp_path / "out.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("line", ["[1, 2, 3]", "null"])
    def test_non_object_line_exit_code_and_line(self, tmp_path, capsys, line):
        src = tmp_path / "in.jsonl"
        src.write_text(line + "\n")
        assert main(["nms", str(src), str(tmp_path / "out.jsonl")]) == 2
        assert "in.jsonl: line 1: each record must be a JSON object" in capsys.readouterr().err

class TestAnalyzeCommand:
    def test_counts_mode_iou_golden(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main([
            "analyze", "--counts", str(bundled_count_table()),
            "--conditions", "iou>0.5", "--out-report", str(report),
        ])
        assert code == 0
        payload = json.loads(report.read_text())
        (entry,) = payload["reports"]
        assert entry["average_delta_pp"] == pytest.approx(-19.52, abs=0.01)
        deltas = [row["delta_pp"] for row in entry["per_image"]]
        assert any(math.isclose(d, -31.50, abs_tol=0.01) for d in deltas)
        assert any(math.isclose(d, -39.84, abs_tol=0.01) for d in deltas)
        assert "average delta -19.52 pp" in capsys.readouterr().out

    def test_counts_mode_cls_golden(self, tmp_path):
        report = tmp_path / "report.json"
        main([
            "analyze", "--counts", str(bundled_count_table()),
            "--conditions", "cls>0.5", "--out-report", str(report),
        ])
        (entry,) = json.loads(report.read_text())["reports"]
        assert entry["average_delta_pp"] == pytest.approx(-1.09, abs=0.01)

    def test_raw_dumps_and_counts_modes_agree(self, tmp_path):
        rng = np.random.default_rng(4)
        gts = [
            {"image_id": "img", "box": [2.0, 2.0, 30.0, 30.0], "class_id": 0},
            {"image_id": "img", "box": [40.0, 40.0, 70.0, 75.0], "class_id": 1},
        ]
        gts_path = tmp_path / "gt.jsonl"
        gts_path.write_text("\n".join(json.dumps(g) for g in gts) + "\n")

        before_path = tmp_path / "before.jsonl"
        dets = random_dump(before_path, seed=5, n=80)
        after = [d for i, d in enumerate(dets) if i % 4 == 0]
        after_path = tmp_path / "after.jsonl"
        dump_detections_jsonl(after, after_path, include_fused=False)

        report_a = tmp_path / "a.json"
        stats_csv = tmp_path / "stats.csv"
        code = main([
            "analyze", "--before", str(before_path), "--after", str(after_path),
            "--gts", str(gts_path), "--conditions", "iou>0.5,cls>0.5",
            "--out-report", str(report_a), "--out-stats", str(stats_csv),
        ])
        assert code == 0

        report_b = tmp_path / "b.json"
        code = main([
            "analyze", "--counts", str(stats_csv),
            "--conditions", "iou>0.5,cls>0.5", "--out-report", str(report_b),
        ])
        assert code == 0
        assert json.loads(report_a.read_text()) == json.loads(report_b.read_text())

    def test_scatter_output(self, tmp_path):
        before_path = tmp_path / "before.jsonl"
        dets = random_dump(before_path, seed=6, n=10)
        after_path = tmp_path / "after.jsonl"
        dump_detections_jsonl(dets[:3], after_path, include_fused=False)
        gts_path = tmp_path / "gt.jsonl"
        gts_path.write_text(json.dumps({"image_id": "img", "box": [0, 0, 50, 50], "class_id": 0}) + "\n")
        scatter = tmp_path / "scatter.csv"
        code = main([
            "analyze", "--before", str(before_path), "--after", str(after_path),
            "--gts", str(gts_path), "--conditions", "cls>0.5",
            "--out-scatter", str(scatter),
        ])
        assert code == 0
        lines = scatter.read_text().strip().splitlines()
        assert lines[0] == "max_iou,cls_score"
        assert len(lines) == 11

    def test_images_only_in_after_rejected(self, tmp_path, capsys):
        before_path = tmp_path / "before.jsonl"
        random_dump(before_path, seed=7, n=5, image_ids=("a",))
        after_path = tmp_path / "after.jsonl"
        random_dump(after_path, seed=7, n=5, image_ids=("a", "ghost-1", "ghost-2"))
        code = main(["analyze", "--before", str(before_path), "--after", str(after_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "images missing from --before" in err
        assert "'ghost-1', 'ghost-2'" in err

    def test_reads_each_input_once(self, tmp_path, monkeypatch):
        before_path = tmp_path / "before.jsonl"
        dets = random_dump(before_path, seed=8, n=10)
        after_path = tmp_path / "after.jsonl"
        dump_detections_jsonl(dets[:4], after_path, include_fused=False)
        gts_path = tmp_path / "gt.jsonl"
        gts_path.write_text(json.dumps({"image_id": "img", "box": [0, 0, 50, 50], "class_id": 0}) + "\n")
        loaded = []
        for module, name in ((postprocess, "load_detections_jsonl"), (assignment, "load_ground_truth_jsonl")):
            def counting(path, _load=getattr(module, name)):
                loaded.append(str(path))
                return _load(path)
            monkeypatch.setattr(module, name, counting)
        code = main([
            "analyze", "--before", str(before_path), "--after", str(after_path),
            "--gts", str(gts_path), "--out-stats", str(tmp_path / "s.csv"),
            "--out-report", str(tmp_path / "r.json"), "--out-scatter", str(tmp_path / "sc.csv"),
        ])
        assert code == 0
        assert sorted(loaded) == sorted([str(before_path), str(after_path), str(gts_path)])

    def test_flag_checks_precede_any_write(self, tmp_path, capsys):
        report, scatter = tmp_path / "r.json", tmp_path / "s.csv"
        code = main([
            "analyze", "--counts", str(bundled_count_table()),
            "--out-report", str(report), "--out-scatter", str(scatter),
        ])
        assert code == 2
        assert "--out-scatter needs --before and --gts" in capsys.readouterr().err
        assert not report.exists() and not scatter.exists()

    def test_positive_iou_is_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--counts", str(bundled_count_table()), "--positive-iou", "0.5"])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"positive_iou": 0.5}))
        assert main(["analyze", "--counts", str(bundled_count_table()), "--config", str(config)]) == 2
        assert "unknown keys: ['positive_iou']" in capsys.readouterr().err

    def test_requires_exactly_one_input_mode(self, tmp_path, capsys):
        assert main(["analyze", "--conditions", "iou>0.5"]) == 2
        assert main([
            "analyze", "--counts", str(bundled_count_table()),
            "--before", "x.jsonl", "--conditions", "iou>0.5",
        ]) == 2
        capsys.readouterr()
        assert main(["analyze", "--before", str(tmp_path / "missing.jsonl")]) == 2
        assert capsys.readouterr().err == "error: --before needs --after\n"
        for flag in ("--after", "--gts"):
            report = tmp_path / "r.json"
            assert main([
                "analyze", "--counts", str(bundled_count_table()), flag, str(tmp_path / "missing.jsonl"),
                "--out-report", str(report),
            ]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: --counts replays a count table and takes no {flag}\n"
            assert captured.out == "" and not report.exists()

    def test_counts_on_each_threshold_are_strict(self, tmp_path):
        # one 32x32 ground truth: the 32x16 box inside it is at IoU exactly 0.5
        gts_path = tmp_path / "gt.jsonl"
        gts_path.write_text(json.dumps({"image_id": "img", "box": [0, 0, 32, 32], "class_id": 0}) + "\n")
        before = [
            det(0, 0, 32, 16, 0.9),  # IoU 0.5 exactly
            det(0, 0, 32, 32, 0.5),  # cls 0.5 exactly
            det(0, 0, 32, 8, 0.05),  # cls 0.05 exactly: in neither stage total
            det(0, 0, 32, 17, 0.51),  # IoU 17/32
            det(100, 100, 110, 110, 0.06),  # IoU 0
        ]
        before_path, after_path = tmp_path / "before.jsonl", tmp_path / "after.jsonl"
        dump_detections_jsonl(before, before_path, include_fused=False)
        dump_detections_jsonl(before[:3], after_path, include_fused=False)
        stats, replayed = tmp_path / "stats.csv", tmp_path / "replayed.csv"
        report_a, report_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([
            "analyze", "--before", str(before_path), "--after", str(after_path), "--gts", str(gts_path),
            "--out-stats", str(stats), "--out-report", str(report_a),
        ]) == 0
        assert stats.read_text().splitlines() == [
            "image_id,stage,condition,count",
            "img,before,iou>0.5,2", "img,before,cls>0.5,2", "img,before,cls>0.05,4",
            "img,after,iou>0.5,1", "img,after,cls>0.5,1", "img,after,cls>0.05,2",
        ]
        assert main(["analyze", "--counts", str(stats), "--out-stats", str(replayed), "--out-report", str(report_b)]) == 0
        assert replayed.read_bytes() == stats.read_bytes()
        assert report_b.read_bytes() == report_a.read_bytes()
        assert json.loads(report_a.read_text())["reports"][0]["per_image"] == [
            {"image_id": "img", "before_pct": 50.0, "after_pct": 50.0, "delta_pp": 0.0}
        ]

    def test_bad_condition_rejected(self, capsys):
        assert main([
            "analyze", "--counts", str(bundled_count_table()), "--conditions", "iou>oops",
        ]) == 2
        assert "error:" in capsys.readouterr().err


class TestGradcheckCommand:
    @pytest.mark.parametrize("loss", ["l1", "l2", "ce", "focal", "gfocal", "wce", "smooth_l1"])
    def test_each_loss_passes(self, loss, capsys):
        assert main(["gradcheck", "--loss", loss, "--trials", "100", "--tol", "1e-6"]) == 0
        assert "max relative error" in capsys.readouterr().out

    def test_zero_tolerance_fails(self, capsys):
        assert main(["gradcheck", "--loss", "ce", "--tol", "0"]) == 1

    def test_deterministic_output(self, capsys):
        main(["gradcheck", "--loss", "ce", "--seed", "7"])
        first = capsys.readouterr().out
        main(["gradcheck", "--loss", "ce", "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_unknown_loss_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["gradcheck", "--loss", "hinge"])
        assert err.value.code == 2


class TestToytrainCommand:
    def test_single_iteration_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["toytrain", str(out), "--iters", "1"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "iter,loss,mae,grad_norm"
        assert len(lines) == 2

    def test_same_seed_identical_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--loss", "ce", "--init", "saturated+", "--iters", "50", "--seed", "3"]
        assert main(["toytrain", str(a)] + args) == 0
        assert main(["toytrain", str(b)] + args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_diverged_run_says_so(self, tmp_path, capsys):
        # from theta = 0, one step of lr 1.7e308 overflows a weight of this 1 x 50 dataset
        out = tmp_path / "trace.csv"
        assert main(["toytrain", str(out), "--n", "1", "--d", "50", "--lr", "1.7e308", "--iters", "20"]) == 0
        assert capsys.readouterr().out == "diverged after 1 iterations (flag recorded in CSV footer)\n"
        assert out.read_text().splitlines()[-1].startswith("# diverged")

    def test_ce_crosses_before_l2(self, tmp_path):
        def first_crossing(path):
            rows = path.read_text().strip().splitlines()[1:]
            for row in rows:
                it, _, mae, _ = row.split(",")
                if float(mae) < 0.05:
                    return int(it)
            return None

        ce_out, l2_out = tmp_path / "ce.csv", tmp_path / "l2.csv"
        common = ["--init", "saturated+", "--lr", "0.5", "--iters", "500", "--seed", "0"]
        main(["toytrain", str(ce_out), "--loss", "ce"] + common)
        main(["toytrain", str(l2_out), "--loss", "l2"] + common)
        ce_cross, l2_cross = first_crossing(ce_out), first_crossing(l2_out)
        assert ce_cross is not None
        assert l2_cross is None or ce_cross < l2_cross


class TestAnchorsAndAssignCommands:
    def test_anchor_count_matches_formula(self, tmp_path):
        out = tmp_path / "anchors.jsonl"
        assert main(["anchors", str(out), "--image-w", "64", "--image-h", "48",
                     "--strides", "16,32", "--base-sizes", "32,64",
                     "--scales", "1.0", "--ratios", "0.5,1.0,2.0"]) == 0
        lines = out.read_text().strip().splitlines()
        expected = (math.ceil(48 / 16) * math.ceil(64 / 16) + math.ceil(48 / 32) * math.ceil(64 / 32)) * 3
        assert len(lines) == expected
        record = json.loads(lines[0])
        assert set(record) == {"box", "level", "cell"}

    def test_assign_round_trip(self, tmp_path):
        anchors_path = tmp_path / "anchors.jsonl"
        main(["anchors", str(anchors_path), "--image-w", "64", "--image-h", "64",
              "--strides", "16", "--base-sizes", "24", "--scales", "1.0", "--ratios", "1.0"])
        gts_path = tmp_path / "gt.jsonl"
        gts_path.write_text(json.dumps({"image_id": "i", "box": [8, 8, 32, 32], "class_id": 0}) + "\n")
        out = tmp_path / "labels.jsonl"
        assert main(["assign", str(out), "--anchors", str(anchors_path), "--gts", str(gts_path)]) == 0
        records = [json.loads(line) for line in out.read_text().strip().splitlines()]
        assert len(records) == 16
        labels = {r["label"] for r in records}
        assert labels <= {"positive", "negative", "ignore"}
        assert any(r["label"] == "positive" for r in records)

    def test_assign_needs_image_id_when_ambiguous(self, tmp_path, capsys):
        anchors_path = tmp_path / "anchors.jsonl"
        main(["anchors", str(anchors_path), "--image-w", "32", "--image-h", "32",
              "--strides", "16", "--base-sizes", "24", "--scales", "1.0", "--ratios", "1.0"])
        gts_path = tmp_path / "gt.jsonl"
        gts_path.write_text(
            json.dumps({"image_id": "a", "box": [0, 0, 16, 16], "class_id": 0}) + "\n"
            + json.dumps({"image_id": "b", "box": [0, 0, 16, 16], "class_id": 0}) + "\n"
        )
        out = tmp_path / "labels.jsonl"
        assert main(["assign", str(out), "--anchors", str(anchors_path), "--gts", str(gts_path)]) == 2
        assert "--image-id required" in capsys.readouterr().err

    def test_assign_image_id_without_ground_truth(self, tmp_path, capsys):
        anchors_path = tmp_path / "anchors.jsonl"
        main(["anchors", str(anchors_path), "--image-w", "32", "--image-h", "32",
              "--strides", "16", "--base-sizes", "24", "--scales", "1.0", "--ratios", "1.0"])
        gts_path = tmp_path / "gt.jsonl"
        gts_path.write_text(json.dumps({"image_id": "a", "box": [0, 0, 16, 16], "class_id": 0}) + "\n")
        out = tmp_path / "labels.jsonl"
        capsys.readouterr()
        code = main(["assign", str(out), "--anchors", str(anchors_path), "--gts", str(gts_path), "--image-id", "b"])
        assert code == 2
        assert capsys.readouterr().err == "error: no ground truth for image 'b'\n"
        assert not out.exists()

    def test_assign_lines_are_json_dumps_bytes(self, tmp_path, monkeypatch):
        labels = [assignment.NEGATIVE, assignment.IGNORE, 0, 1, 12, assignment.NEGATIVE]
        matched_iou = [0.0, 1.0 / 3.0, 1.0, 5e-324, 0.5, 1e-7]
        forced = [False, False, False, True, False, False]
        result = assignment.AssignmentResult(labels=labels, matched_iou=matched_iou, forced=forced)
        monkeypatch.setattr(assignment, "assign", lambda anchors, gts, cfg: result)
        anchors_path = tmp_path / "anchors.jsonl"
        anchors_path.write_text(json.dumps({"box": [0, 0, 1, 1]}) + "\n")
        gts_path = tmp_path / "gt.jsonl"
        gts_path.write_text(json.dumps({"image_id": "i", "box": [0, 0, 1, 1], "class_id": 0}) + "\n")
        out = tmp_path / "labels.jsonl"
        assert main(["assign", str(out), "--anchors", str(anchors_path), "--gts", str(gts_path)]) == 0
        names = {assignment.NEGATIVE: "negative", assignment.IGNORE: "ignore"}
        expected = "".join(
            json.dumps({"index": i, "label": names.get(label, "positive"), "gt_index": label if label >= 0 else None,
                        "matched_iou": value, "forced": f}) + "\n"
            for i, (label, value, f) in enumerate(zip(labels, matched_iou, forced))
        )
        assert out.read_bytes() == expected.encode("utf-8")


    @pytest.mark.parametrize("line", ['{"box": 5}', "[0, 0, 16, 16]", '{"box": [0, 0, 1' + "0" * 400 + ', 1]}'])
    def test_bad_anchor_line_exit_code_and_line(self, tmp_path, capsys, line):
        anchors_path = tmp_path / "anchors.jsonl"
        anchors_path.write_text(line + "\n")
        gts_path = tmp_path / "gt.jsonl"
        gts_path.write_text(json.dumps({"image_id": "i", "box": [8, 8, 32, 32], "class_id": 0}) + "\n")
        out = tmp_path / "labels.jsonl"
        assert main(["assign", str(out), "--anchors", str(anchors_path), "--gts", str(gts_path)]) == 2
        assert "anchors.jsonl: line 1: " in capsys.readouterr().err

class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        src = tmp_path / "in.jsonl"
        dets = [
            det(0, 0, 10, 10, 0.9, obj=0.2),
            det(0, 0, 10, 10, 0.2, obj=0.9),
        ]
        dump_detections_jsonl(dets, src, include_fused=False)

        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 1.0, "iou_thresh": 0.5}))

        # config alone: alpha 1.0 ranks purely by obj, second box wins
        out1 = tmp_path / "o1.jsonl"
        assert main(["nms", str(src), str(out1), "--config", str(config)]) == 0
        assert load_detections_jsonl(out1)[0].obj_score == 0.9

        # explicit flag overrides config: alpha 0 ranks by cls, first box wins
        out2 = tmp_path / "o2.jsonl"
        assert main(["nms", str(src), str(out2), "--config", str(config), "--alpha", "0"]) == 0
        assert load_detections_jsonl(out2)[0].cls_score == 0.9

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text("")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alhpa": 0.5}))
        assert main(["nms", str(src), str(tmp_path / "out.jsonl"), "--config", str(config)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    # (argv before --config, that subcommand's config keys)
    _KEYS = {
        "nms": (["nms", "in.jsonl", "out.jsonl"], ["alpha", "mode", "iou_thresh", "score_thresh", "obj_gate", "topk"]),
        "analyze": (["analyze"], ["before", "after", "gts", "counts", "conditions", "out_stats", "out_report",
                                  "out_scatter"]),
        "gradcheck": (["gradcheck", "--loss", "ce"], ["trials", "tol", "seed"]),
        "toytrain": (["toytrain", "t.csv"], ["loss", "init", "lr", "iters", "seed", "n", "d", "noise"]),
        "anchors": (["anchors", "a.jsonl", "--image-w", "8", "--image-h", "8"],
                    ["strides", "base_sizes", "scales", "ratios"]),
        "assign": (["assign", "l.jsonl", "--anchors", "a.jsonl", "--gts", "g.jsonl"], ["pos_iou", "neg_iou", "image_id"]),
    }

    @pytest.mark.parametrize(("command", "key"), [(c, k) for c, (_, keys) in _KEYS.items() for k in keys])
    def test_non_scalar_value_names_path_and_key(self, tmp_path, capsys, command, key):
        argv, _ = self._KEYS[command]
        config = tmp_path / "config.json"
        for value in (None, True, [8, 16], {"a": 1}):
            config.write_text(json.dumps({key: value}))
            assert main([*argv, "--config", str(config)]) == 2
            err = capsys.readouterr().err
            assert f"{config}: key {key!r}: expected a string or a number" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(("command", "key"), [
        ("gradcheck", "loss"), ("anchors", "image_w"), ("assign", "anchors"), ("assign", "no_force_match"),
        ("nms", "config"), ("nms", "input"), ("nms", "func"),
    ])
    def test_required_positional_and_switch_flags_are_not_keys(self, tmp_path, capsys, command, key):
        argv, _ = self._KEYS[command]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: "x"}))
        assert main([*argv, "--config", str(config)]) == 2
        assert f"config has unknown keys: [{key!r}]" in capsys.readouterr().err

    @pytest.mark.parametrize(("cfg", "message"), [
        ({"alpha": "abc"}, "could not convert string to float"),
        ({"topk": 2.5}, "invalid literal for int()"),
        ({"mode": "sum"}, "'sum' is not one of"),
    ])
    def test_value_fails_its_flags_type_or_choices(self, tmp_path, capsys, cfg, message):
        src, config = tmp_path / "in.jsonl", tmp_path / "config.json"
        src.write_text("")
        config.write_text(json.dumps(cfg))
        assert main(["nms", str(src), str(tmp_path / "out.jsonl"), "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{config}: key {next(iter(cfg))!r}: " in err and message in err

    @pytest.mark.parametrize("content", [
        b"{", b'{"alpha": 0.5,}', b'{"alpha": "\xff"}', b"[1, 2]", b"[" * 100_000 + b"]" * 100_000,
    ], ids=["truncated", "trailing-comma", "non-utf8", "not-object", "deep"])
    def test_bad_config_file_names_path(self, tmp_path, capsys, content):
        src, config = tmp_path / "in.jsonl", tmp_path / "config.json"
        src.write_text("")
        config.write_bytes(content)
        assert main(["nms", str(src), str(tmp_path / "out.jsonl"), "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ")
        assert "Traceback" not in err

    def test_config_matches_the_same_flags_byte_for_byte(self, tmp_path):
        src = tmp_path / "in.jsonl"
        random_dump(src, seed=5, n=80, image_ids=("a", "b"))
        cfg = {"alpha": "0.3", "mode": "product", "iou_thresh": 0.45, "score_thresh": 0.1, "obj_gate": 0.2,
               "topk": 12}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        flags = [f for key, value in cfg.items() for f in ("--" + key.replace("_", "-"), str(value))]
        by_config, by_flags = tmp_path / "c.jsonl", tmp_path / "f.jsonl"
        assert main(["nms", str(src), str(by_config), "--config", str(config)]) == 0
        assert main(["nms", str(src), str(by_flags), *flags]) == 0
        assert by_config.read_bytes() == by_flags.read_bytes()
        assert main(["nms", str(src), str(by_flags)]) == 0
        assert by_config.read_bytes() != by_flags.read_bytes()

    _JSON = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
        | st.floats(0, 1).map(repr) | st.integers(-3, 50).map(str) | st.sampled_from(MODES),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=st.dictionaries(st.sampled_from(_KEYS["nms"][1]), _JSON, max_size=4))
    def test_any_json_value_exits_0_or_2(self, tmp_path, capsys, cfg):
        src, config = tmp_path / "in.jsonl", tmp_path / "config.json"
        if not src.exists():
            random_dump(src, seed=6, n=20)
        config.write_text(json.dumps(cfg))
        assert main(["nms", str(src), str(tmp_path / "out.jsonl"), "--config", str(config)]) in (0, 2)
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["nms", "analyze", "gradcheck", "toytrain", "anchors", "assign"])
def test_help_renders_for_every_subcommand(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: confdet {command}") and "%(" not in out


def test_retinanet_defaults_are_cli_defaults():
    config = AnchorGridConfig.retinanet_defaults()
    from confdet.cli import _csv_floats, _csv_ints

    args = build_parser().parse_args(["anchors", "a.jsonl", "--image-w", "8", "--image-h", "8"])
    assert tuple(_csv_ints(args.strides)) == config.strides
    assert tuple(_csv_floats(args.base_sizes)) == config.base_sizes
    assert tuple(_csv_floats(args.scales)) == pytest.approx(config.scales)
    assert tuple(_csv_floats(args.ratios)) == config.ratios


def test_cli_defaults_are_library_defaults():
    nms_args = build_parser().parse_args(["nms", "a", "b"])
    assign_args = build_parser().parse_args(["assign", "o", "--anchors", "a", "--gts", "g"])
    toy_args = build_parser().parse_args(["toytrain", "o"])

    fusion, nms_params = FusionParams(), NmsParams()
    assert (nms_args.alpha, nms_args.mode, nms_args.obj_gate) == (
        fusion.alpha, fusion.mode, fusion.obj_gate)
    assert (nms_args.iou_thresh, nms_args.score_thresh) == (
        nms_params.iou_threshold, nms_params.score_threshold)
    cfg = AssignerConfig()
    assert (assign_args.pos_iou, assign_args.neg_iou) == (cfg.pos_iou, cfg.neg_iou)
    toy = ToyTrainConfig()
    assert [getattr(toy_args, k) for k in ("loss", "init", "lr", "iters", "seed")] == [
        toy.loss_kind, toy.init, toy.learning_rate, toy.max_iters, toy.seed]


def test_analyze_count_table_keeps_close_thresholds_apart(tmp_path):
    gts_path = tmp_path / "gt.jsonl"
    gts_path.write_text(json.dumps({"image_id": "img", "box": [10.0, 10.0, 40.0, 40.0], "class_id": 0}) + "\n")
    before_path, after_path = tmp_path / "before.jsonl", tmp_path / "after.jsonl"
    dets = random_dump(before_path, seed=7, n=60)
    dump_detections_jsonl(dets[::3], after_path, include_fused=False)
    conditions = "iou>0.5,iou>0.5000001,iou>0.1234567"
    stats_csv, report_a, report_b = tmp_path / "stats.csv", tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", "--before", str(before_path), "--after", str(after_path), "--gts", str(gts_path),
                 "--conditions", conditions, "--out-stats", str(stats_csv), "--out-report", str(report_a)]) == 0
    rows = [line.split(",")[:3] for line in stats_csv.read_text().splitlines()[1:]]
    assert {row[2] for row in rows} == {"cls>0.05", "iou>0.5", "iou>0.5000001", "iou>0.1234567"}
    assert len({tuple(row) for row in rows}) == len(rows)
    assert main(["analyze", "--counts", str(stats_csv), "--conditions", conditions, "--out-report", str(report_b)]) == 0
    assert json.loads(report_a.read_text()) == json.loads(report_b.read_text())


def test_duplicate_count_table_row_exits_2(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("image_id,stage,condition,count\na,before,cls>0.05,10\na,after,cls>0.05,4\n"
                    "a,before,iou>0.5,3\na,before,iou>0.5,9\n")
    assert main(["analyze", "--counts", str(path), "--conditions", "iou>0.5"]) == 2
    assert f"{path}: line 5: duplicate row 'a', before, iou>0.5" in capsys.readouterr().err
