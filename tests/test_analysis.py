import csv
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdet import analysis
from confdet.analysis import (
    CLS,
    IOU,
    TOTAL_CONDITION,
    Condition,
    ImageStats,
    bundled_count_table,
    compute_image_stats,
    emit_count_table,
    ingest_count_table,
    max_iou_to_gts,
    misalignment_summary,
    proportions_from_counts,
    report_to_dict,
    round_half_up,
    write_scatter_csv,
)
from confdet.assignment import AssignerConfig, GroundTruthBox, assign
from confdet.geometry import Box, iou_matrix
from confdet.postprocess import Detection, _Detections


def det(x1, y1, x2, y2, cls_score, image_id="img"):
    return Detection(box=Box(x1, y1, x2, y2), class_id=0, cls_score=cls_score, image_id=image_id)


def gt(x1, y1, x2, y2):
    return GroundTruthBox(box=Box(x1, y1, x2, y2), class_id=0)


@pytest.fixture(scope="module")
def table_stats():
    return ingest_count_table(str(bundled_count_table()))


class TestCondition:
    def test_parse_and_format(self):
        cond = Condition.parse("iou>0.5")
        assert cond == Condition(IOU, 0.5)
        assert str(cond) == "iou>0.5"
        assert str(Condition.parse("cls>0.05")) == "cls>0.05"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Condition.parse("iou>abc")
        with pytest.raises(ValueError):
            Condition.parse("iou 0.5")
        with pytest.raises(ValueError):
            Condition.parse("area>0.5")

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            Condition(CLS, 1.5)


class TestComputeImageStats:
    def test_counts_by_max_iou(self):
        # detections with best-IoU {0.2, 0.6, 0.9} against one gt
        gts = [gt(0, 0, 10, 10)]
        dets = [det(0, 0, 10, 2, 0.9), det(0, 0, 10, 6, 0.9), det(0, 0, 10, 9, 0.9)]
        stats = compute_image_stats(dets, [], gts, conditions=[Condition(IOU, 0.5)])
        assert stats.before[Condition(IOU, 0.5)] == 2

    def test_cls_condition_zero_counts_everything(self):
        dets = [det(0, 0, 1, 1, s) for s in (0.2, 0.4, 0.9)]
        stats = compute_image_stats(dets, [], [], conditions=[Condition(CLS, 0.0)])
        assert stats.before[Condition(CLS, 0.0)] == 3

    def test_subset_after_is_never_larger(self):
        rng = np.random.default_rng(0)
        dets = [det(x, y, x + w, y + h, s)
                for x, y, w, h, s in np.column_stack([rng.uniform(0, 20, (30, 4)), rng.uniform(0.06, 1, 30)])]
        after = dets[::3]
        gts = [gt(0, 0, 15, 15)]
        conditions = [Condition(CLS, t) for t in (0.1, 0.5)] + [Condition(IOU, t) for t in (0.3, 0.7)]
        stats = compute_image_stats(dets, after, gts, conditions=conditions)
        for cond in conditions:
            assert stats.after[cond] <= stats.before[cond]
        assert stats.after_total <= stats.before_total

    def test_counts_anti_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        dets = [det(x, y, x + w, y + h, s)
                for x, y, w, h, s in np.column_stack([rng.uniform(0, 20, (40, 4)), rng.uniform(0, 1, 40)])]
        conds = [Condition(CLS, t) for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        stats = compute_image_stats(dets, [], [], conditions=conds)
        counts = [stats.before[c] for c in conds]
        assert counts == sorted(counts, reverse=True)

    def test_empty_gts_warns_and_zeroes_iou(self):
        dets = [det(0, 0, 10, 10, 0.9)]
        with pytest.warns(UserWarning, match="no ground truth"):
            stats = compute_image_stats(dets, [], [], conditions=[Condition(IOU, 0.5)])
        assert stats.before[Condition(IOU, 0.5)] == 0

    def test_positive_num_from_anchors(self):
        gts = [gt(0, 0, 10, 10)]
        anchors = [Box(0, 0, 10, 6), Box(0, 0, 10, 4), Box(0, 0, 10, 9)]  # IoUs 0.6, 0.4, 0.9
        stats = compute_image_stats([], [], gts, anchors=anchors)
        assert stats.positive_num == 2

    def test_positive_num_zero_without_ground_truth_or_anchors(self):
        anchors = [Box(0, 0, 10, 6), Box(0, 0, 10, 9)]
        assert compute_image_stats([], [], [], anchors=anchors).positive_num == 0
        assert compute_image_stats([], [], [gt(0, 0, 10, 10)], anchors=[]).positive_num == 0
        assert compute_image_stats([], [], [], anchors=[]).positive_num == 0

    def test_positive_num_none_without_anchors(self):
        stats = compute_image_stats([], [], [])
        assert stats.positive_num is None

    def test_mixed_image_ids_rejected(self):
        with pytest.raises(ValueError, match="single image"):
            compute_image_stats([det(0, 0, 1, 1, 0.5, "a")], [det(0, 0, 1, 1, 0.5, "b")], [])


class TestEqualToThreshold:
    """Every count is strict: a value exactly on a threshold is not counted.

    One 32x32 ground truth; the 32x16 box inside it sits at IoU exactly 0.5.
    """

    GTS = [gt(0, 0, 32, 32)]
    BEFORE = [
        det(0, 0, 32, 16, 0.9),  # IoU 0.5 exactly
        det(0, 0, 32, 32, 0.5),  # cls 0.5 exactly, IoU 1
        det(0, 0, 32, 8, 0.05),  # cls 0.05 exactly, IoU 0.25
        det(0, 0, 32, 17, 0.51),  # IoU 17/32
        det(100, 100, 110, 110, 0.06),  # IoU 0
    ]
    AFTER = BEFORE[:3]
    CONDITIONS = [Condition(IOU, 0.5), Condition(CLS, 0.5)]
    # (0, 0, 32, 16) is at IoU 0.5 exactly; (0, 0, 32, 17) and the ground truth's own box are above it
    ANCHORS = [Box(0, 0, 32, 16), Box(0, 0, 32, 17), Box(0, 0, 32, 32), Box(64, 64, 96, 96)]

    def test_hand_counts(self):
        stats = compute_image_stats(self.BEFORE, self.AFTER, self.GTS, self.ANCHORS, self.CONDITIONS)
        assert stats.before == {Condition(IOU, 0.5): 2, Condition(CLS, 0.5): 2}
        assert stats.after == {Condition(IOU, 0.5): 1, Condition(CLS, 0.5): 1}
        assert (stats.before_total, stats.after_total) == (4, 2)
        assert stats.positive_num == 2

    def test_assign_labels_the_iou_half_anchor_positive(self):
        # assign's band is pos_iou <= IoU, positive_num's is IoU > 0.5
        cfg = AssignerConfig(pos_iou=0.5, neg_iou=0.4, force_match=False)
        assert assign(self.ANCHORS, self.GTS, cfg).n_pos == 3

    def test_count_table_round_trip_keeps_the_counts(self, tmp_path):
        stats = compute_image_stats(self.BEFORE, self.AFTER, self.GTS, self.ANCHORS, self.CONDITIONS)
        path = tmp_path / "counts.csv"
        emit_count_table([stats], path)
        assert path.read_text().splitlines() == [
            "image_id,stage,condition,count", "img,positive,iou>0.5,2",
            "img,before,cls>0.05,4", "img,before,iou>0.5,2", "img,before,cls>0.5,2",
            "img,after,cls>0.05,2", "img,after,iou>0.5,1", "img,after,cls>0.5,1",
        ]
        (again,) = ingest_count_table(path)
        assert (again.positive_num, again.before_total, again.after_total) == (2, 4, 2)
        assert again.before == {TOTAL_CONDITION: 4, **stats.before}
        assert again.after == {TOTAL_CONDITION: 2, **stats.after}


class TestProportions:
    def test_single_image_golden(self, table_stats):
        # the steepest drop in the fixture: 249/364 before vs 4/14 after
        report = proportions_from_counts(table_stats, Condition(IOU, 0.5))
        row = {r.image_id: r for r in report.per_image}["Image6"]
        assert row.before_pct == pytest.approx(68.41, abs=0.01)
        assert row.after_pct == pytest.approx(28.57, abs=0.01)
        assert row.delta_pp == pytest.approx(-39.84, abs=0.01)

    def test_ten_image_average_golden(self, table_stats):
        report = proportions_from_counts(table_stats, Condition(IOU, 0.5))
        assert len(report.per_image) == 10
        assert report.average_delta_pp == pytest.approx(-19.52, abs=0.01)

    def test_cls_condition_goldens(self, table_stats):
        report = proportions_from_counts(table_stats, Condition(CLS, 0.5))
        rows = {r.image_id: r for r in report.per_image}
        assert rows["Image3"].delta_pp == pytest.approx(1.55, abs=0.01)
        assert rows["Image2"].delta_pp == pytest.approx(1.32, abs=0.01)
        assert rows["Image8"].delta_pp == pytest.approx(0.02, abs=0.01)
        assert report.average_delta_pp == pytest.approx(-1.09, abs=0.01)
        assert sum(1 for r in report.per_image if r.delta_pp > 0) == 3

    def test_rows_satisfy_delta_identity(self, table_stats):
        report = proportions_from_counts(table_stats, Condition(IOU, 0.5))
        for row in report.per_image:
            assert row.delta_pp == row.after_pct - row.before_pct
        mean = sum(r.delta_pp for r in report.per_image) / len(report.per_image)
        assert report.average_delta_pp == mean

    def test_duplicating_detections_keeps_proportions(self):
        gts = [gt(0, 0, 10, 10)]
        dets = [det(0, 0, 10, 6, 0.9), det(0, 0, 10, 2, 0.3)]
        conds = [Condition(IOU, 0.5), Condition(CLS, 0.5)]
        single = compute_image_stats(dets, dets, gts, conditions=conds)
        doubled = compute_image_stats(dets * 2, dets * 2, gts, conditions=conds)
        for cond in conds:
            a = proportions_from_counts([single], cond).per_image[0]
            b = proportions_from_counts([doubled], cond).per_image[0]
            assert a.before_pct == pytest.approx(b.before_pct)
            assert a.after_pct == pytest.approx(b.after_pct)

    def test_zero_total_row_dropped_with_warning(self):
        usable = ImageStats(
            image_id="ok", positive_num=None,
            before={Condition(CLS, 0.5): 5, TOTAL_CONDITION: 10},
            after={Condition(CLS, 0.5): 1, TOTAL_CONDITION: 2},
            before_total=10, after_total=2,
        )
        broken = ImageStats(
            image_id="empty", positive_num=None,
            before={Condition(CLS, 0.5): 0, TOTAL_CONDITION: 0},
            after={Condition(CLS, 0.5): 0, TOTAL_CONDITION: 0},
            before_total=0, after_total=0,
        )
        with pytest.warns(UserWarning, match="empty"):
            report = proportions_from_counts([usable, broken], Condition(CLS, 0.5))
        assert [r.image_id for r in report.per_image] == ["ok"]

    def test_missing_condition_rejected(self, table_stats):
        with pytest.raises(ValueError, match="no counts"):
            proportions_from_counts(table_stats, Condition(CLS, 0.33))


class TestCountTableIo:
    def test_fixture_parses_ten_images(self, table_stats):
        assert len(table_stats) == 10
        assert [s.image_id for s in table_stats] == [f"Image{i}" for i in range(1, 11)]
        image9 = table_stats[8]
        assert image9.positive_num == 310
        assert image9.before_total == 5422
        assert image9.after[Condition(IOU, 0.5)] == 20

    def test_round_trip(self, tmp_path, table_stats):
        out = tmp_path / "counts.csv"
        emit_count_table(table_stats, out)
        again = ingest_count_table(out)
        assert again == table_stats
        original_lines = sorted(
            bundled_count_table().read_text().strip().splitlines()
        )
        written_lines = sorted(out.read_text().strip().splitlines())
        assert written_lines == original_lines

    def test_malformed_threshold_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("image_id,stage,condition,count\nimgA,before,iou>abc,3\n")
        with pytest.raises(ValueError, match="line 2"):
            ingest_count_table(path)

    def test_unknown_stage_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("image_id,stage,condition,count\nimgA,during,iou>0.5,3\n")
        with pytest.raises(ValueError, match="stage"):
            ingest_count_table(path)

    def test_missing_totals_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("image_id,stage,condition,count\nimgA,before,iou>0.5,3\nimgA,after,iou>0.5,1\n")
        with pytest.raises(ValueError, match="totals undefined"):
            ingest_count_table(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,stage,cond,count\n")
        with pytest.raises(ValueError, match="header"):
            ingest_count_table(path)

    @pytest.mark.parametrize("body, message", [
        ("", "empty count table"),
        ("image_id,stage,condition,count\nimgA,before,3\n", "line 2: expected 4 columns, got 3"),
        ("image_id,stage,condition,count\nimgA,before,cls>0.05,3,1\n", "line 2: expected 4 columns, got 5"),
        ("image_id,stage,condition,count\nimgA,before,cls>0.05,-1\n", "line 2: negative count -1"),
        ("image_id,stage,condition,count\nimgA,positive,iou>0.7,3\n",
         "line 2: positive stage expects condition iou>0.5, got iou>0.7"),
        ("image_id,stage,condition,count\nimgA,positive,cls>0.5,3\n",
         "line 2: positive stage expects condition iou>0.5, got cls>0.5"),
    ])
    def test_input_rules(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
            ingest_count_table(path)

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(
            "image_id,stage,condition,count\n\nimgA,before,cls>0.05,3\n , ,,\n,\nimgA,after,cls>0.05,1\n\n"
        )
        (stats,) = ingest_count_table(path)
        assert (stats.image_id, stats.before_total, stats.after_total) == ("imgA", 3, 1)

    def test_total_rows_written_when_the_counts_lack_them(self, tmp_path):
        iou = Condition(IOU, 0.5)
        stats = ImageStats("imgA", None, before={iou: 3}, after={iou: 1}, before_total=10, after_total=4)
        path = tmp_path / "counts.csv"
        emit_count_table([stats], path)
        assert path.read_text().splitlines() == [
            "image_id,stage,condition,count", "imgA,before,cls>0.05,10", "imgA,before,iou>0.5,3",
            "imgA,after,cls>0.05,4", "imgA,after,iou>0.5,1",
        ]
        (again,) = ingest_count_table(path)
        assert (again.before_total, again.after_total, again.positive_num) == (10, 4, None)
        assert again.before == {TOTAL_CONDITION: 10, iou: 3}
        assert again.after == {TOTAL_CONDITION: 4, iou: 1}

    def test_non_utf8_byte_reports_path_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"image_id,stage,condition,count\nimgA,before,cls>0.05,3\nimg\xff,after,cls>0.05,1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: 'utf-8' codec can't decode byte 0xff"):
            ingest_count_table(path)


class TestMisalignmentSummary:
    def test_perfect_detection(self):
        g = gt(0, 0, 10, 10)
        pairs = misalignment_summary([det(0, 0, 10, 10, 1.0)], [g])
        assert pairs.tolist() == [[1.0, 1.0]]

    def test_empty_gts_gives_zero_iou(self):
        pairs = misalignment_summary([det(0, 0, 10, 10, 0.7)], [])
        assert pairs.tolist() == [[0.0, 0.7]]

    def test_matches_per_detection_loop(self):
        rng = np.random.default_rng(2)
        dets = [det(x, y, x + w, y + h, s)
                for x, y, w, h, s in np.column_stack([rng.uniform(0, 20, (100, 4)) + 1, rng.uniform(0, 1, 100)])]
        gts = [gt(2, 2, 14, 14), gt(8, 5, 20, 22)]
        pairs = misalignment_summary(dets, gts)
        from confdet.geometry import iou

        for row, d in zip(pairs, dets):
            best = max(iou(d.box, g.box) for g in gts)
            assert row[0] == pytest.approx(best, abs=1e-12)
            assert row[1] == d.cls_score


class TestEmptySides:
    def test_no_detections_or_no_ground_truth(self):
        assert max_iou_to_gts([], [gt(0, 0, 1, 1)]).shape == (0,)
        assert max_iou_to_gts([det(0, 0, 1, 1, 0.5)], []).tolist() == [0.0]
        assert misalignment_summary([], []).shape == (0, 2)
        assert misalignment_summary([], [gt(0, 0, 1, 1)]).shape == (0, 2)


@st.composite
def _box(draw, min_side=0.0):
    """A small box, or one at x near +-1e308, where the gap to a box at the other end overflows to -inf."""
    x1, y1 = draw(st.one_of(st.floats(-30.0, 30.0), st.sampled_from([-1e308, 1e308]))), draw(st.floats(-30.0, 30.0))
    w, h = draw(st.floats(min_side, 20.0)), draw(st.floats(min_side, 20.0))
    if abs(x1) > 1e300:
        w *= 1e295  # wide enough to move x2 off x1 there, small enough for a finite area
    return Box(x1, y1, x1 + w, y1 + h)


class TestBlockedBestIou:
    """``max_iou_to_gts`` takes its row maxima over blocks of at most ``_BLOCK_PAIRS`` pairs."""

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_equals_one_unblocked_matrix_bit_for_bit(self, data):
        budget = data.draw(st.integers(1, 12), label="budget")
        gt_boxes = data.draw(st.lists(_box(min_side=0.5), max_size=4), label="gts")
        step = max(1, budget // max(1, len(gt_boxes)))
        # row counts just below, at and just above a block edge, zero included
        n = max(0, data.draw(st.integers(0, 3)) * step + data.draw(st.sampled_from([-1, 0, 1])))
        boxes = data.draw(st.lists(_box(), min_size=n, max_size=n), label="dets")
        expected = iou_matrix(boxes, gt_boxes).max(axis=1, initial=0.0)
        rows = []

        def counting(a, b):
            rows.append(len(a))
            return iou_matrix(a, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_BLOCK_PAIRS", budget)
            mp.setattr(analysis, "iou_matrix", counting)
            out = max_iou_to_gts([Detection(b, 0, 0.5) for b in boxes], [GroundTruthBox(b, 0) for b in gt_boxes])
        assert out.dtype == expected.dtype and out.tobytes() == expected.tobytes()
        assert rows == [min(step, n - i) for i in range(0, n, step)]

    def test_dense_image_peaks_at_its_blocks(self):
        # One full 100k x 50 matrix and its temporaries take about 200 MB; the result is 0.8 MB.
        n = 100_000
        rng = np.random.default_rng(5)
        xy = rng.uniform(0, 1000, (n, 2))
        corners = np.hstack([xy, xy + rng.uniform(1, 100, (n, 2))])
        codes, nan = np.zeros(n, dtype=np.intp), np.full(n, np.nan)
        dets = _Detections(corners, np.full(n, 0.5), nan, nan, codes, [0], codes, ["img"], np.arange(n))
        gts = [gt(x, y, x + 50, y + 50) for x, y in rng.uniform(0, 1000, (50, 2)).tolist()]
        tracemalloc.start()
        try:
            out = max_iou_to_gts(dets, gts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (n,)
        assert peak < 16 * 2**20


class TestScatterCsv:
    PAIRS = np.array([[0.0, 1.0], [0.5, 0.25], [1 / 3, 1e-300], [0.1 + 0.2, 0.7]])

    def test_bytes_equal_the_csv_writer_with_crlf_line_endings(self, tmp_path):
        path = tmp_path / "scatter.csv"
        write_scatter_csv(self.PAIRS, path)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["max_iou", "cls_score"])
        writer.writerows([repr(float(i)), repr(float(c))] for i, c in self.PAIRS)
        data = path.read_bytes()
        assert data == expected.getvalue().encode("utf-8")
        assert data.startswith(b"max_iou,cls_score\r\n0.0,1.0\r\n0.5,0.25\r\n0.3333333333333333,1e-300\r\n")
        assert data.count(b"\n") == data.count(b"\r\n") == 5

    def test_no_pairs_writes_the_header_only(self, tmp_path):
        path = tmp_path / "scatter.csv"
        write_scatter_csv(np.zeros((0, 2)), path)
        assert path.read_bytes() == b"max_iou,cls_score\r\n"


class TestRounding:
    def test_half_up_ties(self):
        assert round_half_up(2.675) == 2.68
        assert round_half_up(0.125) == 0.13
        assert round_half_up(-0.125) == -0.13

    def test_plain_cases(self):
        assert round_half_up(-31.495794) == -31.50
        assert round_half_up(1.318212) == 1.32

    def test_report_dict_rounds(self, table_stats):
        report = proportions_from_counts(table_stats, Condition(IOU, 0.5))
        payload = report_to_dict(report)
        assert payload["condition"] == "iou>0.5"
        assert payload["average_delta_pp"] == -19.52
        deltas = {row["image_id"]: row["delta_pp"] for row in payload["per_image"]}
        assert deltas["Image2"] == -31.50
        assert deltas["Image6"] == -39.84


class TestConditionText:
    @given(kind=st.sampled_from([CLS, IOU]), threshold=st.floats(min_value=0.0, max_value=1.0))
    def test_text_parses_back_to_the_condition(self, kind, threshold):
        cond = Condition(kind, threshold)
        assert Condition.parse(str(cond)) == cond

    @pytest.mark.parametrize(
        "threshold, text",
        [(0.5, "iou>0.5"), (0.05, "iou>0.05"), (0.0, "iou>0"), (1.0, "iou>1"), (1e-7, "iou>1e-07"),
         (0.5000001, "iou>0.5000001"), (0.1234567, "iou>0.1234567"), (0.1 + 0.2, "iou>0.30000000000000004")],
    )
    def test_short_form_only_where_it_is_exact(self, threshold, text):
        assert str(Condition(IOU, threshold)) == text

    def test_close_thresholds_keep_their_own_rows(self, tmp_path):
        stats = compute_image_stats(
            [det(0, 0, 10, 10, 0.9)], [det(0, 0, 10, 10, 0.9)], [gt(0, 0, 10, 10.000001)],
            conditions=[TOTAL_CONDITION, Condition(IOU, 0.5), Condition(IOU, 0.5000001), Condition(IOU, 0.1234567)],
        )
        path = tmp_path / "counts.csv"
        emit_count_table([stats], path)
        rows = list(csv.reader(io.StringIO(path.read_text())))[1:]
        assert len({tuple(row[:3]) for row in rows}) == len(rows)
        assert ingest_count_table(path) == [stats]


class TestCountTableRows:
    _TOTALS = "imgA,before,cls>0.05,10\nimgA,after,cls>0.05,4\n"

    @pytest.mark.parametrize("second", ["imgA,before,iou>0.5,9", "imgA,before,iou>0.50,3", " imgA ,before,iou>0.5,3"])
    def test_duplicate_row_rejected_with_its_line(self, tmp_path, second):
        path = tmp_path / "dup.csv"
        path.write_text("image_id,stage,condition,count\n" + self._TOTALS + "imgA,before,iou>0.5,3\n" + second + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 5: duplicate row 'imgA', before, iou>0.5$"):
            ingest_count_table(path)

    def test_duplicate_positive_and_total_rows_rejected(self, tmp_path):
        for extra in ("imgA,positive,iou>0.5,2\nimgA,positive,iou>0.5,2\n", "imgA,after,cls>0.05,5\n"):
            path = tmp_path / "dup.csv"
            path.write_text("image_id,stage,condition,count\n" + self._TOTALS + extra)
            with pytest.raises(ValueError, match="duplicate row"):
                ingest_count_table(path)

    def test_same_condition_at_other_stage_or_image_is_no_duplicate(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text(
            "image_id,stage,condition,count\n" + self._TOTALS + "imgB,before,cls>0.05,1\nimgB,after,cls>0.05,1\n"
            "imgA,before,iou>0.5,3\nimgA,after,iou>0.5,1\nimgB,before,iou>0.5,1\n"
        )
        assert [s.before[Condition(IOU, 0.5)] for s in ingest_count_table(path)] == [3, 1]

    def test_error_line_is_the_file_line_after_a_multiline_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('image_id,stage,condition,count\n"img\nA",before,cls>0.05,3\nimgB,before,iou>abc,3\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 4: bad condition threshold 'abc'"):
            ingest_count_table(path)
