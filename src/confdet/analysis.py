"""Count statistics of detections before/after NMS and proportion reports.

Quantifies the classification/localization mismatch: for each image, count
boxes passing score or IoU conditions at both stages, convert to
percentages of the boxes above the 0.05 score floor at the same stage, and
report the after-minus-before change in percentage points.  Well-localized
boxes (high IoU, low score) lose far more ground through score-ranked NMS
than high-score boxes do.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from .assignment import GroundTruthBox, _best_matches
from .geometry import Anchor, Box, _check_unit, iou_matrix
from .postprocess import Detection, _Detections

__all__ = [
    "CLS",
    "IOU",
    "TOTAL_CONDITION",
    "Condition",
    "ImageStats",
    "ImageProportion",
    "ProportionReport",
    "compute_image_stats",
    "proportions_from_counts",
    "ingest_count_table",
    "emit_count_table",
    "misalignment_summary",
    "write_scatter_csv",
    "max_iou_to_gts",
    "report_to_dict",
    "round_half_up",
    "bundled_count_table",
]

CLS = "cls"
IOU = "iou"


@dataclass(frozen=True)
class Condition:
    """A counting condition: classification score or best IoU strictly above a threshold."""

    kind: str
    threshold: float

    def __post_init__(self):
        if self.kind not in (CLS, IOU):
            raise ValueError(f"condition kind must be {CLS!r} or {IOU!r}, got {self.kind!r}")
        _check_unit("condition threshold", self.threshold)

    def __str__(self) -> str:
        return f"{self.kind}>{self.threshold:g}"

    @classmethod
    def parse(cls, text: str) -> "Condition":
        """Parse strings like ``iou>0.5`` or ``cls>0.05``."""
        kind, sep, raw = text.strip().partition(">")
        if not sep:
            raise ValueError(f"condition must look like 'iou>0.5', got {text!r}")
        try:
            threshold = float(raw)
        except ValueError:
            raise ValueError(f"bad condition threshold {raw!r} in {text!r}") from None
        return cls(kind.strip(), threshold)


# Denominator of every proportion: boxes above the score floor at the same stage.
TOTAL_CONDITION = Condition(CLS, 0.05)


@dataclass
class ImageStats:
    """Counts for one image: per-condition, at both stages, plus stage totals.

    ``positive_num`` is the number of anchors overlapping ground truth above
    0.5 IoU (None when no anchors were supplied).
    """

    image_id: str
    positive_num: int | None
    before: dict[Condition, int] = field(default_factory=dict)
    after: dict[Condition, int] = field(default_factory=dict)
    before_total: int = 0
    after_total: int = 0


@dataclass
class ImageProportion:
    """One report row; percentages are unrounded, rounding happens at serialization."""

    image_id: str
    before_pct: float
    after_pct: float
    delta_pp: float


@dataclass
class ProportionReport:
    """Per-image before/after percentages for one condition and their mean change."""

    condition: Condition
    per_image: list[ImageProportion]
    average_delta_pp: float


def max_iou_to_gts(dets: Sequence[Detection], gts: Sequence[GroundTruthBox]) -> np.ndarray:
    """Best IoU of each detection over all ground-truth boxes, class-agnostic."""
    return iou_matrix(_Detections.of(dets).corners, [g.box for g in gts]).max(axis=1, initial=0.0)


def _count(values: np.ndarray, threshold: float) -> int:
    return int(np.count_nonzero(values > threshold))


def compute_image_stats(
    dets_before: Sequence[Detection],
    dets_after: Sequence[Detection],
    gts: Sequence[GroundTruthBox],
    anchors: Sequence[Anchor | Box] | None = None,
    conditions: Iterable[Condition] = (),
    positive_iou: float = 0.5,
) -> ImageStats:
    """Count detections passing each condition before and after NMS.

    IoU conditions use each detection's best IoU over all ground truths;
    with no ground truth they count zero (a warning is emitted).  Totals are
    always the counts above the 0.05 classification floor.
    """
    dets_before = _Detections.of(dets_before)
    return _image_stats(
        dets_before, dets_after, gts, max_iou_to_gts(dets_before, gts), anchors, conditions, positive_iou
    )


def _image_stats(
    dets_before: _Detections,
    dets_after: Sequence[Detection],
    gts: Sequence[GroundTruthBox],
    iou_before: np.ndarray,
    anchors: Sequence[Anchor | Box] | None = None,
    conditions: Iterable[Condition] = (),
    positive_iou: float = 0.5,
) -> ImageStats:
    """:func:`compute_image_stats` given the before-NMS detections' best IoUs."""
    dets_after = _Detections.of(dets_after)
    image_ids = dets_before.image_id_set() | dets_after.image_id_set()
    if len(image_ids) > 1:
        raise ValueError(f"stats expect a single image, got ids {sorted(image_ids)}")
    image_id = next(iter(image_ids)) if image_ids else ""

    conditions = list(conditions)
    cls_before = dets_before.cls
    cls_after = dets_after.cls
    if any(c.kind == IOU for c in conditions) and not gts:
        warnings.warn(f"image {image_id!r}: IoU conditions counted as zero (no ground truth)")
    iou_after = max_iou_to_gts(dets_after, gts)

    before: dict[Condition, int] = {}
    after: dict[Condition, int] = {}
    for cond in conditions:
        if cond.kind == CLS:
            before[cond] = _count(cls_before, cond.threshold)
            after[cond] = _count(cls_after, cond.threshold)
        else:
            before[cond] = _count(iou_before, cond.threshold)
            after[cond] = _count(iou_after, cond.threshold)

    positive_num = None
    if anchors is not None:
        if gts and len(anchors):
            best = _best_matches(anchors, gts)[0]
            positive_num = _count(best, positive_iou)
        else:
            positive_num = 0

    return ImageStats(
        image_id=image_id,
        positive_num=positive_num,
        before=before,
        after=after,
        before_total=_count(cls_before, TOTAL_CONDITION.threshold),
        after_total=_count(cls_after, TOTAL_CONDITION.threshold),
    )


def proportions_from_counts(stats: Sequence[ImageStats], condition: Condition) -> ProportionReport:
    """Percentage of boxes passing ``condition`` at each stage, per image.

    before_pct = 100 * before[condition] / before_total and likewise after;
    delta_pp is their difference and the average is the arithmetic mean of
    the per-image deltas.  Images with a zero total are dropped with a
    warning.
    """
    rows: list[ImageProportion] = []
    for s in stats:
        if condition not in s.before or condition not in s.after:
            raise ValueError(f"image {s.image_id!r} has no counts for condition {condition}")
        if s.before_total <= 0 or s.after_total <= 0:
            warnings.warn(
                f"image {s.image_id!r} dropped from report: zero box total "
                f"(before={s.before_total}, after={s.after_total})"
            )
            continue
        before_pct = 100.0 * s.before[condition] / s.before_total
        after_pct = 100.0 * s.after[condition] / s.after_total
        rows.append(
            ImageProportion(
                image_id=s.image_id,
                before_pct=before_pct,
                after_pct=after_pct,
                delta_pp=after_pct - before_pct,
            )
        )
    if not rows:
        raise ValueError(f"no image has usable totals for condition {condition}")
    average = sum(r.delta_pp for r in rows) / len(rows)
    return ProportionReport(condition=condition, per_image=rows, average_delta_pp=average)


_STAGES = ("positive", "before", "after")
_COUNT_TABLE_HEADER = ["image_id", "stage", "condition", "count"]
# Positive-stage rows carry the anchor-positivity condition only.
_POSITIVE_CONDITION = Condition(IOU, 0.5)


def ingest_count_table(path) -> list[ImageStats]:
    """Read a count-table CSV into per-image stats.

    Expected header: image_id,stage,condition,count with stage one of
    positive/before/after.  Stage totals come from the cls>0.05 rows, which
    must be present for every image.  Image order follows first appearance.
    """
    per_image: dict[str, ImageStats] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty count table") from None
        if [h.strip() for h in header] != _COUNT_TABLE_HEADER:
            raise ValueError(f"{path}: expected header {','.join(_COUNT_TABLE_HEADER)}, got {header}")
        for lineno, row in enumerate(reader, 2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 4 columns, got {len(row)}")
            image_id, stage, cond_text, count_text = (c.strip() for c in row)
            if stage not in _STAGES:
                raise ValueError(f"{path}: line {lineno}: unknown stage {stage!r}")
            try:
                cond = Condition.parse(cond_text)
                count = int(count_text)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if count < 0:
                raise ValueError(f"{path}: line {lineno}: negative count {count}")
            stats = per_image.setdefault(
                image_id, ImageStats(image_id=image_id, positive_num=None)
            )
            if stage == "positive":
                if cond != _POSITIVE_CONDITION:
                    raise ValueError(
                        f"{path}: line {lineno}: positive stage expects condition "
                        f"{_POSITIVE_CONDITION}, got {cond}"
                    )
                stats.positive_num = count
            elif stage == "before":
                stats.before[cond] = count
            else:
                stats.after[cond] = count

    for stats in per_image.values():
        if TOTAL_CONDITION not in stats.before or TOTAL_CONDITION not in stats.after:
            raise ValueError(
                f"{path}: image {stats.image_id!r} lacks {TOTAL_CONDITION} rows; totals undefined"
            )
        stats.before_total = stats.before[TOTAL_CONDITION]
        stats.after_total = stats.after[TOTAL_CONDITION]
    return list(per_image.values())


def emit_count_table(stats: Sequence[ImageStats], path) -> None:
    """Write stats as a count-table CSV (inverse of :func:`ingest_count_table`)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COUNT_TABLE_HEADER)
        for s in stats:
            if s.positive_num is not None:
                writer.writerow([s.image_id, "positive", str(_POSITIVE_CONDITION), s.positive_num])
            for stage, counts, total in (
                ("before", s.before, s.before_total),
                ("after", s.after, s.after_total),
            ):
                if TOTAL_CONDITION not in counts:
                    writer.writerow([s.image_id, stage, str(TOTAL_CONDITION), total])
                for cond, count in counts.items():
                    writer.writerow([s.image_id, stage, str(cond), count])


def misalignment_summary(dets: Sequence[Detection], gts: Sequence[GroundTruthBox]) -> np.ndarray:
    """(best IoU, classification score) pairs, one row per detection.

    The raw material for score-vs-IoU scatter plots; with no ground truth
    all IoU values are zero.
    """
    dets = _Detections.of(dets)
    return np.column_stack([max_iou_to_gts(dets, gts), dets.cls])


def write_scatter_csv(pairs: Iterable[Sequence[float]], path) -> None:
    """A (max_iou, cls_score) CSV with one row per pair and CRLF line endings, as ``csv.writer`` writes it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("max_iou,cls_score\r\n")
        fh.writelines(f"{float(i)!r},{float(c)!r}\r\n" for i, c in pairs)


def round_half_up(value: float, ndigits: int = 2) -> float:
    """Round with ties going away from zero (2.675 -> 2.68), unlike round()."""
    quantum = Decimal(1).scaleb(-ndigits)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def report_to_dict(report: ProportionReport) -> dict:
    """Serializable report with percentages rounded half-up to 2 decimals."""
    return {
        "condition": str(report.condition),
        "per_image": [
            {
                "image_id": r.image_id,
                "before_pct": round_half_up(r.before_pct),
                "after_pct": round_half_up(r.after_pct),
                "delta_pp": round_half_up(r.delta_pp),
            }
            for r in report.per_image
        ],
        "average_delta_pp": round_half_up(report.average_delta_pp),
    }


def bundled_count_table() -> "resources.abc.Traversable":
    """The count-table fixture shipped with the package.

    Ten COCO images counted at both stages under score thresholds 0.05-0.9
    and IoU thresholds 0.5-0.9, plus per-image positive-anchor counts.
    """
    return resources.files("confdet.data").joinpath("table1.csv")
