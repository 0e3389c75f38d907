"""IoU-based anchor labelling and per-anchor training targets.

Anchors are matched to their max-IoU ground-truth box and labelled
positive/negative/ignore by threshold, with an optional rule that promotes
each ground truth's best anchor to positive so no target goes unmatched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import (
    Anchor, Box, BoxDelta, _areas, _check_class_id, _corners, _iou_row, _windows, boxes_to_array, class_id_from_json,
    encode, read_jsonl,
)

__all__ = [
    "NEGATIVE",
    "IGNORE",
    "GroundTruthBox",
    "AssignerConfig",
    "AssignmentResult",
    "assign",
    "confidence_targets",
    "localization_targets",
    "load_ground_truth_jsonl",
]

# Label codes: values >= 0 are matched ground-truth indices.
NEGATIVE = -1
IGNORE = -2


@dataclass(frozen=True)
class GroundTruthBox:
    """An annotated object: a positive-area box and its class id."""

    box: Box
    class_id: int

    def __post_init__(self):
        if self.box.area <= 0:
            raise ValueError(f"ground-truth box must have positive area, got {self.box}")
        _check_class_id(self.class_id)


@dataclass(frozen=True)
class AssignerConfig:
    """IoU thresholds for labelling, with an ignore band [neg_iou, pos_iou).

    ``force_match`` promotes each ground truth's single best anchor to
    positive even below ``pos_iou`` (skipped for ground truths that overlap
    nothing at all).
    """

    pos_iou: float = 0.5
    neg_iou: float = 0.4
    force_match: bool = True

    def __post_init__(self):
        if not 0.0 <= self.neg_iou <= self.pos_iou <= 1.0:
            raise ValueError(
                f"need 0 <= neg_iou <= pos_iou <= 1, got neg={self.neg_iou}, pos={self.pos_iou}"
            )


@dataclass
class AssignmentResult:
    """Per-anchor labels and matched IoUs.

    ``labels[i]`` is the matched ground-truth index for positives, else
    NEGATIVE or IGNORE.  ``matched_iou[i]`` is the IoU with the matched
    ground truth for positives and the best IoU over all ground truths
    otherwise.  ``forced[i]`` marks positives promoted (or re-pointed) by
    the best-anchor rule.
    """

    labels: np.ndarray
    matched_iou: np.ndarray
    forced: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.matched_iou = np.asarray(self.matched_iou, dtype=np.float64)
        if self.forced is None:
            self.forced = np.zeros(self.labels.shape, dtype=bool)
        self.forced = np.asarray(self.forced, dtype=bool)
        if not (self.labels.shape == self.matched_iou.shape == self.forced.shape):
            raise ValueError("labels, matched_iou and forced must have identical shape")

    @property
    def n_total(self) -> int:
        return int(self.labels.size)

    @property
    def positive_mask(self) -> np.ndarray:
        return self.labels >= 0

    @property
    def n_pos(self) -> int:
        return int(np.count_nonzero(self.positive_mask))


def _best_matches(
    anchors: Sequence[Anchor | Box] | np.ndarray, gts: Sequence[GroundTruthBox]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Max-IoU matches between anchors and ground truths, without an n x m matrix.

    Walks the ground truths in index order, one IoU column each (``iou``'s
    arithmetic, via ``_iou_row``) over only the anchors it can overlap, as
    ``_windows`` bounds them; every other anchor's IoU is exactly 0.
    Returns each anchor's best IoU and its ground truth, ties resolving to
    the lowest index, and each ground truth's best anchor (lowest index on
    ties, 0 when it overlaps nothing) and IoU.
    """
    gt = boxes_to_array(g.box for g in gts)
    gt_areas = _areas(gt)
    boxes = np.asfortranarray(_corners(anchors))  # _iou_row reads one coordinate column at a time
    areas = _areas(boxes)
    best_iou = np.zeros(len(boxes))
    best_gt = np.zeros(len(boxes), dtype=np.int64)
    gt_best_anchor = np.zeros(len(gt), dtype=np.int64)
    gt_best_iou = np.zeros(len(gt))
    blocks = []
    for start, shape, windows in _windows(anchors, gt):
        end = start + shape[0] * shape[1]
        views = [a[start:end].reshape(shape + a.shape[1:]) for a in (boxes, areas, best_iou, best_gt)]
        blocks.append((start, shape[1], views, windows))
    with np.errstate(over="ignore"):  # far-apart boxes overflow a gap to -inf: no overlap
        for j in range(len(gt)):
            for start, width, (block, block_areas, block_iou, block_gt), windows in blocks:
                r0, r1, c0, c1 = windows[j]
                if r0 >= r1 or c0 >= c1:
                    continue
                col = _iou_row(gt[j], gt_areas[j], block[r0:r1, c0:c1], block_areas[r0:r1, c0:c1])
                window_iou = block_iou[r0:r1, c0:c1]
                better = col > window_iou  # strict: an equal later column keeps the lower index
                np.copyto(window_iou, col, where=better)
                np.copyto(block_gt[r0:r1, c0:c1], j, where=better)
                k = col.argmax()  # blocks and windows run in anchor order: the first maximum is the lowest index
                if col.flat[k] > gt_best_iou[j]:
                    r, c = divmod(int(k), c1 - c0)
                    gt_best_anchor[j] = start + (r0 + r) * width + c0 + c
                    gt_best_iou[j] = col.flat[k]
    return best_iou, best_gt, gt_best_anchor, gt_best_iou


def assign(
    anchors: Sequence[Anchor | Box],
    gts: Sequence[GroundTruthBox],
    cfg: AssignerConfig = AssignerConfig(),
) -> AssignmentResult:
    """Label every anchor against the ground truth by max IoU.

    Each anchor is matched to its highest-IoU ground truth (ties resolve to
    the lowest index): positive at IoU >= pos_iou, negative below neg_iou,
    ignored in between.  With ``cfg.force_match``, each ground truth's best
    anchor is additionally made positive; when two ground truths share a
    best anchor the lower index keeps it.  Empty ``gts`` labels everything
    negative.
    """
    if len(anchors) == 0:
        raise ValueError("anchors must be non-empty")
    n = len(anchors)

    if len(gts) == 0:
        return AssignmentResult(
            labels=np.full(n, NEGATIVE, dtype=np.int64),
            matched_iou=np.zeros(n),
        )

    best_iou, best_gt, gt_best_anchor, gt_best_iou = _best_matches(anchors, gts)

    labels = np.full(n, NEGATIVE, dtype=np.int64)
    labels[(best_iou >= cfg.neg_iou) & (best_iou < cfg.pos_iou)] = IGNORE
    pos = best_iou >= cfg.pos_iou
    labels[pos] = best_gt[pos]
    matched_iou = best_iou.copy()
    forced = np.zeros(n, dtype=bool)

    if cfg.force_match:
        for j in range(len(gts)):
            if gt_best_iou[j] <= 0.0:
                continue  # this gt overlaps nothing; nothing sensible to force
            i = gt_best_anchor[j]
            if forced[i]:
                continue  # already claimed by a lower-index gt
            if labels[i] == j:
                continue  # would be positive for j anyway
            labels[i] = j
            matched_iou[i] = gt_best_iou[j]
            forced[i] = True

    return AssignmentResult(labels=labels, matched_iou=matched_iou, forced=forced)


def confidence_targets(result: AssignmentResult) -> tuple[np.ndarray, np.ndarray]:
    """Regression targets for the object-confidence head.

    Returns ``(targets, used)``: positives regress their matched IoU, every
    other anchor gets target 0 with ``used`` False, marking it excluded
    from the positives-only confidence loss.
    """
    used = result.positive_mask
    targets = np.where(used, result.matched_iou, 0.0)
    return targets, used


def localization_targets(
    anchors: Sequence[Anchor | Box],
    gts: Sequence[GroundTruthBox],
    result: AssignmentResult,
) -> list[BoxDelta]:
    """Encode each positive anchor against its matched ground truth.

    Output is in anchor order, one delta per positive anchor.
    """
    if len(anchors) != result.n_total:
        raise ValueError(f"result covers {result.n_total} anchors, got {len(anchors)}")
    deltas = []
    for i in np.flatnonzero(result.positive_mask):
        j = int(result.labels[i])
        if j >= len(gts):
            raise ValueError(f"corrupt assignment: anchor {i} matched to missing gt {j}")
        anchor = anchors[i]
        deltas.append(encode(anchor.box if isinstance(anchor, Anchor) else anchor, gts[j].box))
    return deltas


def _image_gt_from_dict(record: dict) -> tuple[str, GroundTruthBox]:
    gt = GroundTruthBox(box=Box.from_list(record["box"]), class_id=class_id_from_json(record["class_id"]))
    return str(record["image_id"]), gt


def load_ground_truth_jsonl(path) -> dict[str, list[GroundTruthBox]]:
    """Read ground truth grouped by image from JSON lines.

    Each line is {"image_id": str, "box": [x1, y1, x2, y2], "class_id": int}.
    Image order follows first appearance.
    """
    per_image: dict[str, list[GroundTruthBox]] = {}
    for image_id, gt in read_jsonl(path, _image_gt_from_dict):
        per_image.setdefault(image_id, []).append(gt)
    return per_image
