"""Reference anchor tiling and assignment, independent of the array paths.

``reference_anchors`` is the per-anchor loop over the tiling formula, one
``Box`` per anchor; ``reference_assign`` labels anchors from the full
``iou_matrix`` with ``argmax``.  Both are deliberately plain, so tests can
compare ``generate_anchors`` and ``assign`` with them bit for bit.
"""

import math

import numpy as np

from confdet.assignment import IGNORE, NEGATIVE
from confdet.geometry import Anchor, Box, iou_matrix


def reference_anchors(config, image_w, image_h):
    """Level by level, then row, column, scale and ratio; a list of Anchor."""
    shapes = []
    for scale in config.scales:
        for ratio in config.ratios:
            shapes.append((scale * math.sqrt(1.0 / ratio), scale * math.sqrt(ratio)))
    anchors = []
    for level, (stride, base) in enumerate(zip(config.strides, config.base_sizes)):
        for row in range(math.ceil(image_h / stride)):
            cy = (row + 0.5) * stride
            for col in range(math.ceil(image_w / stride)):
                cx = (col + 0.5) * stride
                for wf, hf in shapes:
                    half_w = 0.5 * base * wf
                    half_h = 0.5 * base * hf
                    box = Box(cx - half_w, cy - half_h, cx + half_w, cy + half_h)
                    anchors.append(Anchor(box=box, level=level, cell=(row, col)))
    return anchors


def reference_assign(boxes, gt_boxes, pos_iou, neg_iou, force_match):
    """(labels, matched_iou, forced) from the n x m IoU matrix."""
    n = len(boxes)
    labels = np.full(n, NEGATIVE, dtype=np.int64)
    if not gt_boxes:
        return labels, np.zeros(n), np.zeros(n, dtype=bool)
    overlaps = iou_matrix(boxes, gt_boxes)
    best_gt = overlaps.argmax(axis=1)
    best_iou = overlaps[np.arange(n), best_gt]
    labels[(best_iou >= neg_iou) & (best_iou < pos_iou)] = IGNORE
    pos = best_iou >= pos_iou
    labels[pos] = best_gt[pos]
    matched_iou = best_iou.copy()
    forced = np.zeros(n, dtype=bool)
    if force_match:
        for j in range(len(gt_boxes)):
            i = overlaps[:, j].argmax()
            if overlaps[i, j] <= 0.0 or forced[i] or labels[i] == j:
                continue
            labels[i] = j
            matched_iou[i] = overlaps[i, j]
            forced[i] = True
    return labels, matched_iou, forced
