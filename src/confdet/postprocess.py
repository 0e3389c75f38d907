"""Detection filtering and greedy per-class NMS driven by a chosen score field.

The inference path is: optional object-confidence gate, score fusion,
score-threshold filter, then NMS ranked by the fused score.  Raw
classification and object-confidence scores are never overwritten; the
fused score lives in its own field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .fusion import FusionParams, fuse, gate
from .geometry import Box, _iou_row, boxes_to_array, class_id_from_json, read_jsonl

__all__ = [
    "Detection",
    "NmsParams",
    "SCORE_FIELDS",
    "score_filter",
    "nms",
    "apply_fusion",
    "inference_pipeline",
    "detection_to_dict",
    "detection_from_dict",
    "load_detections_jsonl",
    "dump_detections_jsonl",
    "group_by_image",
]

SCORE_FIELDS = ("cls", "fused")


@dataclass(frozen=True)
class Detection:
    """One predicted box with its scores.

    ``obj_score`` and ``fused_score`` are optional: raw classifier dumps
    carry neither, confidence-head dumps carry ``obj_score``, and the fusion
    stage fills ``fused_score``.
    """

    box: Box
    class_id: int
    cls_score: float
    obj_score: float | None = None
    fused_score: float | None = None
    image_id: str = ""

    def __post_init__(self):
        if isinstance(self.class_id, bool) or not isinstance(self.class_id, int) or self.class_id < 0:
            raise ValueError(f"class_id must be a non-negative integer, got {self.class_id!r}")
        for name in ("cls_score", "obj_score", "fused_score"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class NmsParams:
    """Suppression thresholds and which score ranks the boxes.

    Both comparisons are strict: a box survives the score filter only with
    score > score_threshold, and is suppressed only with IoU > iou_threshold
    against an already-kept box of its class.
    """

    iou_threshold: float = 0.5
    score_threshold: float = 0.05
    score_field: str = "fused"

    def __post_init__(self):
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold must be in [0, 1], got {self.iou_threshold}")
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ValueError(f"score_threshold must be in [0, 1], got {self.score_threshold}")
        if self.score_field not in SCORE_FIELDS:
            raise ValueError(f"score_field must be one of {SCORE_FIELDS}, got {self.score_field!r}")


def _field_score(det: Detection, field: str) -> float:
    value = det.cls_score if field == "cls" else det.fused_score
    if value is None:
        raise ValueError(f"detection has no {field!r} score: {det}")
    return value


def score_filter(dets: Iterable[Detection], threshold: float, field: str = "cls") -> list[Detection]:
    """Keep detections with field score strictly above ``threshold``, in order."""
    if field not in SCORE_FIELDS:
        raise ValueError(f"field must be one of {SCORE_FIELDS}, got {field!r}")
    return [d for d in dets if _field_score(d, field) > threshold]


def nms(dets: Sequence[Detection], params: NmsParams = NmsParams()) -> list[Detection]:
    """Greedy per-class suppression ranked by ``params.score_field``.

    Per class: walk boxes by descending score (ties by input index) and
    drop any box overlapping an already-kept box of the same class with
    IoU > iou_threshold.  Output is ordered by descending score.  All
    detections must come from a single image.

    The walk runs on arrays: each kept box gets one vectorized IoU row
    against the later boxes of its class, computed with :func:`iou`'s
    arithmetic, so every decision matches the scalar definition exactly.
    """
    dets = list(dets)
    if not dets:
        return []
    image_ids = {d.image_id for d in dets}
    if len(image_ids) > 1:
        raise ValueError(f"nms expects a single image, got ids {sorted(image_ids)}")
    scores = np.array([_field_score(d, params.score_field) for d in dets])
    order = np.argsort(-scores, kind="stable")  # descending score, ties by input index
    ranked = [dets[i] for i in order]

    # Dense class codes in score order; a stable sort of them lines up each
    # class as one block of positions, still in score order.
    codes: dict[int, int] = {}
    classes = np.array([codes.setdefault(d.class_id, len(codes)) for d in ranked])
    by_class = np.argsort(classes, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(classes[by_class])) + 1).tolist(), len(ranked)]

    boxes = boxes_to_array(ranked[i].box for i in by_class)
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    alive = np.ones(len(ranked), dtype=bool)
    # Far-apart boxes can overflow a gap to -inf: no overlap, as in iou.
    with np.errstate(over="ignore"):
        for start, end in zip(bounds, bounds[1:]):
            for k in range(start, end - 1):
                if alive[k]:
                    row = _iou_row(boxes[k], areas[k], boxes[k + 1 : end], areas[k + 1 : end])
                    alive[k + 1 : end] &= ~(row > params.iou_threshold)
    return [ranked[i] for i in np.sort(by_class[alive])]


def apply_fusion(dets: Iterable[Detection], params: FusionParams) -> list[Detection]:
    """Attach a fused score to every detection, leaving raw scores untouched.

    cls mode copies the classification score and needs no object
    confidence; the other modes reject detections without one.
    """
    return [replace(det, fused_score=fuse(det.cls_score, det.obj_score, params)) for det in dets]


def inference_pipeline(
    dets: Sequence[Detection],
    fusion_params: FusionParams = FusionParams(),
    nms_params: NmsParams = NmsParams(),
    top_k: int | None = None,
) -> list[Detection]:
    """Run one image's detections through gate, fusion, filter and NMS.

    ``top_k`` optionally caps the number of boxes entering NMS (by driving
    score); it is off by default.
    """
    out = list(dets)
    if fusion_params.obj_gate is not None:
        out = gate(out, fusion_params.obj_gate)
    out = apply_fusion(out, fusion_params)
    out = score_filter(out, nms_params.score_threshold, nms_params.score_field)
    if top_k is not None and len(out) > top_k:
        ranked = sorted(range(len(out)), key=lambda i: (-_field_score(out[i], nms_params.score_field), i))
        keep = sorted(ranked[:top_k])
        out = [out[i] for i in keep]
    return nms(out, nms_params)


def detection_to_dict(det: Detection, include_fused: bool = True) -> dict:
    record = {
        "image_id": det.image_id,
        "box": det.box.to_list(),
        "class_id": det.class_id,
        "cls_score": det.cls_score,
        "obj_score": det.obj_score,
    }
    if include_fused:
        record["fused_score"] = det.fused_score
    return record


def detection_from_dict(record: dict) -> Detection:
    try:
        obj = record.get("obj_score")
        fused = record.get("fused_score")
        return Detection(
            box=Box.from_list(record["box"]),
            class_id=class_id_from_json(record["class_id"]),
            cls_score=float(record["cls_score"]),
            obj_score=None if obj is None else float(obj),
            fused_score=None if fused is None else float(fused),
            image_id=str(record["image_id"]),
        )
    except KeyError as exc:
        raise ValueError(f"detection record missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(str(exc)) from None


def load_detections_jsonl(path) -> list[Detection]:
    """Read a detection dump (one JSON object per line)."""
    return list(read_jsonl(path, detection_from_dict))


def dump_detections_jsonl(dets: Iterable[Detection], path, include_fused: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for det in dets:
            fh.write(json.dumps(detection_to_dict(det, include_fused)) + "\n")


def group_by_image(dets: Iterable[Detection]) -> dict[str, list[Detection]]:
    """Group detections by image id, preserving first-appearance order."""
    groups: dict[str, list[Detection]] = {}
    for det in dets:
        groups.setdefault(det.image_id, []).append(det)
    return groups
