"""Detection filtering, score fusion and greedy per-class NMS driven by a chosen score field.

The inference path is: optional object-confidence gate, score fusion,
score-threshold filter, then NMS ranked by the fused score.  Raw
classification and object-confidence scores are never overwritten; the
fused score lives in its own field.

The fused score is the alpha-weighted geometric mean obj^alpha * cls^(1-alpha),
which stays on the same [0, 1] scale as its factors (a plain product does
not: it is dragged down whenever either factor is small).
:mod:`confdet.fusion` re-exports the fusion rule and the gate.

Detections travel as columns: a loaded dump is one read-only set of
arrays, each stage selects rows of it with an index mask, and a
:class:`Detection` object is built only for a caller that indexes or
iterates.  Plain lists of detections are converted at each stage's edge.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import (
    Box, _areas, _batches, _check_class_id, _check_unit, _corners_from_json, _iou_row, _Rows, boxes_to_array,
    class_id_from_json, read_jsonl,
)

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

PRODUCT = "product"
MULTIPLY = "multiply"
CLS_ONLY = "cls"
MODES = (PRODUCT, MULTIPLY, CLS_ONLY)


@dataclass(frozen=True)
class FusionParams:
    """How to combine the two scores; ``obj_gate`` optionally drops boxes first.

    ``alpha`` weights object confidence in the geometric mean (product mode
    only): 0 keeps the classification score, 1 keeps object confidence.
    """

    alpha: float = 0.4
    mode: str = PRODUCT
    obj_gate: float | None = None

    def __post_init__(self):
        _check_unit("alpha", self.alpha)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.obj_gate is not None:
            _check_unit("obj_gate", self.obj_gate)


def fuse(cls_score: float, obj_score: float | None, params: FusionParams) -> float:
    """Fused score of one detection, in [0, 1].

    product mode: obj^alpha * cls^(1-alpha); multiply: obj * cls; cls: the
    classification score unchanged, and ``obj_score`` is not looked at
    (it may be None).  The boundary cases alpha in {0, 1} and obj == cls
    return their operand exactly (this also realizes the 0^0 == 1
    convention at score 0).
    """
    _check_unit("cls_score", cls_score)
    if params.mode != CLS_ONLY:
        if obj_score is None:
            raise ValueError(f"fusion mode {params.mode!r} needs obj_score, got None")
        _check_unit("obj_score", obj_score)
    return _fuse_lists([cls_score], [obj_score], params)[0]


def _fuse_lists(cls: list[float], obj: list, params: FusionParams) -> list[float]:
    """:func:`fuse` of each (cls, obj) pair of already checked scores.

    Python floats and ``**`` throughout: numpy's power differs from it in
    the last bit on about one fused score in ten, which would change
    output bytes and can reorder near-ties.
    """
    if params.mode == CLS_ONLY:
        return list(cls)
    if params.mode == MULTIPLY:
        return [o * c for c, o in zip(cls, obj)]
    a, b = params.alpha, 1.0 - params.alpha
    if a == 0.0:
        return list(cls)
    if a == 1.0:
        return [c if o == c else o for c, o in zip(cls, obj)]
    return [c if o == c else o**a * c**b for c, o in zip(cls, obj)]


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
        _check_class_id(self.class_id)
        for name in ("cls_score", "obj_score", "fused_score"):
            value = getattr(self, name)
            if value is not None:
                _check_unit(name, value)


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
        _check_unit("iou_threshold", self.iou_threshold)
        _check_unit("score_threshold", self.score_threshold)
        if self.score_field not in SCORE_FIELDS:
            raise ValueError(f"score_field must be one of {SCORE_FIELDS}, got {self.score_field!r}")


def _none_if_nan(value: float) -> float | None:
    return None if value != value else value


def _codes(values: list) -> tuple[list, np.ndarray]:
    """Distinct values in first-appearance order, and each value's index among them."""
    distinct = list(dict.fromkeys(values))
    lookup = {v: i for i, v in enumerate(distinct)}
    return distinct, np.fromiter(map(lookup.__getitem__, values), dtype=np.intp, count=len(values))


def _score_column(values: Sequence, optional: bool) -> np.ndarray:
    """A score column of parsed JSON values, checked as ``Detection`` checks one score.

    Only plain numbers (and None where ``optional``) are taken; anything
    else raises ``ValueError``, as does a score outside [0, 1].  None
    becomes NaN, so a JSON NaN, which is not None, must fail the range check.
    """
    allowed = {int, float, type(None)} if optional else {int, float}
    if not set(map(type, values)) <= allowed:
        raise ValueError("scores other than plain numbers")
    column = np.array(values, dtype=np.float64)
    missing = np.isnan(column)
    if np.count_nonzero(missing) != values.count(None) or not (missing | ((column >= 0.0) & (column <= 1.0))).all():
        raise ValueError("a score outside [0, 1]")
    return column


def _record_fields(record: dict) -> tuple:
    return (
        record["box"], record["class_id"], record["cls_score"],
        record.get("obj_score"), record.get("fused_score"), record["image_id"],
    )


class _Detections(_Rows):
    """Read-only detections held as columns.

    ``corners`` is (n, 4); ``cls``, ``obj`` and ``fused`` are float columns
    holding NaN where a score is missing (no valid score is NaN);
    ``class_code`` and ``image_code`` index the ``class_ids`` and
    ``image_ids`` lists, so ids stay Python ints and strings of any size;
    ``origin`` is each row's position in the set the rows were first taken
    from.  Stages select rows with :meth:`take`, which shares the id lists.
    A :class:`Detection` is built only when a caller indexes or iterates.
    The set compares equal to any sequence of the same detections.
    """

    def __init__(self, corners, cls, obj, fused, class_code, class_ids, image_code, image_ids, origin):
        self.corners, self.cls, self.obj, self.fused = corners, cls, obj, fused
        self.class_code, self.class_ids = class_code, class_ids
        self.image_code, self.image_ids = image_code, image_ids
        self.origin = origin
        for column in (corners, cls, obj, fused, class_code, image_code, origin):
            column.flags.writeable = False

    @classmethod
    def of(cls, dets: Iterable[Detection]) -> "_Detections":
        """Columnar input as it is, or columns of plain :class:`Detection` objects in order."""
        if isinstance(dets, _Detections):
            return dets
        dets = list(dets)
        scores = np.array([(d.cls_score, d.obj_score, d.fused_score) for d in dets], dtype=np.float64)
        scores = scores.reshape(-1, 3).T.copy()  # None becomes NaN
        class_ids, class_code = _codes([d.class_id for d in dets])
        image_ids, image_code = _codes([d.image_id for d in dets])
        corners = boxes_to_array(d.box for d in dets)
        return cls(corners, *scores, class_code, class_ids, image_code, image_ids, np.arange(len(dets)))

    @classmethod
    def from_json(cls, rows: Iterable[tuple]) -> "_Detections":
        """Columns of :func:`_record_fields` rows, with :func:`detection_from_dict`'s checks run in bulk.

        Rows are converted a few thousand at a time, so that no more of
        them are alive at once.  Raises ``ValueError`` (``OverflowError``
        for an int beyond the float range, ``RecursionError`` for an image
        id nested too deep to print) for any row the bulk checks cannot
        vouch for.
        """
        parts, class_ids, image_ids = [], [], []
        for batch in _batches(rows):
            boxes, ids, cls_, obj, fused, images = zip(*batch)
            parts.append((
                _corners_from_json(boxes),
                _score_column(cls_, False), _score_column(obj, True), _score_column(fused, True),
            ))
            class_ids += ids
            image_ids += map(str, images)
        if set(map(type, class_ids)) - {int}:
            class_ids = list(map(class_id_from_json, class_ids))
        if class_ids and min(class_ids) < 0:
            raise ValueError("a negative class id")
        class_ids, class_code = _codes(class_ids)
        image_ids, image_code = _codes(image_ids)
        empty = (np.zeros((0, 4)), np.zeros(0), np.zeros(0), np.zeros(0))
        corners, cls_, obj, fused = (np.concatenate(column) for column in zip(*parts, empty))
        return cls(corners, cls_, obj, fused, class_code, class_ids, image_code, image_ids, np.arange(len(cls_)))

    def _row(self, i: int) -> Detection:
        return next(iter(self.take([i])))

    def __iter__(self):
        columns = (self.corners, self.class_code, self.cls, self.obj, self.fused, self.image_code)
        for box, k, c, o, f, m in zip(*(column.tolist() for column in columns)):
            yield Detection(
                box=Box(*box), class_id=self.class_ids[k], cls_score=_none_if_nan(c),
                obj_score=_none_if_nan(o), fused_score=_none_if_nan(f), image_id=self.image_ids[m],
            )

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"

    def take(self, rows) -> "_Detections":
        """The detections at positions ``rows``, in that order."""
        return _Detections(
            self.corners[rows], self.cls[rows], self.obj[rows], self.fused[rows],
            self.class_code[rows], self.class_ids, self.image_code[rows], self.image_ids, self.origin[rows],
        )

    def with_fused(self, fused: np.ndarray) -> "_Detections":
        return _Detections(
            self.corners, self.cls, self.obj, fused,
            self.class_code, self.class_ids, self.image_code, self.image_ids, self.origin,
        )

    def image_id_set(self) -> set[str]:
        return {self.image_ids[m] for m in np.unique(self.image_code).tolist()}

    def first_missing(self, column: np.ndarray) -> Detection | None:
        """The first detection whose score in ``column`` (one of this set's) is missing."""
        missing = np.isnan(column)
        return self[int(np.argmax(missing))] if missing.any() else None


def _columnar(keeps_objects: bool):
    """Run a stage on columns; a plain iterable of detections is converted at the edge.

    A stage that only selects rows (``keeps_objects``) hands a plain
    caller its own objects back; the others return new equal ones.
    """

    def wrap(stage):
        @functools.wraps(stage)
        def run(dets, *args, **kwargs):
            if isinstance(dets, _Detections):
                return stage(dets, *args, **kwargs)
            dets = list(dets)
            out = stage(_Detections.of(dets), *args, **kwargs)
            return [dets[i] for i in out.origin.tolist()] if keeps_objects else list(out)

        return run

    return wrap


@_columnar(keeps_objects=True)
def gate(dets: Iterable[Detection], threshold: float) -> list[Detection]:
    """Keep detections whose object confidence is strictly above ``threshold``.

    Input order is preserved; a detection without an object confidence is
    rejected.  Columnar input, such as a :func:`group_by_image` view, gives
    a view; a plain iterable gives a list of its own objects.
    """
    det = dets.first_missing(dets.obj)
    if det is not None:
        raise ValueError(f"detection has no obj_score to gate on: {det}")
    return dets.take(np.flatnonzero(dets.obj > threshold))


def _scores(dets: _Detections, field: str) -> np.ndarray:
    scores = getattr(dets, field)  # SCORE_FIELDS are column names
    det = dets.first_missing(scores)
    if det is not None:
        raise ValueError(f"detection has no {field!r} score: {det}")
    return scores


@_columnar(keeps_objects=True)
def score_filter(dets: Iterable[Detection], threshold: float, field: str = "cls") -> list[Detection]:
    """Keep detections with field score strictly above ``threshold``, in order."""
    if field not in SCORE_FIELDS:
        raise ValueError(f"field must be one of {SCORE_FIELDS}, got {field!r}")
    return dets.take(np.flatnonzero(_scores(dets, field) > threshold))


@_columnar(keeps_objects=True)
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
    if not len(dets):
        return dets
    if (dets.image_code != dets.image_code[0]).any():
        raise ValueError(f"nms expects a single image, got ids {sorted(dets.image_id_set())}")
    order = np.argsort(-_scores(dets, params.score_field), kind="stable")  # descending score, ties by input index

    # A stable sort of the class codes in score order lines up each class as
    # one block of positions, still in score order.
    classes = dets.class_code[order]
    by_class = np.argsort(classes, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(classes[by_class])) + 1).tolist(), len(order)]

    boxes = dets.corners[order[by_class]]
    areas = _areas(boxes)
    alive = np.ones(len(order), dtype=bool)
    # Far-apart boxes can overflow a gap to -inf: no overlap, as in iou.
    with np.errstate(over="ignore"):
        for start, end in zip(bounds, bounds[1:]):
            for k in range(start, end - 1):
                if alive[k]:
                    row = _iou_row(boxes[k], areas[k], boxes[k + 1 : end], areas[k + 1 : end])
                    alive[k + 1 : end] &= ~(row > params.iou_threshold)
    return dets.take(order[np.sort(by_class[alive])])


@_columnar(keeps_objects=False)
def apply_fusion(dets: Iterable[Detection], params: FusionParams) -> list[Detection]:
    """Attach a fused score to every detection, leaving raw scores untouched.

    cls mode copies the classification score and needs no object
    confidence; the other modes reject detections without one.
    """
    if params.mode != CLS_ONLY and np.isnan(dets.obj).any():
        raise ValueError(f"fusion mode {params.mode!r} needs obj_score, got None")
    return dets.with_fused(np.array(_fuse_lists(dets.cls.tolist(), dets.obj.tolist(), params), dtype=np.float64))


@_columnar(keeps_objects=False)
def inference_pipeline(
    dets: Sequence[Detection],
    fusion_params: FusionParams = FusionParams(),
    nms_params: NmsParams = NmsParams(),
    top_k: int | None = None,
) -> list[Detection]:
    """Run one image's detections through gate, fusion, filter and NMS.

    ``top_k`` optionally caps the number of boxes entering NMS (by driving
    score); it is off by default, 0 keeps no box, and a negative value
    raises ``ValueError``.  Columnar input, such as a :func:`group_by_image`
    view, gives a read-only sequence; a plain iterable gives a list.
    """
    if top_k is not None and top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    out = dets
    if fusion_params.obj_gate is not None:
        out = gate(out, fusion_params.obj_gate)
    out = apply_fusion(out, fusion_params)
    out = score_filter(out, nms_params.score_threshold, nms_params.score_field)
    if top_k is not None and len(out) > top_k:
        ranked = np.argsort(-_scores(out, nms_params.score_field), kind="stable")  # ties by input index
        out = out.take(np.sort(ranked[:top_k]))
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


def load_detections_jsonl(path) -> Sequence[Detection]:
    """Read a detection dump (one JSON object per line) into a read-only sequence.

    The records' checks run in bulk.  When they cannot vouch for every
    record, the file is read again through :func:`detection_from_dict`,
    which raises the first bad line's own error with its ``path: line N:``
    prefix, or normalizes the odd value it still accepts.
    """
    try:
        return _Detections.from_json(read_jsonl(path, _record_fields))
    except (ValueError, OverflowError, RecursionError):
        return _Detections.of(read_jsonl(path, detection_from_dict))


def dump_detections_jsonl(dets: Iterable[Detection], path, include_fused: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for det in dets:
            fh.write(json.dumps(detection_to_dict(det, include_fused)) + "\n")


def group_by_image(dets: Iterable[Detection]) -> dict[str, Sequence[Detection]]:
    """Group detections by image id, preserving first-appearance order.

    Columnar input, such as a :func:`load_detections_jsonl` result, gives
    read-only views; a plain iterable gives lists of its own objects.
    """
    columnar = isinstance(dets, _Detections)
    if not columnar:
        dets = list(dets)
    cols = _Detections.of(dets)
    if not len(cols):
        return {}
    # A stable argsort of the image codes lines up each image as one block of
    # rows, in input order; an image's block starts with its first row.
    by_image = np.argsort(cols.image_code, kind="stable")
    codes = cols.image_code[by_image]
    blocks = np.split(by_image, np.flatnonzero(codes[1:] != codes[:-1]) + 1)
    blocks.sort(key=lambda rows: rows[0])
    return {
        cols.image_ids[cols.image_code[rows[0]]]: cols.take(rows) if columnar else [dets[i] for i in rows.tolist()]
        for rows in blocks
    }
