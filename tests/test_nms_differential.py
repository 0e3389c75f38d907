"""Differential property tests: the array NMS against the oracle and a scalar walk.

The generators aim at the inputs where an array rewrite of greedy NMS could
disagree with the scalar definition: tied scores (including -0.0 against
0.0), touching edges, zero-area boxes, pairs whose IoU equals the threshold
exactly, thresholds 0 and 1, coordinates up to the Box area bound, and
large class ids.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from confdet.geometry import Box, iou
from confdet.postprocess import Detection, NmsParams, nms
from nms_oracle import nms_oracle

# Grid values give ties, touching edges, zero areas and exact rational IoUs
# such as [0,0,2,1] against [0,0,1,1] (exactly 0.5).
_GRID = [0.0, 0.5, 1.0, 2.0, 3.0, 4.0]
_SIDES = [0.0, 0.5, 1.0, 2.0, 3.0]
# Every generated box has sides of at most 4 * scale, so 2 * area stays finite
# up to a scale of about 2.37e153; the largest scale sits just below that bound.
_SCALES = [1.0, 0.1, 2.0**-1000, 1e100, 2.3e153]
_OFFSETS = [0.0, -1e300, 1e307]
_SCORES = [0.0, -0.0, 0.25, 0.5, 1.0]
_THRESHOLDS = [0.0, 1.0, 0.5, 1.0 / 3.0, 0.25, 0.2]
_CLASS_IDS = [0, 1, 2, 7, 2**40, 2**70]


@st.composite
def _box(draw, scale, offset):
    if draw(st.booleans()):
        x, y = draw(st.sampled_from(_GRID)), draw(st.sampled_from(_GRID))
        w, h = draw(st.sampled_from(_SIDES)), draw(st.sampled_from(_SIDES))
    else:
        x, y = draw(st.floats(0.0, 4.0)), draw(st.floats(0.0, 4.0))
        w, h = draw(st.floats(0.0, 4.0)), draw(st.floats(0.0, 4.0))
    x1, y1 = offset + x * scale, offset + y * scale
    return Box(x1, y1, x1 + w * scale, y1 + h * scale)


@st.composite
def _instance(draw):
    scale, offset = draw(st.sampled_from(_SCALES)), draw(st.sampled_from(_OFFSETS))
    classes = draw(st.lists(st.sampled_from(_CLASS_IDS), min_size=1, max_size=6, unique=True))
    n = draw(st.integers(1, 16))
    dets = [
        Detection(
            box=draw(_box(scale, offset)),
            class_id=draw(st.sampled_from(classes)),
            cls_score=draw(st.sampled_from(_SCORES) | st.floats(0.0, 1.0)),
        )
        for _ in range(n)
    ]
    threshold = draw(st.sampled_from(_THRESHOLDS) | st.floats(0.0, 1.0))
    return dets, NmsParams(iou_threshold=threshold, score_field="cls")


def _scalar_nms(dets, threshold):
    """Greedy walk over geometry.iou: the definition the array walk must reproduce."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].cls_score, i))
    kept, kept_by_class = [], {}
    for i in order:
        cls_kept = kept_by_class.setdefault(dets[i].class_id, [])
        if any(iou(dets[i].box, dets[j].box) > threshold for j in cls_kept):
            continue
        cls_kept.append(i)
        kept.append(i)
    return kept


def _kept_indices(dets, kept):
    index = {id(d): i for i, d in enumerate(dets)}
    return [index[id(d)] for d in kept]


@given(_instance())
@settings(max_examples=200, deadline=None)
def test_array_nms_matches_oracle_and_scalar_walk(instance):
    dets, params = instance
    kept = _kept_indices(dets, nms(dets, params))
    assert kept == _scalar_nms(dets, params.iou_threshold)
    oracle = nms_oracle(
        [d.box.to_list() for d in dets],
        [d.cls_score for d in dets],
        [d.class_id for d in dets],
        params.iou_threshold,
    )
    assert kept == oracle


def test_pair_at_exact_threshold_is_kept():
    big = Detection(box=Box(0.0, 0.0, 2.0, 1.0), class_id=0, cls_score=0.9)
    small = Detection(box=Box(0.0, 0.0, 1.0, 1.0), class_id=0, cls_score=0.8)
    assert iou(big.box, small.box) == 0.5
    assert nms([small, big], NmsParams(iou_threshold=0.5, score_field="cls")) == [big, small]
    assert nms([small, big], NmsParams(iou_threshold=0.4, score_field="cls")) == [big]


def test_signed_zero_scores_tie_by_input_index():
    a = Detection(box=Box(0.0, 0.0, 1.0, 1.0), class_id=0, cls_score=0.0)
    b = Detection(box=Box(0.0, 0.0, 1.0, 1.0), class_id=0, cls_score=-0.0)
    params = NmsParams(iou_threshold=0.5, score_field="cls")
    assert nms([a, b], params)[0] is a
    assert nms([b, a], params)[0] is b


def test_largest_scale_respects_the_area_bound():
    side = 4.0 * max(_SCALES)
    assert math.isfinite(2.0 * (side * side))
