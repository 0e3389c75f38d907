"""Every JSON-lines output is held to ``json.dumps``'s bytes.

``geometry.write_jsonl`` writes the outputs of ``dump_detections_jsonl``,
``confdet nms``, ``confdet anchors`` and ``confdet assign``.  Each test
compares a file with ``json.dumps`` of one dict per line.
"""

import json

import numpy as np
import pytest
from anchor_reference import reference_anchors
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from confdet import assignment, postprocess
from confdet.cli import main
from confdet.geometry import AnchorGridConfig, Box, write_jsonl
from confdet.postprocess import (
    Detection,
    _Detections,
    detection_to_dict,
    dump_detections_jsonl,
    inference_pipeline,
    load_detections_jsonl,
)


def det(box=(0.0, 0.0, 1.0, 1.0), class_id=0, cls_score=0.5, obj_score=0.25, fused_score=0.4, image_id="img"):
    return Detection(
        box=Box(*box), class_id=class_id, cls_score=cls_score, obj_score=obj_score, fused_score=fused_score,
        image_id=image_id,
    )


def dumps_lines(records) -> bytes:
    return "".join(json.dumps(record) + "\n" for record in records).encode("utf-8")


EDGE_CASES = {
    "quote": [det(image_id='say "hi"')],
    "backslash": [det(image_id="a\\b\\")],
    "non_ascii": [det(image_id="naïve 画像 ✓ \U0001f600")],
    "control": [det(image_id="tab\tnl\nnul\x00bell\x07del\x7f")],
    "lone_surrogate": [det(image_id="lone \ud800 and \udfff")],
    "empty_id": [det(image_id="")],
    "huge_class_id": [det(class_id=2**70), det(class_id=0), det(class_id=2**70)],
    "tiny_and_signed_zero": [det(box=(-0.0, 5e-324, 5e-324, 1.0), cls_score=5e-324, obj_score=-0.0)],
    "big_coordinate": [det(box=(0.0, 0.0, 1e16, 1e16))],
    "int_coordinates_and_scores": [det(box=(1, 2, 30, 40), class_id=3, cls_score=1, obj_score=0, fused_score=1)],
    "numpy_scalars": [
        det(box=tuple(np.float64(v) for v in (0.5, 1.0, 2.0, 3.25)), cls_score=np.float64(0.75),
            obj_score=np.float64(0.5), fused_score=np.float64(0.125)),
    ],
    "bool_score": [det(cls_score=True, obj_score=False, fused_score=True)],
    "missing_obj": [det(obj_score=None), det(obj_score=0.5)],
    "missing_fused": [det(fused_score=None), det(fused_score=0.5)],
    "missing_both": [det(obj_score=None, fused_score=None)],
    "mixed_images": [det(image_id="b"), det(image_id="a"), det(image_id="b")],
    "empty": [],
}


@pytest.mark.parametrize("include_fused", [True, False])
@pytest.mark.parametrize("case", EDGE_CASES)
class TestDetectionDumpBytes:
    def test_plain_list(self, tmp_path, case, include_fused):
        dets = EDGE_CASES[case]
        out = tmp_path / "out.jsonl"
        dump_detections_jsonl(dets, out, include_fused=include_fused)
        assert out.read_bytes() == dumps_lines(detection_to_dict(d, include_fused) for d in dets)

    def test_columns(self, tmp_path, case, include_fused):
        cols = _Detections.of(EDGE_CASES[case])
        out = tmp_path / "out.jsonl"
        dump_detections_jsonl(cols, out, include_fused=include_fused)
        assert out.read_bytes() == dumps_lines(detection_to_dict(d, include_fused) for d in cols)

    def test_loaded_dump(self, tmp_path, case, include_fused):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        dump_detections_jsonl(EDGE_CASES[case], src)
        loaded = load_detections_jsonl(src)
        dump_detections_jsonl(loaded, out, include_fused=include_fused)
        assert out.read_bytes() == dumps_lines(detection_to_dict(d, include_fused) for d in loaded)


@pytest.mark.parametrize(
    "config, size",
    [
        (AnchorGridConfig.retinanet_defaults(), (64, 48)),
        (AnchorGridConfig(strides=(3, 7), base_sizes=(1e-300, 1e16), scales=(1.0, 1.5), ratios=(0.3, 1.0)), (10, 9)),
    ],
)
def test_anchors_command_bytes(tmp_path, config, size):
    out = tmp_path / "anchors.jsonl"
    flags = [arg for key, values in config.to_dict().items()
             for arg in ("--" + key.replace("_", "-"), ",".join(map(repr, values)))]
    assert main(["anchors", str(out), "--image-w", str(size[0]), "--image-h", str(size[1]), *flags]) == 0
    assert out.read_bytes() == dumps_lines(
        {"box": a.box.to_list(), "level": a.level, "cell": list(a.cell)} for a in reference_anchors(config, *size)
    )


@pytest.mark.parametrize(
    "labels, matched_iou, forced",
    [
        (
            [assignment.NEGATIVE, assignment.IGNORE, 0, 2**62, 7, assignment.NEGATIVE],
            [-0.0, 5e-324, 1.0, 1.0 / 3.0, 1e-16, 0.0],
            [False, False, True, False, True, False],
        ),
        ([], [], []),
    ],
)
def test_assign_command_bytes(tmp_path, monkeypatch, labels, matched_iou, forced):
    result = assignment.AssignmentResult(labels=labels, matched_iou=matched_iou, forced=forced)
    monkeypatch.setattr(assignment, "assign", lambda anchors, gts, cfg: result)
    anchors_path, gts_path, out = tmp_path / "anchors.jsonl", tmp_path / "gt.jsonl", tmp_path / "labels.jsonl"
    anchors_path.write_text(json.dumps({"box": [0, 0, 1, 1]}) + "\n")
    gts_path.write_text(json.dumps({"image_id": "i", "box": [0, 0, 1, 1], "class_id": 0}) + "\n")
    assert main(["assign", str(out), "--anchors", str(anchors_path), "--gts", str(gts_path)]) == 0
    names = {assignment.NEGATIVE: "negative", assignment.IGNORE: "ignore"}
    assert out.read_bytes() == dumps_lines(
        {"index": i, "label": names.get(label, "positive"), "gt_index": label if label >= 0 else None,
         "matched_iou": value, "forced": f}
        for i, (label, value, f) in enumerate(zip(labels, matched_iou, forced))
    )


_VALUES = [
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False),
    st.floats(allow_nan=False).map(np.float64),
    st.none(),
    st.booleans(),
    st.text(st.characters(exclude_categories=())),
    st.lists(st.one_of(st.integers(), st.floats(allow_nan=False)), max_size=4),
]


@st.composite
def tables(draw):
    """Keys and equal-length columns, each of one kind of value or of any mix."""
    keys = draw(st.lists(st.text(st.characters(exclude_categories=()), max_size=4), min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(0, 5))
    kinds = st.sampled_from([*_VALUES, st.one_of(*_VALUES)])
    return keys, [draw(st.lists(draw(kinds), min_size=rows, max_size=rows)) for _ in keys]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables())
def test_write_jsonl_is_json_dumps(tmp_path, table):
    keys, columns = table
    out = tmp_path / "out.jsonl"
    write_jsonl(out, keys, columns)
    assert out.read_bytes() == dumps_lines(dict(zip(keys, row)) for row in zip(*columns))


def test_nan_is_written_as_null(tmp_path):
    out = tmp_path / "out.jsonl"
    nan = float("nan")
    write_jsonl(out, ["a", "b", "c"], [[nan, 0.5], [np.float64(nan), np.float64(0.5)], [None, 1]])
    assert out.read_text() == '{"a": null, "b": null, "c": null}\n{"a": 0.5, "b": 0.5, "c": 1}\n'


@pytest.mark.parametrize("keys, columns", [(["a", "b"], [[1, 2], [3]]), (["a", "b"], [[1]]), (["a"], [[1], [2]])])
def test_columns_must_match_keys_and_each_other(tmp_path, keys, columns):
    with pytest.raises(ValueError):
        write_jsonl(tmp_path / "out.jsonl", keys, columns)


def test_nms_command_builds_no_detection(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    dets = []
    for image_id in ("img-b", "img-a"):
        for _ in range(40):
            x1, y1, w, h = rng.uniform(0, 60, 2).tolist() + rng.uniform(2, 30, 2).tolist()
            dets.append(det(box=(x1, y1, x1 + w, y1 + h), class_id=int(rng.integers(0, 3)),
                            cls_score=float(rng.uniform(0.05, 1.0)), obj_score=float(rng.uniform(0, 1)),
                            fused_score=None, image_id=image_id))
    src, out, ref = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "ref.jsonl"
    dump_detections_jsonl(dets, src, include_fused=False)
    survivors = [d for image_id in ("img-b", "img-a")
                 for d in inference_pipeline([d for d in dets if d.image_id == image_id], top_k=30)]
    dump_detections_jsonl(survivors, ref)

    built = []
    post_init = Detection.__post_init__
    monkeypatch.setattr(postprocess.Detection, "__post_init__", lambda self: built.append(self) or post_init(self))
    assert main(["nms", str(src), str(out), "--topk", "30"]) == 0
    assert built == []
    assert out.read_bytes() == ref.read_bytes()
    assert out.read_bytes()
