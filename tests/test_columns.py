"""The columnar detection path against the per-object definitions.

``load_detections_jsonl`` checks its records in bulk and ``confdet nms``
runs gate, fusion, score floor, top-k and NMS as index masks over columns.
These tests hold both to the per-record parse (``detection_from_dict``,
one line at a time) and to the public composition of the stages on plain
lists: the same detections, the same error message byte for byte, and
the same output bytes.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from confdet import analysis, assignment, geometry
from confdet.cli import main
from confdet.fusion import FusionParams
from confdet.postprocess import (
    Detection,
    NmsParams,
    _codes,
    apply_fusion,
    detection_from_dict,
    dump_detections_jsonl,
    group_by_image,
    inference_pipeline,
    load_detections_jsonl,
    nms,
    score_filter,
)
from nms_oracle import nms_oracle

_FILES = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _valid_record(draw):
    x1, y1 = draw(st.sampled_from([0.0, -0.0, 1.5, 3, 2**70, -(2**60)])), draw(st.sampled_from([0.0, 2, 7.25]))
    w, h = draw(st.sampled_from([0.0, 1, 2.5, 1e10])), draw(st.sampled_from([0.0, 4, 0.125]))
    record = {
        "image_id": draw(st.sampled_from(["a", "b", "img 7"])),
        "box": [x1, y1, x1 + w, y1 + h],
        "class_id": draw(st.sampled_from([0, 3, 2**70])),
        "cls_score": draw(st.sampled_from([0.0, -0.0, 0.05, 0.5, 1.0, 1, 0])),
    }
    for key in ("obj_score", "fused_score"):
        choice = draw(st.integers(0, 2))
        if choice == 1:
            record[key] = None
        elif choice == 2:
            record[key] = draw(st.sampled_from([0.0, 0.3, 1.0, 1]))
    return record


# Each maps a valid record to one that detection_from_dict rejects or, for
# the odd values it still accepts (numeric strings, bools as scores,
# integral float class ids, any image id), normalizes.
_MUTATIONS = [
    lambda r: r["box"].__setitem__(0, True),
    lambda r: r["box"].__setitem__(2, False),
    lambda r: r.__setitem__("box", [5.0, 0.0, 1.0, 1.0]),
    lambda r: r.__setitem__("box", [0.0, 5.0, 1.0, 1.0]),
    lambda r: r.__setitem__("box", [0.0, 0.0, 1e200, 1e200]),
    lambda r: r.__setitem__("box", [-1.5e308, 0.0, 1.5e308, 1.0]),
    lambda r: r.__setitem__("box", [0, 0, 10**400, 1]),
    lambda r: r.__setitem__("box", [0.0, 0.0, 1.0]),
    lambda r: r.__setitem__("box", [0.0, 0.0, 1.0, 1.0, 1.0]),
    lambda r: r.__setitem__("box", ["0", "0", "1", "1"]),
    lambda r: r.__setitem__("box", "1234"),
    lambda r: r.__setitem__("box", 5),
    lambda r: r.__setitem__("box", {"x1": 0}),
    lambda r: r.__setitem__("box", [0.0, [1.0], 2.0, 3.0]),
    lambda r: r.__setitem__("box", None),
    lambda r: r.__setitem__("cls_score", 1.5),
    lambda r: r.__setitem__("cls_score", -0.25),
    lambda r: r.__setitem__("cls_score", True),
    lambda r: r.__setitem__("cls_score", "0.5"),
    lambda r: r.__setitem__("cls_score", None),
    lambda r: r.__setitem__("cls_score", [0.5]),
    lambda r: r.__setitem__("obj_score", 2),
    lambda r: r.__setitem__("obj_score", False),
    lambda r: r.__setitem__("obj_score", "x"),
    lambda r: r.__setitem__("fused_score", -1.0),
    lambda r: r.__setitem__("fused_score", 10**400),
    lambda r: r.__setitem__("class_id", True),
    lambda r: r.__setitem__("class_id", False),
    lambda r: r.__setitem__("class_id", 1.7),
    lambda r: r.__setitem__("class_id", 2.0),
    lambda r: r.__setitem__("class_id", -1),
    lambda r: r.__setitem__("class_id", -1.0),
    lambda r: r.__setitem__("class_id", "1"),
    lambda r: r.__setitem__("class_id", None),
    lambda r: r.__setitem__("image_id", 5),
    lambda r: r.__setitem__("image_id", None),
    lambda r: r.__setitem__("image_id", [1, "a"]),
    lambda r: r.pop("box"),
    lambda r: r.pop("class_id"),
    lambda r: r.pop("cls_score"),
    lambda r: r.pop("image_id"),
]

# Lines that are not one record: blank ones, which are skipped, and ones
# the reader itself rejects.
_RAW_LINES = [b"", b"   ", b"\t", b"[1, 2, 3]", b"null", b"7", b'"box"', b"{", b"not json", b'{"a": 1} {"b": 2}',
              b"\xef\xbb\xbf{}", b'{"box": [0, 0, 1, 1], "class_id": 0, "cls_score": NaN, "image_id": "a"}',
              b'{"box": [0, 0, Infinity, 1], "class_id": 0, "cls_score": 0.5, "image_id": "a"}', b"\xff{}"]


@st.composite
def _dump(draw):
    """A detection dump as bytes, mostly valid records, with universal-newline endings."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["valid"] * 4 + ["mutated", "raw"]))
        if kind == "raw":
            lines.append(draw(st.sampled_from(_RAW_LINES)))
            continue
        record = _valid_record(draw)
        if kind == "mutated":
            draw(st.sampled_from(_MUTATIONS))(record)
        lines.append(json.dumps(record).encode())
    endings = [draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for _ in lines]
    return b"".join(line + end for line, end in zip(lines, endings))


def _per_record(path, data: bytes):
    """The per-record reading of a dump: each line's own detection, or its line's error message."""
    dets = []
    for lineno, raw in enumerate(data.splitlines(), 1):
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"each record must be a JSON object, got {type(record).__name__}")
            dets.append(detection_from_dict(record))
        except (ValueError, OverflowError) as exc:
            return f"{path}: line {lineno}: {exc}"
    return dets


def _bits(det: Detection) -> tuple:
    """A detection with every float as its bit pattern (0.0 and -0.0 differ)."""
    floats = [*det.box.to_list(), det.cls_score, det.obj_score, det.fused_score]
    return (tuple(None if v is None else float(v).hex() for v in floats), det.class_id, det.image_id)


@_FILES
@given(_dump())
def test_loader_matches_per_record_parse(tmp_path, data):
    path = tmp_path / "dets.jsonl"
    path.write_bytes(data)
    expected = _per_record(path, data)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as excinfo:
            load_detections_jsonl(path)
        assert str(excinfo.value) == expected
    else:
        loaded = load_detections_jsonl(path)
        assert loaded == expected
        assert [_bits(d) for d in loaded] == [_bits(d) for d in expected]
        assert [type(d.class_id) for d in loaded] == [int] * len(expected)


@pytest.mark.parametrize("mutation", range(len(_MUTATIONS)))
def test_loader_matches_per_record_parse_on_every_mutation(tmp_path, mutation):
    lines = []
    for i in range(3):
        record = {"image_id": "a", "box": [0.0, 1.0, 2.0 + i, 3.0], "class_id": 1, "cls_score": 0.5, "obj_score": 0.25}
        if i == 1:
            _MUTATIONS[mutation](record)
        lines.append(json.dumps(record).encode())
    data = b"\n".join(lines) + b"\n"
    path = tmp_path / "dets.jsonl"
    path.write_bytes(data)
    expected = _per_record(path, data)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as excinfo:
            load_detections_jsonl(path)
        assert str(excinfo.value) == expected
    else:
        assert [_bits(d) for d in load_detections_jsonl(path)] == [_bits(d) for d in expected]


@pytest.mark.parametrize("raw", _RAW_LINES)
def test_loader_matches_per_record_parse_on_every_raw_line(tmp_path, raw):
    valid = b'{"image_id": "a", "box": [0, 0, 1, 1], "class_id": 0, "cls_score": 0.5}'
    data = b"\n".join([valid, raw, valid]) + b"\n"
    path = tmp_path / "dets.jsonl"
    path.write_bytes(data)
    expected = _per_record(path, data)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as excinfo:
            load_detections_jsonl(path)
        assert str(excinfo.value) == expected
    else:
        assert load_detections_jsonl(path) == expected


def _batch_edge_records(n):
    """``n`` records whose image ids interleave, recur across the loader's 4,096-record batch edge and are
    partly numbers, which the loader reads through ``str()``; a new id first appears right at the edge.
    """
    ids = ["b", "a", 7, "7", 2.5, "a b"]
    return [
        {"image_id": "new" if i == 4096 else ids[i % len(ids)], "box": [0, 0, 1 + i % 3, 1], "class_id": i % 2,
         "cls_score": 0.5}
        for i in range(n)
    ]


@pytest.mark.parametrize("n", [5, 4095, 4096, 4097, 8193])
def test_loader_codes_image_ids_across_batches_as_one_list(tmp_path, n):
    records = _batch_edge_records(n)
    path = tmp_path / "dets.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    loaded = load_detections_jsonl(path)
    image_ids, image_code = _codes([str(r["image_id"]) for r in records])
    assert loaded.image_ids == image_ids
    assert loaded.image_code.tolist() == image_code.tolist()
    assert [d.image_id for d in loaded] == [str(r["image_id"]) for r in records]


@pytest.mark.parametrize("mutation", [0, 15, 30, 40])  # a bool corner, a score above 1, a negative class, no image id
def test_bad_record_past_the_batch_edge_fails_as_per_record_parse(tmp_path, mutation):
    records = _batch_edge_records(4100)
    _MUTATIONS[mutation](records[4097])  # line 4098, in the second batch
    data = "".join(json.dumps(r) + "\n" for r in records).encode()
    path = tmp_path / "dets.jsonl"
    path.write_bytes(data)
    expected = _per_record(path, data)
    assert f"{path}: line 4098: " in expected
    with pytest.raises(ValueError) as excinfo:
        load_detections_jsonl(path)
    assert str(excinfo.value) == expected


def test_boxes_of_three_and_five_values_do_not_pair_up(tmp_path):
    path = tmp_path / "dets.jsonl"
    path.write_text(
        '{"image_id": "a", "box": [0, 0, 1], "class_id": 0, "cls_score": 0.5}\n'
        '{"image_id": "a", "box": [0, 0, 1, 1, 1], "class_id": 0, "cls_score": 0.5}\n'
    )
    with pytest.raises(ValueError, match=r"dets\.jsonl: line 1: expected \[x1, y1, x2, y2\], got \[0, 0, 1\]"):
        load_detections_jsonl(path)


def test_universal_newlines_split_lines_as_text_mode_does(tmp_path):
    record = '{"image_id": "a", "box": [0, 0, 1, 1], "class_id": 0, "cls_score": 0.5}'
    path = tmp_path / "dets.jsonl"
    path.write_bytes(f"{record}\r{record}\r\n\r\nnot json\n".encode())
    with open(path, encoding="utf-8") as fh:
        assert [line.strip() for line in fh][3] == "not json"
    with pytest.raises(ValueError, match=r"dets\.jsonl: line 4: Expecting value"):
        load_detections_jsonl(path)


@pytest.mark.parametrize("lineno", [1, 3])
def test_non_utf8_detection_line_names_path_and_line(tmp_path, capsys, lineno):
    record = b'{"image_id": "a", "box": [0, 0, 1, 1], "class_id": 0, "cls_score": 0.5}'
    lines = [record] * 4
    lines[lineno - 1] = b'{"image_id": "\xff", "box": [0, 0, 1, 1], "class_id": 0, "cls_score": 0.5}'
    path = tmp_path / "dets.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    prefix = f"{path}: line {lineno}: 'utf-8' codec can't decode byte 0xff in position 14"
    with pytest.raises(ValueError) as excinfo:
        load_detections_jsonl(path)
    assert str(excinfo.value).startswith(prefix)
    assert main(["nms", str(path), str(tmp_path / "out.jsonl")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {prefix}")


@pytest.mark.parametrize("lineno", [1, 3])
def test_non_utf8_ground_truth_line_names_path_and_line(tmp_path, lineno):
    record = b'{"image_id": "a", "box": [0, 0, 1, 1], "class_id": 0}'
    lines = [record] * 4
    lines[lineno - 1] = b'{"image_id": "a\xfe", "box": [0, 0, 1, 1], "class_id": 0}'
    path = tmp_path / "gt.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ValueError) as excinfo:
        assignment.load_ground_truth_jsonl(path)
    assert str(excinfo.value).startswith(f"{path}: line {lineno}: 'utf-8' codec can't decode byte 0xfe in position 15")


# ---------------------------------------------------------------- the columnar set


def _dets():
    return [
        Detection(geometry.Box(0.0, 0.0, 2.0, 2.0), 2**70, 0.9, 0.8, None, "b"),
        Detection(geometry.Box(1.0, 1.0, 3.0, 3.0), 1, 0.5, None, 0.25, "a"),
        Detection(geometry.Box(-0.0, 0.0, 0.0, 0.0), 2**70, 0.0, 0.0, 0.0, "b"),
    ]


def test_loaded_set_is_a_read_only_sequence_of_detections(tmp_path):
    path = tmp_path / "dets.jsonl"
    dump_detections_jsonl(_dets(), path)
    loaded = load_detections_jsonl(path)
    assert len(loaded) == 3
    assert loaded == _dets() and _dets() == loaded and loaded == tuple(_dets())
    assert loaded != _dets()[:2] and loaded != "abc"
    assert loaded[-1] == _dets()[2] and loaded[1:] == _dets()[1:] and isinstance(loaded[1:], list)
    assert list(reversed(loaded)) == _dets()[::-1]
    assert loaded.index(_dets()[1]) == 1 and _dets()[0] in loaded
    with pytest.raises(IndexError):
        loaded[3]
    with pytest.raises(ValueError):
        loaded.cls[0] = 0.5
    assert "Detection(" in repr(loaded)


def test_group_by_image_views_and_lists(tmp_path):
    path = tmp_path / "dets.jsonl"
    dets = _dets()
    dump_detections_jsonl(dets, path)
    views = group_by_image(load_detections_jsonl(path))
    lists = group_by_image(dets)
    assert list(views) == list(lists) == ["b", "a"]
    assert views == lists
    assert all(a is b for a, b in zip(lists["b"], [dets[0], dets[2]]))
    assert group_by_image(load_detections_jsonl(path)[:0]) == {}
    # rows whose image codes run against first appearance still group in first-appearance order
    reordered = load_detections_jsonl(path).take([1, 2, 0])
    assert list(group_by_image(reordered)) == ["a", "b"]
    assert group_by_image(reordered)["b"] == [dets[2], dets[0]]


def test_stages_give_plain_callers_their_own_objects():
    dets = _dets()
    params = NmsParams(iou_threshold=0.5, score_field="cls")
    kept = score_filter(dets, 0.1, "cls")
    assert all(a is b for a, b in zip(kept, [dets[0], dets[1]]))
    only_b = [dets[0], dets[2]]
    assert nms(only_b, params)[0] is dets[0]
    assert isinstance(apply_fusion(dets, FusionParams(mode="cls")), list)


def test_views_stay_views_through_every_stage(tmp_path):
    path = tmp_path / "dets.jsonl"
    dump_detections_jsonl(_dets(), path, include_fused=False)
    view = group_by_image(load_detections_jsonl(path))["b"]
    out = inference_pipeline(view, FusionParams(alpha=0.5, obj_gate=0.0), NmsParams(), top_k=1)
    assert type(out) is type(view)
    assert out == inference_pipeline(list(view), FusionParams(alpha=0.5, obj_gate=0.0), NmsParams(), top_k=1)


# ---------------------------------------------------------------- confdet nms against the composition

_SCORES = [0.0, 0.05, 0.25, 0.5, 0.5, 0.9, 1.0]


@st.composite
def _detections(draw):
    classes = draw(st.lists(st.sampled_from([0, 1, 7, 2**40, 2**70, 2**70 + 1]), min_size=1, max_size=4, unique=True))
    images = draw(st.lists(st.sampled_from(["a", "b", "c", "7"]), min_size=1, max_size=3, unique=True))
    dets = []
    for _ in range(draw(st.integers(0, 30))):
        x, y = draw(st.sampled_from([0.0, 1.0, 2.0, 2.5])), draw(st.sampled_from([0.0, 1.0, 3.0]))
        w, h = draw(st.sampled_from([0.0, 1.0, 2.0, 4.0])), draw(st.sampled_from([1.0, 2.0]))
        cls_score = draw(st.sampled_from(_SCORES) | st.floats(0.0, 1.0))
        obj_score = draw(st.sampled_from([cls_score, *_SCORES]) | st.floats(0.0, 1.0))
        dets.append(Detection(
            geometry.Box(x, y, x + w, y + h), draw(st.sampled_from(classes)), cls_score, obj_score,
            draw(st.none() | st.sampled_from(_SCORES)), draw(st.sampled_from(images)),
        ))
    return dets


@st.composite
def _nms_flags(draw):
    flags = ["--mode", draw(st.sampled_from(["product", "product", "multiply", "cls"]))]
    flags += ["--alpha", draw(st.sampled_from(["0", "1", "0.4", "0.5"]))]
    flags += ["--iou-thresh", draw(st.sampled_from(["0", "0.5", "1"]))]
    flags += ["--score-thresh", draw(st.sampled_from(["0", "0.05", "0.5"]))]
    if draw(st.booleans()):
        flags += ["--obj-gate", draw(st.sampled_from(["0", "0.25", "0.5"]))]
    if draw(st.booleans()):
        flags += ["--topk", str(draw(st.integers(1, 6)))]
    return flags


def _params(flags):
    settings_ = dict(zip(flags[::2], flags[1::2]))
    fusion_params = FusionParams(
        alpha=float(settings_["--alpha"]), mode=settings_["--mode"],
        obj_gate=float(settings_["--obj-gate"]) if "--obj-gate" in settings_ else None,
    )
    nms_params = NmsParams(float(settings_["--iou-thresh"]), float(settings_["--score-thresh"]))
    top_k = int(settings_["--topk"]) if "--topk" in settings_ else None
    return fusion_params, nms_params, top_k


def _compose(src, flags):
    """confdet nms spelled out with the public per-object calls, on plain lists."""
    fusion_params, nms_params, top_k = _params(flags)
    with open(src, encoding="utf-8") as fh:
        dets = [detection_from_dict(json.loads(line)) for line in fh if line.strip()]
    survivors = []
    for image_dets in group_by_image(dets).values():
        survivors.extend(inference_pipeline(list(image_dets), fusion_params, nms_params, top_k))
    return survivors


def _plain_fused(cls_score, obj_score, fusion_params):
    if fusion_params.mode == "cls":
        return cls_score
    if fusion_params.mode == "multiply":
        return obj_score * cls_score
    alpha = fusion_params.alpha
    if alpha == 0.0 or obj_score == cls_score:
        return cls_score
    if alpha == 1.0:
        return obj_score
    return obj_score**alpha * cls_score ** (1.0 - alpha)


def _reference(dets, flags):
    """The pipeline written out plainly, one Python float at a time, with the oracle's NMS."""
    fusion_params, nms_params, top_k = _params(flags)
    images = list(dict.fromkeys(d.image_id for d in dets))
    out = []
    for image_id in images:
        image_dets = [d for d in dets if d.image_id == image_id]
        if fusion_params.obj_gate is not None:
            image_dets = [d for d in image_dets if d.obj_score > fusion_params.obj_gate]
        image_dets = [replace(d, fused_score=_plain_fused(d.cls_score, d.obj_score, fusion_params)) for d in image_dets]
        image_dets = [d for d in image_dets if d.fused_score > nms_params.score_threshold]
        if top_k is not None and len(image_dets) > top_k:
            ranked = sorted(range(len(image_dets)), key=lambda i: (-image_dets[i].fused_score, i))
            image_dets = [image_dets[i] for i in sorted(ranked[:top_k])]
        kept = nms_oracle(
            [d.box.to_list() for d in image_dets], [d.fused_score for d in image_dets],
            [d.class_id for d in image_dets], nms_params.iou_threshold,
        )
        out.extend(image_dets[i] for i in kept)
    return out


@_FILES
@given(_detections(), _nms_flags())
def test_nms_command_matches_public_composition(tmp_path, dets, flags):
    src, out, ref = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "ref.jsonl"
    dump_detections_jsonl(dets, src)
    assert main(["nms", str(src), str(out), *flags]) == 0
    dump_detections_jsonl(_compose(src, flags), ref)
    assert out.read_bytes() == ref.read_bytes()
    dump_detections_jsonl(_reference(dets, flags), ref)
    assert out.read_bytes() == ref.read_bytes()


@settings(max_examples=300, deadline=None)
@example([(0.0, -0.0), (-0.0, 0.0), (0.5, 0.5), (1.0, 0.0)], 1.0, "product")
@example([(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)], 0.0, "product")
@given(
    st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0) | st.just(-0.0)), max_size=20),
    st.sampled_from([0.0, 1.0, 0.4, 0.5, 0.37, 1e-9]),
    st.sampled_from(["product", "multiply", "cls"]),
)
def test_fusion_is_python_float_arithmetic_bit_for_bit(pairs, alpha, mode):
    dets = [Detection(geometry.Box(0.0, 0.0, 1.0, 1.0), 0, c, o) for c, o in pairs]
    params = FusionParams(alpha=alpha, mode=mode)
    got = [d.fused_score.hex() for d in apply_fusion(dets, params)]
    assert got == [float(_plain_fused(c, o, params)).hex() for c, o in pairs]


def test_nms_command_matches_composition_on_seeded_dump(tmp_path):
    rng = np.random.default_rng(5)
    dets = []
    for i in range(600):
        x, y = rng.uniform(0, 60, 2)
        w, h = rng.uniform(1, 20, 2)
        cls_score = float(np.round(rng.uniform(0, 1), 2))  # rounding gives many tied scores
        dets.append(Detection(
            geometry.Box(float(x), float(y), float(x + w), float(y + h)), int(rng.choice([0, 1, 2**70])),
            cls_score, cls_score if i % 7 == 0 else float(rng.uniform(0, 1)), None, f"img{i % 5}",
        ))
    src = tmp_path / "in.jsonl"
    dump_detections_jsonl(dets, src, include_fused=False)
    for flags in (
        ["--mode", "product", "--alpha", "0.4", "--iou-thresh", "0.5", "--score-thresh", "0.05", "--obj-gate", "0"],
        ["--mode", "product", "--alpha", "0", "--iou-thresh", "0.5", "--score-thresh", "0.05", "--topk", "7"],
        ["--mode", "product", "--alpha", "1", "--iou-thresh", "0.3", "--score-thresh", "0.0", "--obj-gate", "0.2"],
        ["--mode", "cls", "--alpha", "0.4", "--iou-thresh", "0.5", "--score-thresh", "0.05", "--topk", "3"],
    ):
        out, ref = tmp_path / "out.jsonl", tmp_path / "ref.jsonl"
        assert main(["nms", str(src), str(out), *flags]) == 0
        dump_detections_jsonl(_compose(src, flags), ref)
        assert out.read_bytes() == ref.read_bytes()
        dump_detections_jsonl(_reference(dets, flags), ref)
        assert out.read_bytes() == ref.read_bytes()
        assert out.read_text().count("\n") > 0


# ---------------------------------------------------------------- analyze and assign


def test_analyze_computes_best_iou_once_per_image_and_dump(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    dets = [
        Detection(geometry.Box(float(x), 0.0, float(x) + 10.0, 10.0), 0, float(rng.uniform(0.05, 1)), None, None,
                  f"img{i % 3}")
        for i, x in enumerate(rng.uniform(0, 50, 30))
    ]
    before, after, gts = tmp_path / "b.jsonl", tmp_path / "a.jsonl", tmp_path / "g.jsonl"
    dump_detections_jsonl(dets, before, include_fused=False)
    dump_detections_jsonl(dets[::2], after, include_fused=False)
    gts.write_text("".join(
        json.dumps({"image_id": f"img{i}", "box": [5.0 * i, 0.0, 5.0 * i + 10.0, 10.0], "class_id": 0}) + "\n"
        for i in range(3)
    ))
    calls = []
    iou_matrix = geometry.iou_matrix

    def counting(a, b):
        calls.append(len(a))
        return iou_matrix(a, b)

    monkeypatch.setattr(analysis, "iou_matrix", counting)
    monkeypatch.setattr(analysis, "_BLOCK_PAIRS", 4)  # one ground truth per image: blocks of four detections
    argv = ["analyze", "--before", str(before), "--after", str(after), "--gts", str(gts),
            "--conditions", "iou>0.5,cls>0.5", "--out-stats", str(tmp_path / "s.csv"),
            "--out-scatter", str(tmp_path / "sc.csv")]
    assert main(argv) == 0
    assert calls == [4, 4, 2, 4, 1] * 3  # per image, its ten detections before and five after, each once
    rows = (tmp_path / "sc.csv").read_text().splitlines()[1:]
    expected = np.concatenate([
        analysis.misalignment_summary(image_dets, assignment.load_ground_truth_jsonl(gts)[image_id])
        for image_id, image_dets in group_by_image(dets).items()
    ])
    assert rows == [f"{float(i)!r},{float(c)!r}" for i, c in expected]


def test_analysis_functions_take_views_and_lists_alike(tmp_path):
    path = tmp_path / "dets.jsonl"
    dets = _dets()
    dump_detections_jsonl(dets, path)
    view = group_by_image(load_detections_jsonl(path))["b"]
    gts = [assignment.GroundTruthBox(geometry.Box(0.0, 0.0, 1.0, 1.0), 0)]
    plain = group_by_image(dets)["b"]
    assert np.array_equal(analysis.max_iou_to_gts(view, gts), analysis.max_iou_to_gts(plain, gts))
    assert np.array_equal(analysis.misalignment_summary(view, gts), analysis.misalignment_summary(plain, gts))
    conditions = [analysis.Condition.parse("iou>0.2"), analysis.TOTAL_CONDITION]
    assert analysis.compute_image_stats(view, view[:1], gts, conditions=conditions) == analysis.compute_image_stats(
        plain, plain[:1], gts, conditions=conditions)
    with pytest.raises(ValueError, match="single image"):
        analysis.compute_image_stats(load_detections_jsonl(path), [], gts)


def _anchor_lines(boxes):
    return "".join(json.dumps({"box": b, "level": 0, "cell": [0, 0]}) + "\n" for b in boxes)


@pytest.mark.parametrize("bad, message", [
    ([0, 0, True, 1], "line 2: box coordinates must not be bool"),
    ([5, 0, 1, 1], "line 2: box corners out of order"),
    ([0, 0, 1e200, 1e200], "line 2: box area too large"),
    ([0, 0, 1], "line 2: expected [x1, y1, x2, y2]"),
    ([0, 0, 10**400, 1], "line 2: int too large to convert to float"),
])
def test_assign_anchor_errors_name_the_line(tmp_path, capsys, bad, message):
    anchors, gts = tmp_path / "anchors.jsonl", tmp_path / "gt.jsonl"
    anchors.write_text(_anchor_lines([[0, 0, 10, 10], bad]))
    gts.write_text(json.dumps({"image_id": "a", "box": [0, 0, 8, 8], "class_id": 0}) + "\n")
    assert main(["assign", str(tmp_path / "out.jsonl"), "--anchors", str(anchors), "--gts", str(gts)]) == 2
    assert f"{anchors}: {message}" in capsys.readouterr().err


def test_assign_accepts_numeric_string_corners_as_box_from_list_does(tmp_path):
    anchors, gts = tmp_path / "anchors.jsonl", tmp_path / "gt.jsonl"
    gts.write_text(json.dumps({"image_id": "a", "box": [0, 0, 8, 8], "class_id": 0}) + "\n")
    outputs = []
    for boxes in ([[0, 0, 10, 10], [4, 4, 12, 12]], [["0", "0", "10", "10"], [4, 4, 12, 12]]):
        anchors.write_text(_anchor_lines(boxes))
        assert main(["assign", str(tmp_path / "out.jsonl"), "--anchors", str(anchors), "--gts", str(gts)]) == 0
        outputs.append((tmp_path / "out.jsonl").read_text())
    assert outputs[0] == outputs[1]
    first = json.loads(outputs[0].splitlines()[0])
    assert first == {"index": 0, "label": "positive", "gt_index": 0, "matched_iou": 0.64, "forced": False}
    assert math.isclose(json.loads(outputs[0].splitlines()[1])["matched_iou"], 16 / 112)
