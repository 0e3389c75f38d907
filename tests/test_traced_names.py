"""The benchmark's span list still names live code, and ``confdet nms`` still reaches it.

``benchmarks/spans.py`` traces confdet functions by module and name, and
its counters read the arguments and results of those calls.  This file
loads it read-only and checks that every name it lists exists, and that
one ``confdet nms`` run calls the traced stages as often, and with the
same counts, as the public per-object composition of the same stages.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from confdet import cli, postprocess
from confdet.fusion import FusionParams
from confdet.geometry import Box
from confdet.postprocess import Detection, NmsParams, dump_detections_jsonl

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPANS = os.path.join(_ROOT, "benchmarks", "spans.py")
_NMS_SPANS = [
    "postprocess.load_detections_jsonl", "postprocess.group_by_image", "postprocess.inference_pipeline",
    "fusion.gate", "postprocess.apply_fusion", "postprocess.score_filter", "postprocess.nms",
    "postprocess.dump_detections_jsonl",
]


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("confdet_bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_confdet_attribute(spans):
    for module_name, fn_name, _ in spans.TARGETS:
        module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


def _dump(path):
    rng = np.random.default_rng(9)
    dets = []
    for i in range(120):
        x, y = rng.uniform(0, 40, 2)
        w, h = rng.uniform(2, 20, 2)
        dets.append(Detection(
            Box(float(x), float(y), float(x + w), float(y + h)), int(rng.integers(0, 3)),
            float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), None, f"img{i % 4}",
        ))
    dump_detections_jsonl(dets, path, include_fused=False)
    return dets


def _traced(spans, run):
    recorder = spans.Recorder()
    recorder.round = 0
    recorder.install()
    try:
        run()
    finally:
        recorder.uninstall()
    calls = {}
    for name, *_ in recorder.spans:
        calls[name] = calls.get(name, 0) + 1
    counters = {name: dict(bucket) for (name, _), bucket in recorder.counters.items()}
    return calls, counters


def test_nms_command_calls_the_traced_stages_as_the_composition_does(spans, tmp_path):
    src, out, ref = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "ref.jsonl"
    dets = _dump(src)
    calls, counters = _traced(spans, lambda: cli.main(["nms", str(src), str(out), "--obj-gate", "0", "--topk", "5"]))

    def compose():
        fusion_params, nms_params = FusionParams(obj_gate=0.0), NmsParams()
        survivors = []
        for image_dets in postprocess.group_by_image(dets).values():
            survivors.extend(postprocess.inference_pipeline(list(image_dets), fusion_params, nms_params, top_k=5))
        postprocess.dump_detections_jsonl(survivors, ref)

    ref_calls, ref_counters = _traced(spans, compose)
    assert calls["postprocess.load_detections_jsonl"] == 1
    assert counters["postprocess.load_detections_jsonl"] == {"dets": len(dets)}
    for name in _NMS_SPANS[1:]:
        assert calls.get(name) == ref_calls.get(name), name
        assert counters.get(name) == ref_counters.get(name), name
    assert calls["postprocess.inference_pipeline"] == 4
    assert counters["postprocess.nms"]["boxes_in"] == 20  # top-k 5 in each of four images
    assert out.read_bytes() == ref.read_bytes()


def test_nms_command_imports_no_module(tmp_path):
    src = tmp_path / "in.jsonl"
    _dump(src)
    # build_parser's help strings import locale through gettext; that is argparse's, not the nms path's
    code = (
        "import sys; import confdet, confdet.cli; confdet.cli.build_parser(); before = set(sys.modules); "
        "code = confdet.cli.main(sys.argv[1:]); "
        "print(code, sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    argv = ["nms", str(src), str(tmp_path / "out.jsonl"), "--obj-gate", "0", "--topk", "5"]
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "0 []"
    assert json.loads((tmp_path / "out.jsonl").read_text().splitlines()[0])["image_id"] == "img0"
