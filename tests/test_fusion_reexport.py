"""``confdet.fusion`` re-exports the rule defined in ``confdet.postprocess``, and ``fusion.gate`` is still traced.

The fusion rule and ``gate`` live beside the detection columns in
``confdet.postprocess``.  The benchmark's span recorder wraps every module
binding of a traced function, so a traced ``confdet nms`` run records the
``fusion.gate`` span although ``inference_pipeline`` calls the
``postprocess`` binding.  A comparison of two runs that both miss the span
would pass, so the calls are counted here.
"""

from confdet import cli, fusion, postprocess
from test_traced_names import _dump, _traced, spans  # noqa: F401  (spans is a fixture)


def test_each_fusion_name_is_the_postprocess_object():
    assert fusion.__all__ == ["PRODUCT", "MULTIPLY", "CLS_ONLY", "MODES", "FusionParams", "fuse", "gate"]
    for name in fusion.__all__:
        assert getattr(fusion, name) is getattr(postprocess, name), name


def test_traced_nms_run_records_one_gate_span_per_image(spans, tmp_path):
    src = tmp_path / "in.jsonl"
    _dump(src)
    argv = ["nms", str(src), str(tmp_path / "out.jsonl"), "--obj-gate", "0", "--topk", "5"]
    calls, _ = _traced(spans, lambda: cli.main(argv))
    assert calls["postprocess.inference_pipeline"] == 4
    assert calls["fusion.gate"] == 4
