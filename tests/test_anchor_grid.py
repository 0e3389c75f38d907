"""The array anchor tiler against the per-anchor reference loop, bit for bit.

``generate_anchors`` builds every level with one broadcast and hands back a
read-only sequence that creates each ``Anchor`` on access.  These tests
check that what a caller can see (corners, level, cell, their Python types,
the errors, the ``confdet anchors`` file) is exactly what the per-anchor
loop in ``anchor_reference.py`` gives.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchor_reference import reference_anchors
from confdet.cli import main
from confdet.geometry import AnchorGridConfig, generate_anchors


def _exact(anchor):
    """Everything observable about an anchor, floats as their exact hex form."""
    return (
        tuple(type(v) for v in anchor.box.to_list()),
        tuple(v.hex() for v in anchor.box.to_list()),
        type(anchor.level),
        anchor.level,
        tuple(type(c) for c in anchor.cell),
        anchor.cell,
    )


def _exact_all(anchors):
    return [_exact(a) for a in anchors]


_ODD = AnchorGridConfig(strides=(3, 7), base_sizes=(5.5, 13.25), scales=(0.7, 1.0, 1.3), ratios=(0.25, 1.0 / 3.0, 3.0))
_CASES = [
    (AnchorGridConfig.retinanet_defaults(), 1, 1),
    (AnchorGridConfig.retinanet_defaults(), 37, 13),
    (AnchorGridConfig.retinanet_defaults(), 127, 129),
    (AnchorGridConfig.retinanet_defaults(), 333, 250),
    (_ODD, 50, 41),
    (_ODD, 1, 100),
    (_ODD, 22.5, 9.75),
    (AnchorGridConfig(strides=(16,), base_sizes=(8.0,), scales=(0.5,), ratios=(1.0,)), 31, 17),
]


class TestMatchesReference:
    @pytest.mark.parametrize("config,w,h", _CASES)
    def test_bit_for_bit(self, config, w, h):
        grid = generate_anchors(config, w, h)
        ref = reference_anchors(config, w, h)
        assert len(grid) == len(ref)
        assert _exact_all(grid) == _exact_all(ref)
        assert list(grid) == ref

    @given(
        strides=st.lists(st.integers(3, 40), min_size=1, max_size=3, unique=True).map(sorted),
        base=st.floats(0.5, 600.0),
        scales=st.lists(st.floats(0.1, 4.0), min_size=1, max_size=2),
        ratios=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=2),
        w=st.integers(1, 70),
        h=st.integers(1, 70),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_configs(self, strides, base, scales, ratios, w, h):
        config = AnchorGridConfig(
            strides=tuple(strides), base_sizes=tuple(base * 2.0**k for k in range(len(strides))),
            scales=tuple(scales), ratios=tuple(ratios),
        )
        assert _exact_all(generate_anchors(config, w, h)) == _exact_all(reference_anchors(config, w, h))

    @pytest.mark.parametrize("config,w,h", _CASES)
    def test_indexing(self, config, w, h):
        grid = generate_anchors(config, w, h)
        ref = reference_anchors(config, w, h)
        n = len(ref)
        for i in sorted({0, 1, n // 2, n - 1, -1, -n}):
            if -n <= i < n:
                assert _exact(grid[i]) == _exact(ref[i])
        assert _exact(grid[np.int64(n - 1)]) == _exact(ref[-1])
        for s in (slice(None), slice(2, 7), slice(None, None, -3), slice(-5, None), slice(n, n + 3)):
            assert isinstance(grid[s], list)
            assert _exact_all(grid[s]) == _exact_all(ref[s])
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                grid[bad]
        for bad in (1.0, "0", None):
            with pytest.raises(TypeError):
                grid[bad]


class TestSequenceContract:
    def test_read_only(self):
        grid = generate_anchors(AnchorGridConfig.retinanet_defaults(), 40, 30)
        with pytest.raises(TypeError):
            grid[0] = grid[1]
        with pytest.raises(AttributeError):
            grid.append(grid[0])

    def test_iterates_again(self):
        grid = generate_anchors(AnchorGridConfig.retinanet_defaults(), 40, 30)
        assert list(grid) == list(grid)
        assert grid[3] in grid
        assert grid.index(grid[5]) == 5


class TestErrors:
    def test_huge_base_size_reports_box_area(self):
        config = AnchorGridConfig(strides=(8,), base_sizes=(1e308,), scales=(1.0,), ratios=(1.0,))
        with pytest.raises(ValueError, match="box area too large") as got:
            generate_anchors(config, 16, 16)
        with pytest.raises(ValueError) as want:
            reference_anchors(config, 16, 16)
        assert str(got.value) == str(want.value)

    def test_infinite_corner_reports_finite(self):
        config = AnchorGridConfig(strides=(8,), base_sizes=(1e200,), scales=(1.0,), ratios=(1.0, 1e-300))
        with pytest.raises(ValueError, match="finite") as got:
            generate_anchors(config, 16, 16)
        with pytest.raises(ValueError) as want:
            reference_anchors(config, 16, 16)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("w,h", [(True, True), (True, 10), (10, False)])
    def test_bool_image_size_rejected(self, w, h):
        with pytest.raises(ValueError, match="bool"):
            generate_anchors(AnchorGridConfig.retinanet_defaults(), w, h)


def test_anchors_command_writes_the_reference_grid(tmp_path):
    out = tmp_path / "anchors.jsonl"
    assert main(["anchors", str(out), "--image-w", "45", "--image-h", "29", "--strides", "3,7",
                 "--base-sizes", "5.5,13.25", "--scales", "0.7,1.0,1.3", "--ratios", "0.25,0.5,3.0"]) == 0
    config = AnchorGridConfig(strides=(3, 7), base_sizes=(5.5, 13.25), scales=(0.7, 1.0, 1.3), ratios=(0.25, 0.5, 3.0))
    expected = "".join(
        json.dumps({"box": a.box.to_list(), "level": a.level, "cell": list(a.cell)}) + "\n"
        for a in reference_anchors(config, 45, 29)
    )
    assert out.read_text() == expected
