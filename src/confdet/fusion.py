"""Fusing classification score and object confidence into one NMS ranking score.

The fused score is the alpha-weighted geometric mean obj^alpha * cls^(1-alpha),
which stays on the same [0, 1] scale as its factors (a plain product does
not: it is dragged down whenever either factor is small).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .postprocess import Detection

__all__ = ["PRODUCT", "MULTIPLY", "CLS_ONLY", "MODES", "FusionParams", "fuse", "gate"]

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
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.obj_gate is not None and not 0.0 <= self.obj_gate <= 1.0:
            raise ValueError(f"obj_gate must be in [0, 1], got {self.obj_gate}")


def fuse(cls_score: float, obj_score: float | None, params: FusionParams) -> float:
    """Fused score of one detection, in [0, 1].

    product mode: obj^alpha * cls^(1-alpha); multiply: obj * cls; cls: the
    classification score unchanged, and ``obj_score`` is not looked at
    (it may be None).  The boundary cases alpha in {0, 1} and obj == cls
    return their operand exactly (this also realizes the 0^0 == 1
    convention at score 0).
    """
    if not 0.0 <= cls_score <= 1.0:
        raise ValueError(f"cls_score must be in [0, 1], got {cls_score}")
    if params.mode != CLS_ONLY:
        if obj_score is None:
            raise ValueError(f"fusion mode {params.mode!r} needs obj_score, got None")
        if not 0.0 <= obj_score <= 1.0:
            raise ValueError(f"obj_score must be in [0, 1], got {obj_score}")
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


def gate(dets: Iterable["Detection"], threshold: float) -> list["Detection"]:
    """Keep detections whose object confidence is strictly above ``threshold``.

    Input order is preserved; a detection without an object confidence is
    rejected.  Columnar input, such as a :func:`~confdet.postprocess.group_by_image`
    view, gives a view; a plain iterable gives a list of its own objects.
    """
    from .postprocess import _gate  # postprocess imports this module as it loads

    return _gate(dets, threshold)
