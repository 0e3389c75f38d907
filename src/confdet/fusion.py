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
    if params.mode == CLS_ONLY:
        return cls_score
    if obj_score is None:
        raise ValueError(f"fusion mode {params.mode!r} needs obj_score, got None")
    if not 0.0 <= obj_score <= 1.0:
        raise ValueError(f"obj_score must be in [0, 1], got {obj_score}")
    if params.mode == MULTIPLY:
        return obj_score * cls_score
    if params.alpha == 0.0 or obj_score == cls_score:
        return cls_score
    if params.alpha == 1.0:
        return obj_score
    return obj_score**params.alpha * cls_score ** (1.0 - params.alpha)


def gate(dets: Iterable["Detection"], threshold: float) -> list["Detection"]:
    """Keep detections whose object confidence is strictly above ``threshold``.

    Input order is preserved; a detection without an object confidence is
    rejected.
    """
    kept = []
    for det in dets:
        if det.obj_score is None:
            raise ValueError(f"detection has no obj_score to gate on: {det}")
        if det.obj_score > threshold:
            kept.append(det)
    return kept
