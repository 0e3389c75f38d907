"""Fusing classification score and object confidence into one NMS ranking score.

The rule and the object-confidence gate live in :mod:`confdet.postprocess`,
beside the detection columns they run on; this module re-exports them.
"""

from .postprocess import CLS_ONLY, MODES, MULTIPLY, PRODUCT, FusionParams, fuse, gate

__all__ = ["PRODUCT", "MULTIPLY", "CLS_ONLY", "MODES", "FusionParams", "fuse", "gate"]
