"""Detector losses: values and analytic gradients w.r.t. pre-sigmoid logits.

Covers the focal classification loss and the object-confidence loss
family over continuous IoU targets in [0, 1]: cross entropy, cross
entropy with a down-weighted negative term, the
|y - p|^beta modulated cross entropy, and plain l1 / smooth-l1 / l2
regression through the sigmoid.  Also the per-sample weight gradients of
l1/l2/cross-entropy for a sigmoid regression model h = sigmoid(theta . x),
which make the saturation behaviour of the three losses directly
comparable:

    l1:  sign(h - y) * h(1-h) * x
    l2:  (h - y) * h(1-h) * x        (loss 0.5 * (y - h)^2)
    ce:  (h - y) * x

The h(1-h) factor vanishes at saturated predictions, so l1/l2 barely move
a confidently-wrong output while cross entropy keeps a gradient
proportional to the error itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .geometry import _check_count, _check_unit

__all__ = [
    "P_CLAMP",
    "FocalParams",
    "ConfLossKind",
    "sigmoid",
    "focal_loss",
    "focal_loss_grad",
    "ce_confidence_loss",
    "ce_confidence_loss_grad",
    "weighted_ce_confidence_loss",
    "weighted_ce_confidence_loss_grad",
    "gfocal_loss",
    "gfocal_loss_grad",
    "l1_confidence_loss",
    "l1_confidence_loss_grad",
    "l2_confidence_loss",
    "l2_confidence_loss_grad",
    "smooth_l1_confidence_loss",
    "smooth_l1_confidence_loss_grad",
    "confidence_loss",
    "confidence_loss_grad",
    "sigmoid_regression_grad",
]

# Probabilities are clamped away from {0, 1} before any log; the perturbation
# is far below test tolerances but keeps every loss finite.
P_CLAMP = 1e-12


@dataclass(frozen=True)
class FocalParams:
    """Focal loss weights: alpha balances classes, gamma decays easy samples."""

    alpha: float = 0.25
    gamma: float = 2.0

    def __post_init__(self):
        _check_unit("alpha", self.alpha)
        if not 0.0 <= self.gamma < math.inf:  # NaN fails too
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")


@dataclass(frozen=True)
class ConfLossKind:
    """Which object-confidence loss to use.

    ``w`` is the negative-sample weight (weighted_ce only); ``beta`` the
    modulating exponent (gfocal only).  Every kind except weighted_ce uses
    positive samples only.
    """

    name: str
    w: float = 0.0001
    beta: float = 2.0
    smooth_l1_threshold: float = 1.0

    def __post_init__(self):
        if self.name not in CONF_LOSS_NAMES:
            raise ValueError(f"unknown confidence loss {self.name!r}, expected one of {CONF_LOSS_NAMES}")
        # written so that NaN fails each check
        if not 0.0 <= self.w < math.inf:
            raise ValueError(f"w must be finite and >= 0, got {self.w}")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not 0.0 < self.smooth_l1_threshold < math.inf:
            raise ValueError(f"smooth_l1_threshold must be finite and > 0, got {self.smooth_l1_threshold}")


def sigmoid(z):
    """Numerically stable logistic function, elementwise.

    Never overflows: uses exp(-|z|) only.  Scalars in, float out; arrays
    in, float64 array out.
    """
    arr = np.asarray(z, dtype=np.float64)
    t = np.exp(-np.abs(arr))
    out = np.where(arr >= 0.0, 1.0, t) / (1.0 + t)
    if out.ndim == 0:
        return float(out)
    return out


def _clamped(p):
    return np.clip(p, P_CLAMP, 1.0 - P_CLAMP)


def _check_targets(y: np.ndarray):
    if y.size and not (0.0 <= y.min() and y.max() <= 1.0):  # NaN fails too
        raise ValueError("targets must lie in [0, 1]")


def _as_logits(logits) -> np.ndarray:
    """Flat float64 logits; NaN is rejected, infinities and saturated values are fine."""
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    if np.isnan(z).any():
        raise ValueError("logits must not be NaN")
    return z


def _prep_masked(logits, targets, positive, n_pos):
    """Common validation for the confidence losses."""
    z = _as_logits(logits)
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    if z.shape != y.shape:
        raise ValueError(f"logits and targets length mismatch: {z.shape} vs {y.shape}")
    _check_targets(y)
    if positive is None:
        pos = np.ones(z.shape, dtype=bool)
    else:
        pos = np.asarray(positive, dtype=bool).reshape(-1)
        if pos.shape != z.shape:
            raise ValueError("positive mask must match logits length")
    if n_pos is None:
        n_pos = int(np.count_nonzero(pos))
    _check_count("n_pos", n_pos, 1)
    return z, y, pos, n_pos


def _focal_prep(logits, positive, n_pos: int):
    """Checked logits and labels for the focal loss and its gradient."""
    z = _as_logits(logits)
    pos = np.asarray(positive, dtype=bool).reshape(-1)
    if z.shape != pos.shape:
        raise ValueError("logits and labels length mismatch")
    _check_count("n_pos", n_pos, 1)
    return z, pos


def _focal_terms(z, pos, params: FocalParams):
    """p, p_t (clamped) and alpha_t of each logit of z (..., n), labels ``pos`` (n,)."""
    p = sigmoid(z)
    p_t = _clamped(np.where(pos, p, 1.0 - p))
    a_t = np.where(pos, params.alpha, 1.0 - params.alpha)
    return p, p_t, a_t


def _focal_rows(z, pos, n_pos: int, params: FocalParams):
    """The focal loss of each row of z (..., n), summed over the last axis, / n_pos."""
    _, p_t, a_t = _focal_terms(z, pos, params)
    return (a_t * (1.0 - p_t) ** params.gamma * (-np.log(p_t))).sum(axis=-1) / n_pos


def focal_loss(logits, positive, n_pos: int, params: FocalParams = FocalParams()) -> float:
    """Focal classification loss over positives and negatives, divided by n_pos.

    Per sample: alpha_t * (1 - p_t)^gamma * (-ln p_t) with p_t = p for
    positives and 1 - p for negatives, alpha_t likewise alpha / 1 - alpha.
    """
    return float(_focal_rows(*_focal_prep(logits, positive, n_pos), n_pos, params))


def focal_loss_grad(logits, positive, n_pos: int, params: FocalParams = FocalParams()) -> np.ndarray:
    """d(focal_loss)/d(logits), same normalization as the value."""
    z, pos = _focal_prep(logits, positive, n_pos)
    p, p_t, a_t = _focal_terms(z, pos, params)
    g = params.gamma
    if g == 0.0:
        d_pt = -a_t / p_t
    else:
        d_pt = a_t * (g * (1.0 - p_t) ** (g - 1.0) * np.log(p_t) - (1.0 - p_t) ** g / p_t)
    dpt_dz = np.where(pos, 1.0, -1.0) * p * (1.0 - p)
    return d_pt * dpt_dz / n_pos


# ---------------------------------------------------------------- confidence losses
#
# One row per kind: the per-sample loss f(p, y, kind) at p = sigmoid(z) and
# its derivative df/dz.  ``_reduce`` does everything else for every kind.
# Kinds without parameters (l1, l2, ce) also accept a missing ``kind``.


def _l1(p, y, kind=None):
    return np.abs(y - p)


def _ce(p, y, kind=None):
    p = _clamped(p)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def _smooth_l1(p, y, kind):
    t = kind.smooth_l1_threshold
    d = _l1(p, y)
    return np.where(d < t, 0.5 * d**2 / t, d - 0.5 * t)


def _smooth_l1_grad(p, y, kind):
    t = kind.smooth_l1_threshold
    diff = p - y
    return np.where(np.abs(diff) < t, diff / t, np.sign(diff)) * p * (1.0 - p)


def _gfocal(p, y, kind):
    p = _clamped(p)  # for |y - p| as well as for CE: saturated logits stay on the clamped scale
    return _l1(p, y) ** kind.beta * _ce(p, y)  # 0^0 == 1, so beta == 0 is exactly CE


def _gfocal_grad(p, y, kind):
    diff = p - y
    if kind.beta == 0.0:
        # plain CE gradient; the general form would take 0 * |d|^-1, which is NaN where |d| < 1 / DBL_MAX
        return diff
    absd = np.abs(diff)
    # d/dz [ |d|^beta * CE ] = beta |d|^(beta-1) sign(d) CE p(1-p) + |d|^beta * d
    with np.errstate(divide="ignore", invalid="ignore"):
        mod_term = kind.beta * absd ** (kind.beta - 1.0) * np.sign(diff)
    mod_term = np.where(absd == 0.0, 0.0, mod_term)
    return mod_term * _ce(p, y) * p * (1.0 - p) + absd**kind.beta * diff


class _Row(NamedTuple):
    value: Callable
    grad: Callable
    keeps_negatives: bool = False  # score negatives too, at target 0 and weight kind.w


# CE keeps the closed-form gradient p - y, exact where p(1-p) underflows.
_CE = _Row(_ce, lambda p, y, kind=None: p - y)

_LOSSES = {
    "l1": _Row(_l1, lambda p, y, kind=None: np.sign(p - y) * p * (1.0 - p)),
    "smooth_l1": _Row(_smooth_l1, _smooth_l1_grad),
    "l2": _Row(lambda p, y, kind=None: 0.5 * (y - p) ** 2, lambda p, y, kind=None: (p - y) * p * (1.0 - p)),
    "ce": _CE,
    "weighted_ce": _CE._replace(keeps_negatives=True),
    "gfocal": _Row(_gfocal, _gfocal_grad),
}

CONF_LOSS_NAMES = tuple(_LOSSES)
REGRESSION_LOSSES = ("l1", "l2", "ce")  # the kinds sigmoid_regression_grad and the toy experiment take


def _reduce(kind: ConfLossKind, z, y, pos, n_pos: int, grad: bool):
    """Sum ``kind``'s per-sample loss over the scored samples / n_pos, or take its gradient.

    ``y``, ``pos`` and ``n_pos`` are checked (see _prep_masked).  The value
    is one sum per row of z (..., n), over the last axis; the gradient takes
    a 1-D z and is scattered back to full length, 0 on unscored samples.
    Positives are taken with np.compress: on a stack, z[..., pos] is laid
    out column by column, which regroups each row's sum.
    """
    row = _LOSSES[kind.name]
    if row.keeps_negatives:
        weights = np.where(pos, 1.0, kind.w)
        p, y = sigmoid(z), np.where(pos, y, 0.0)
        if grad:
            return weights * row.grad(p, y, kind) / n_pos
        return (weights * row.value(p, y, kind)).sum(axis=-1) / n_pos
    p, y = sigmoid(np.compress(pos, z, axis=-1)), y[pos]
    if not grad:
        return row.value(p, y, kind).sum(axis=-1) / n_pos
    out = np.zeros_like(z)
    out[pos] = row.grad(p, y, kind) / n_pos
    return out


def confidence_loss(kind: ConfLossKind, logits, targets_iou, positive=None, n_pos: int | None = None) -> float:
    """The object-confidence loss selected by ``kind``, divided by n_pos.

    All kinds except weighted_ce restrict to positive samples; weighted_ce
    keeps negatives at weight ``kind.w``.
    """
    return float(_reduce(kind, *_prep_masked(logits, targets_iou, positive, n_pos), grad=False))


def confidence_loss_grad(kind: ConfLossKind, logits, targets_iou, positive=None, n_pos: int | None = None) -> np.ndarray:
    """d(confidence_loss)/d(logits) for the selected kind."""
    return _reduce(kind, *_prep_masked(logits, targets_iou, positive, n_pos), grad=True)


def ce_confidence_loss(logits, targets_iou, positive=None, n_pos: int | None = None) -> float:
    """Cross entropy between sigmoid outputs and IoU targets, positives only.

    -(1/n_pos) * sum over positives of [y ln p + (1 - y) ln(1 - p)].
    """
    return confidence_loss(ConfLossKind("ce"), logits, targets_iou, positive, n_pos)


def ce_confidence_loss_grad(logits, targets_iou, positive=None, n_pos: int | None = None) -> np.ndarray:
    """d(ce_confidence_loss)/d(logits): (p - y) / n_pos on positives, 0 elsewhere."""
    return confidence_loss_grad(ConfLossKind("ce"), logits, targets_iou, positive, n_pos)


def weighted_ce_confidence_loss(logits, targets_iou, positive, w: float, n_pos: int | None = None) -> float:
    """Cross entropy keeping negatives at weight ``w`` (their target is 0).

    -(1/n_pos) * [sum_pos CE_i + w * sum_neg CE_i]; w = 0 reduces to the
    positives-only loss.
    """
    return confidence_loss(ConfLossKind("weighted_ce", w=w), logits, targets_iou, positive, n_pos)


def weighted_ce_confidence_loss_grad(logits, targets_iou, positive, w: float, n_pos: int | None = None) -> np.ndarray:
    """d(weighted_ce_confidence_loss)/d(logits)."""
    return confidence_loss_grad(ConfLossKind("weighted_ce", w=w), logits, targets_iou, positive, n_pos)


def gfocal_loss(logits, targets_iou, n_pos: int | None = None, beta: float = 2.0) -> float:
    """|y - p|^beta modulated cross entropy over positives with IoU targets.

    Zero exactly when every prediction matches its target; beta = 0 reduces
    to plain cross entropy.
    """
    return confidence_loss(ConfLossKind("gfocal", beta=beta), logits, targets_iou, None, n_pos)


def gfocal_loss_grad(logits, targets_iou, n_pos: int | None = None, beta: float = 2.0) -> np.ndarray:
    """d(gfocal_loss)/d(logits)."""
    return confidence_loss_grad(ConfLossKind("gfocal", beta=beta), logits, targets_iou, None, n_pos)


def l1_confidence_loss(logits, targets_iou, positive=None, n_pos: int | None = None) -> float:
    """Mean absolute error |y - p| over positives, divided by n_pos."""
    return confidence_loss(ConfLossKind("l1"), logits, targets_iou, positive, n_pos)


def l1_confidence_loss_grad(logits, targets_iou, positive=None, n_pos: int | None = None) -> np.ndarray:
    return confidence_loss_grad(ConfLossKind("l1"), logits, targets_iou, positive, n_pos)


def l2_confidence_loss(logits, targets_iou, positive=None, n_pos: int | None = None) -> float:
    """Squared error 0.5 * (y - p)^2 over positives, divided by n_pos."""
    return confidence_loss(ConfLossKind("l2"), logits, targets_iou, positive, n_pos)


def l2_confidence_loss_grad(logits, targets_iou, positive=None, n_pos: int | None = None) -> np.ndarray:
    return confidence_loss_grad(ConfLossKind("l2"), logits, targets_iou, positive, n_pos)


def smooth_l1_confidence_loss(
    logits, targets_iou, positive=None, n_pos: int | None = None, threshold: float = 1.0
) -> float:
    """Huber-style |y - p| loss: quadratic below ``threshold``, linear above."""
    kind = ConfLossKind("smooth_l1", smooth_l1_threshold=threshold)
    return confidence_loss(kind, logits, targets_iou, positive, n_pos)


def smooth_l1_confidence_loss_grad(
    logits, targets_iou, positive=None, n_pos: int | None = None, threshold: float = 1.0
) -> np.ndarray:
    kind = ConfLossKind("smooth_l1", smooth_l1_threshold=threshold)
    return confidence_loss_grad(kind, logits, targets_iou, positive, n_pos)


def sigmoid_regression_grad(kind: str, y, z, x) -> np.ndarray:
    """Per-sample weight gradient for h = sigmoid(theta . x) under l1/l2/ce.

    ``z`` is the pre-sigmoid value theta . x.  Scalar (y, z) with x of
    shape (d,) returns (d,); batched (n,) / (n, d) inputs return (n, d)
    per-sample gradients.  l1 returns the zero subgradient at y == h.
    """
    kind = kind.lower()
    if kind not in REGRESSION_LOSSES:
        raise ValueError(f"kind must be one of {', '.join(REGRESSION_LOSSES)}; got {kind!r}")
    y_arr = np.asarray(y, dtype=np.float64)
    z_arr = np.asarray(z, dtype=np.float64)
    x_arr = np.asarray(x, dtype=np.float64)
    _check_targets(y_arr.reshape(-1))
    _as_logits(z_arr)
    if y_arr.shape != z_arr.shape:
        raise ValueError("y and z must have the same shape")

    factor = _LOSSES[kind].grad(sigmoid(z_arr), y_arr)  # dloss/dz; l1/l2/ce take no parameters
    if y_arr.ndim == 0:
        if x_arr.ndim != 1:
            raise ValueError(f"scalar y/z need x of shape (d,), got {x_arr.shape}")
        return factor * x_arr
    if y_arr.ndim == 1 and x_arr.ndim == 2 and x_arr.shape[0] == y_arr.shape[0]:
        return factor[:, None] * x_arr
    raise ValueError(f"incompatible shapes: y {y_arr.shape}, x {x_arr.shape}")

