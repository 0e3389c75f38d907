"""A desk-scale sigmoid-regression experiment comparing loss gradients.

Trains h = sigmoid(theta . x) on continuous targets in [0, 1] by full-batch
gradient descent under l1, l2 or cross-entropy loss.  Starting from a
saturated initialization (every prediction pinned near 0.001 or 0.999),
cross entropy escapes immediately while l1/l2 crawl, because their
gradients carry the vanishing h(1-h) factor.  Also hosts the
finite-difference checks for every analytic gradient in the loss module.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import losses
from .losses import sigmoid, sigmoid_regression_grad

__all__ = [
    "REGRESSION_LOSSES",
    "INITS",
    "SATURATION_LOGIT",
    "ToyDataset",
    "ToyTrainConfig",
    "TrainTrace",
    "make_dataset",
    "initial_theta",
    "train",
    "finite_diff_check",
    "write_trace_csv",
    "GRADCHECK_LOSSES",
]

REGRESSION_LOSSES = ("l1", "l2", "ce")
INITS = ("zeros", "saturated+", "saturated-")

# Initial logit magnitude for the saturated inits: sigmoid(7) ~ 0.999.
SATURATION_LOGIT = 7.0


@dataclass(frozen=True)
class ToyDataset:
    """Features (n, d) and targets (n,) in [0, 1].

    Column 0 of the features is a constant bias feature equal to 1; with it
    the saturated initializations pin every prediction to the same extreme.
    """

    features: np.ndarray
    targets: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=np.float64))
        if self.features.ndim != 2:
            raise ValueError(f"features must be (n, d), got shape {self.features.shape}")
        if self.targets.shape != (self.features.shape[0],):
            raise ValueError("targets must be one value per feature row")
        losses._check_targets(self.targets)


@dataclass(frozen=True)
class ToyTrainConfig:
    loss_kind: str = "ce"
    learning_rate: float = 0.5
    max_iters: int = 2000
    init: str = "zeros"
    seed: int = 0

    def __post_init__(self):
        if self.loss_kind not in REGRESSION_LOSSES:
            raise ValueError(f"loss_kind must be one of {REGRESSION_LOSSES}, got {self.loss_kind!r}")
        if not self.learning_rate > 0.0:  # NaN fails too
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.init not in INITS:
            raise ValueError(f"init must be one of {INITS}, got {self.init!r}")


@dataclass
class TrainTrace:
    """Per-iteration loss, mean absolute error and gradient norm.

    Row t describes the parameters before the t-th update.  A trace is
    truncated with ``diverged`` set when the loss stops being finite.
    """

    loss: np.ndarray
    mae: np.ndarray
    grad_norm: np.ndarray
    final_theta: np.ndarray
    diverged: bool = False

    def __len__(self) -> int:
        return len(self.loss)

    def first_iteration_below(self, mae_threshold: float) -> int | None:
        """First iteration whose MAE is strictly below the threshold, if any."""
        hits = np.flatnonzero(self.mae < mae_threshold)
        return int(hits[0]) if hits.size else None


def make_dataset(n: int, d: int, seed: int, noise: float = 0.1) -> ToyDataset:
    """Seeded dataset: y = sigmoid(x . w* + noise), clipped to [0, 1].

    Features are standard normal except for the constant bias column 0; the
    generating weights w* stay hidden.  Identical (n, d, seed, noise) give
    bit-identical datasets.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    features[:, 0] = 1.0
    w_star = rng.standard_normal(d)
    targets = np.clip(sigmoid(features @ w_star + noise * rng.standard_normal(n)), 0.0, 1.0)
    return ToyDataset(features=features, targets=targets, seed=seed)


def initial_theta(init: str, d: int) -> np.ndarray:
    """Zero weights, or +-SATURATION_LOGIT on the bias feature only."""
    theta = np.zeros(d)
    if init == "saturated+":
        theta[0] = SATURATION_LOGIT
    elif init == "saturated-":
        theta[0] = -SATURATION_LOGIT
    elif init != "zeros":
        raise ValueError(f"init must be one of {INITS}, got {init!r}")
    return theta


def train(data: ToyDataset, cfg: ToyTrainConfig) -> TrainTrace:
    """Full-batch gradient descent; deterministic given the dataset and config.

    The update direction is the mean of the per-sample gradients that
    :func:`confdet.losses.sigmoid_regression_grad` gives, from the value's loss row.
    """
    x = data.features
    y = data.targets
    theta = initial_theta(cfg.init, x.shape[1])
    row, abs_err = losses._LOSSES[cfg.loss_kind], losses._LOSSES["l1"].value

    loss_rows, mae_rows, norm_rows = [], [], []
    diverged = False
    # divergence is detected from inf/nan propagation, so let overflow happen silently
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_iters):
            h = sigmoid(x @ theta)
            loss = float(np.mean(row.value(h, y)))
            if not np.isfinite(loss):
                diverged = True
                break
            grad = (row.grad(h, y)[:, None] * x).mean(axis=0)
            loss_rows.append(loss)
            mae_rows.append(float(np.mean(abs_err(h, y))))
            norm_rows.append(float(np.linalg.norm(grad)))
            theta = theta - cfg.learning_rate * grad
            if not np.isfinite(theta).all():
                # overflowing weights poison every later loss; stop here
                diverged = True
                break

    return TrainTrace(
        loss=np.array(loss_rows),
        mae=np.array(mae_rows),
        grad_norm=np.array(norm_rows),
        final_theta=theta,
        diverged=diverged,
    )


def write_trace_csv(trace: TrainTrace, path) -> None:
    """iter,loss,mae,grad_norm rows; a footer comment flags divergence."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "loss", "mae", "grad_norm"])
        for t in range(len(trace)):
            writer.writerow(
                [t, repr(float(trace.loss[t])), repr(float(trace.mae[t])), repr(float(trace.grad_norm[t]))]
            )
        if trace.diverged:
            fh.write(f"# diverged: loss left the finite range after iteration {len(trace) - 1}\n")


GRADCHECK_LOSSES = ("l1", "l2", "ce", "focal", "gfocal", "wce", "smooth_l1")

_FD_STEP = 1e-6
# The weighted CE that "wce" checks: its negative term at weight 0.25.
_WCE = losses.ConfLossKind("weighted_ce", w=0.25)


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def _central_diff(fn, z: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(z)
    for j in range(z.size):
        bump = np.zeros_like(z)
        bump[j] = _FD_STEP
        grad[j] = (fn(z + bump) - fn(z - bump)) / (2.0 * _FD_STEP)
    return grad


def _ce_divergence(h: float, y: float) -> float:
    """KL(y || h) = ce - H(y): ce's gradient, but a value as small as the error.

    Near y == h the O(1) ce value's rounding swamps a central difference.
    """
    kl = 0.0
    if y > 0.0:
        kl -= y * np.log1p((h - y) / y)
    if y < 1.0:
        kl -= (1.0 - y) * np.log1p((y - h) / (1.0 - y))
    return kl


def _theta_space_trial(kind: str, rng: np.random.Generator) -> float:
    """One random (theta, x, y) with |theta . x| <= 6; returns the relative error."""
    loss = _ce_divergence if kind == "ce" else losses._LOSSES[kind].value
    d = 4
    while True:
        x = rng.uniform(-2.0, 2.0, size=d)
        if np.linalg.norm(x) >= 0.5:
            break
    z_target = rng.uniform(-6.0, 6.0)
    theta = z_target * x / float(x @ x)
    while True:
        y = rng.uniform(0.0, 1.0)
        # l1 is non-differentiable on y == h, where its loss is 0; keep clear of the kink
        if kind != "l1" or loss(sigmoid(float(x @ theta)), y) >= 1e-4:
            break

    analytic = sigmoid_regression_grad(kind, y, float(x @ theta), x)
    numeric = _central_diff(lambda t: loss(sigmoid(float(x @ t)), y), theta)
    return _rel_err(analytic, numeric)


def _logit_space_trial(kind: str, rng: np.random.Generator) -> float:
    """Check d(batch loss)/d(logits) on a small batch of about half positives.

    ``focal`` checks the focal loss; every other kind is a ConfLossKind
    name, and ``wce`` is _WCE.
    """
    n = 8
    z = rng.uniform(-6.0, 6.0, size=n)
    pos = rng.random(n) < 0.5
    if not pos.any():
        pos[0] = True
    n_pos = int(pos.sum())
    if kind == "focal":
        value = lambda zz: losses.focal_loss(zz, pos, n_pos)
        analytic = losses.focal_loss_grad(z, pos, n_pos)
    else:
        conf = _WCE if kind == "wce" else losses.ConfLossKind(kind)
        y = np.where(pos, rng.uniform(0.0, 1.0, size=n), 0.0)
        value = lambda zz: losses.confidence_loss(conf, zz, y, pos, n_pos)
        analytic = losses.confidence_loss_grad(conf, z, y, pos, n_pos)
    numeric = _central_diff(value, z)
    return _rel_err(analytic, numeric)


def finite_diff_check(loss_kind: str, tol: float = 1e-6, trials: int = 100, seed: int = 0) -> float:
    """Max relative error between an analytic gradient and central differences.

    l1/l2/ce are checked in weight space on single samples (ce through its
    divergence from the target, see _ce_divergence); focal, gfocal, wce
    (weighted cross entropy) and smooth_l1 in logit space on small batches.
    All sample points keep |pre-sigmoid value| <= 6.  ``tol`` is the threshold
    callers compare the result against; it does not affect the computation.
    """
    if loss_kind == "weighted_ce":
        loss_kind = "wce"
    if loss_kind not in GRADCHECK_LOSSES:
        raise ValueError(f"loss_kind must be one of {GRADCHECK_LOSSES}, got {loss_kind!r}")
    if not tol >= 0.0:  # NaN too
        raise ValueError(f"tol must be >= 0, got {tol}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        if loss_kind in REGRESSION_LOSSES:
            err = _theta_space_trial(loss_kind, rng)
        else:
            err = _logit_space_trial(loss_kind, rng)
        worst = max(worst, err)
    return worst
