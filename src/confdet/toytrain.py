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
import math
from dataclasses import dataclass

import numpy as np

from . import losses
from .geometry import _check_count
from .losses import REGRESSION_LOSSES, sigmoid, sigmoid_regression_grad

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

INITS = ("zeros", "saturated+", "saturated-")

# Initial logit magnitude for the saturated inits: sigmoid(7) ~ 0.999.
SATURATION_LOGIT = 7.0
_BLOCK_FLOATS = 2**14  # predictions train keeps for its loss rows (one iteration's if more)


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
        if self.features.ndim != 2 or not len(self.features):
            raise ValueError(f"features must be (n, d) with n >= 1, got shape {self.features.shape}")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite: NaN and inf are rejected")
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
        _check_count("max_iters", self.max_iters, 1)
        _check_count("seed", self.seed, 0)
        if self.init not in INITS:
            raise ValueError(f"init must be one of {INITS}, got {self.init!r}")


@dataclass
class TrainTrace:
    """Per-iteration loss, mean absolute error and gradient norm.

    Row t describes the parameters before the t-th update.  ``diverged``
    marks a trace cut short: before the first non-finite loss, or after the
    update that overflowed the parameters, when ``final_theta`` is non-finite.
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
    _check_count("n", n, 1)
    _check_count("d", d, 1)
    _check_count("seed", seed, 0)
    if not math.isfinite(noise):
        raise ValueError(f"noise must be finite, got {noise}")
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

    The update is the mean per-sample gradient of the loss's row (see
    :func:`confdet.losses.sigmoid_regression_grad`).  Loss and MAE rows are
    computed a block of iterations at a time, bit for bit as per-row means.
    """
    x, y = data.features, data.targets
    n, lr = len(y), cfg.learning_rate
    theta = initial_theta(cfg.init, x.shape[1])
    row, abs_err = losses._LOSSES[cfg.loss_kind], losses._LOSSES["l1"].value
    block = np.empty((min(cfg.max_iters, max(1, _BLOCK_FLOATS // n)), n))

    loss_rows, mae_rows, norm_rows, diverged = [], [], [], False
    # divergence is detected from inf/nan propagation, so let overflow happen silently
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, cfg.max_iters, len(block)):
            m = min(len(block), cfg.max_iters - start)
            for i in range(m):
                h = block[i] = sigmoid(x @ theta)
                # np.mean's sum and divide without its wrapper; x.T @ g would round differently
                grad = np.add.reduce(row.grad(h, y)[:, None] * x, axis=0) / n
                norm_rows.append(math.sqrt(grad.dot(grad)))
                last, theta = theta, theta - lr * grad
                if not np.isfinite(theta).all():
                    # overflowing weights poison every later loss; stop here
                    diverged, m = True, i + 1
                    break
            loss_rows.append(np.add.reduce(row.value(block[:m], y), axis=1) / n)
            mae_rows.append(np.add.reduce(abs_err(block[:m], y), axis=1) / n)
            if diverged:
                break
    loss, mae, grad_norm = np.concatenate(loss_rows), np.concatenate(mae_rows), np.array(norm_rows)
    # only a NaN prediction makes a loss non-finite, and it makes that update NaN too
    if diverged and not np.isfinite(loss[-1]):
        loss, mae, grad_norm, theta = loss[:-1], mae[:-1], grad_norm[:-1], last

    return TrainTrace(loss=loss, mae=mae, grad_norm=grad_norm, final_theta=theta, diverged=diverged)


def write_trace_csv(trace: TrainTrace, path) -> None:
    """iter,loss,mae,grad_norm rows; a footer comment flags divergence."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "loss", "mae", "grad_norm"])
        rows = zip(trace.loss.tolist(), trace.mae.tolist(), trace.grad_norm.tolist())
        writer.writerows([t, *map(repr, r)] for t, r in enumerate(rows))
        if trace.diverged:
            fh.write(f"# diverged: loss left the finite range after iteration {len(trace) - 1}\n")


GRADCHECK_LOSSES = ("l1", "l2", "ce", "focal", "gfocal", "wce", "smooth_l1")

_FD_STEP = 1e-6
# The weighted CE that "wce" checks: its negative term at weight 0.25.
_WCE = losses.ConfLossKind("weighted_ce", w=0.25)


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max |analytic - numeric| over the larger max magnitude; NaN if either has a non-finite entry."""
    if not (np.isfinite(analytic).all() and np.isfinite(numeric).all()):
        return math.nan
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def _central_diff(fn, z: np.ndarray) -> np.ndarray:
    """Central differences of ``fn`` at ``z`` (n,) from one call on all 2n perturbed points.

    ``fn`` maps a (2n, n) stack, z + step * e_j then z - step * e_j, to one value per row.
    """
    bumps = np.eye(z.size) * _FD_STEP
    values = fn(np.concatenate([z + bumps, z - bumps]))
    return (values[: z.size] - values[z.size :]) / (2.0 * _FD_STEP)


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
    # one scalar row at a time: numpy's square and a float's ** 2 round differently
    numeric = _central_diff(lambda ts: np.array([loss(sigmoid(float(x @ t)), y) for t in ts]), theta)
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
    # the analytic call runs the public checks on y, pos and n_pos; the row-wise
    # value then scores the whole stack of perturbed logits with those arrays
    if kind == "focal":
        analytic = losses.focal_loss_grad(z, pos, n_pos)
        value = lambda zs: losses._focal_rows(zs, pos, n_pos, losses.FocalParams())
    else:
        conf = _WCE if kind == "wce" else losses.ConfLossKind(kind)
        y = np.where(pos, rng.uniform(0.0, 1.0, size=n), 0.0)
        analytic = losses.confidence_loss_grad(conf, z, y, pos, n_pos)
        value = lambda zs: losses._reduce(conf, zs, y, pos, n_pos, grad=False)
    numeric = _central_diff(value, z)
    return _rel_err(analytic, numeric)


def finite_diff_check(loss_kind: str, tol: float = 1e-6, trials: int = 100, seed: int = 0) -> float:
    """Max relative error between an analytic gradient and central differences.

    l1/l2/ce are checked in weight space on single samples (ce through its
    divergence from the target, see _ce_divergence); focal, gfocal, wce
    (weighted cross entropy) and smooth_l1 in logit space on small batches.
    All sample points keep |pre-sigmoid value| <= 6.  ``tol`` is the threshold
    callers compare the result against; it does not affect the computation.

    Each trial stacks its 2n perturbed points (every coordinate moved by
    +-1e-6) into one (2n, n) array and evaluates them together: a logit-space
    trial scores the stack with one call of the loss's row-wise value, the
    arithmetic of the public loss; a weight-space trial maps each row to a
    scalar loss.  The differences are bit for bit those of one public loss
    call per point.  A non-finite analytic or numeric gradient entry makes
    the result NaN, which fails every ``err < tol`` comparison.
    ``trials`` is an int >= 1 (a bool is rejected).
    """
    if loss_kind == "weighted_ce":
        loss_kind = "wce"
    if loss_kind not in GRADCHECK_LOSSES:
        raise ValueError(f"loss_kind must be one of {GRADCHECK_LOSSES}, got {loss_kind!r}")
    if not tol >= 0.0:  # NaN too
        raise ValueError(f"tol must be >= 0, got {tol}")
    _check_count("trials", trials, 1)
    rng = np.random.default_rng(seed)
    trial = _theta_space_trial if loss_kind in REGRESSION_LOSSES else _logit_space_trial
    # np.max, unlike max(), keeps a NaN trial
    return float(np.max([trial(loss_kind, rng) for _ in range(trials)]))
