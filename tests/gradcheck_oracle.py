"""Per-coordinate reference for ``toytrain.finite_diff_check``, kept independent of its stacking.

This is the plain form of the check: every perturbed point is its own call
of the public loss (``confidence_loss``, ``focal_loss``, or one scalar loss
of the weight-space row), one coordinate and one direction at a time.  The
library evaluates the 2n points of a trial as one stack; the differential
tests hold the two byte for byte.  The sample points are drawn exactly as
the library draws them.
"""

import numpy as np

from confdet import losses
from confdet.losses import sigmoid, sigmoid_regression_grad
from confdet.toytrain import _FD_STEP, _WCE, REGRESSION_LOSSES, _ce_divergence


def central_diff(fn, z):
    grad = np.zeros_like(z)
    for j in range(z.size):
        bump = np.zeros_like(z)
        bump[j] = _FD_STEP
        grad[j] = (fn(z + bump) - fn(z - bump)) / (2.0 * _FD_STEP)
    return grad


def rel_err(analytic, numeric):
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def theta_space_trial(kind, rng):
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
        if kind != "l1" or loss(sigmoid(float(x @ theta)), y) >= 1e-4:
            break

    analytic = sigmoid_regression_grad(kind, y, float(x @ theta), x)
    numeric = central_diff(lambda t: loss(sigmoid(float(x @ t)), y), theta)
    return analytic, numeric


def logit_space_trial(kind, rng):
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
    return analytic, central_diff(value, z)


def gradcheck_oracle(loss_kind, trials, seed):
    """The worst relative error and every trial's (analytic, numeric) gradients."""
    rng = np.random.default_rng(seed)
    trial = theta_space_trial if loss_kind in REGRESSION_LOSSES else logit_space_trial
    grads = [trial(loss_kind, rng) for _ in range(trials)]
    worst = 0.0
    for analytic, numeric in grads:
        worst = max(worst, rel_err(analytic, numeric))
    return worst, grads
