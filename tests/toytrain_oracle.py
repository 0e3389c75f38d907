"""Per-iteration reference for ``toytrain.train``, kept independent of its loop.

This is the plain form of the descent: every iteration computes the loss,
the MAE and the gradient norm of the current parameters through
``np.mean`` and ``np.linalg.norm``, and stops as soon as the loss or the
parameters leave the finite range.  The library computes the same rows a
block at a time; the differential tests hold the two byte for byte.
"""

import numpy as np

from confdet import losses
from confdet.toytrain import TrainTrace, initial_theta


def sigmoid_two_divide(z):
    """The logistic function as two divides: 1/(1+t) for z >= 0, t/(1+t) below."""
    arr = np.asarray(z, dtype=np.float64)
    t = np.exp(-np.abs(arr))
    out = np.where(arr >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))
    if out.ndim == 0:
        return float(out)
    return out


def train_oracle(data, cfg) -> TrainTrace:
    x = data.features
    y = data.targets
    theta = initial_theta(cfg.init, x.shape[1])
    row, abs_err = losses._LOSSES[cfg.loss_kind], losses._LOSSES["l1"].value

    loss_rows, mae_rows, norm_rows = [], [], []
    diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_iters):
            h = sigmoid_two_divide(x @ theta)
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
                diverged = True
                break

    return TrainTrace(
        loss=np.array(loss_rows),
        mae=np.array(mae_rows),
        grad_norm=np.array(norm_rows),
        final_theta=theta,
        diverged=diverged,
    )
