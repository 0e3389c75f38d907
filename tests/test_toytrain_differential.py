"""Differential tests: ``toytrain.train`` against the per-iteration oracle.

``train`` keeps each iteration's predictions and computes the loss and MAE
rows of a block of iterations together; ``tests/toytrain_oracle.py`` takes
one ``np.mean`` per iteration and stops at the first non-finite loss.  The
generators aim at the block edges (1, block - 1, block, block + 1 and
2 * block + 1 iterations), at a 1x1 dataset, at the gradient sum (a
transposed product rounds differently), and at both ways a run diverges:
an update that overflows the weights (``features * 1e200`` with a learning
rate of 1e200 or 1e300), and a NaN prediction, from ``inf - inf`` inside
``x @ theta``, that ends the trace before its own row.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdet import toytrain
from confdet.toytrain import INITS, REGRESSION_LOSSES, ToyDataset, ToyTrainConfig, make_dataset, train
from toytrain_oracle import train_oracle

# The longest run the generator draws at a block edge.
_MAX_EDGE = 1000


def _block_rows(n):
    return max(1, toytrain._BLOCK_FLOATS // n)


def _assert_same_trace(data, cfg):
    expected, trace = train_oracle(data, cfg), train(data, cfg)
    for field in ("loss", "mae", "grad_norm", "final_theta"):
        got, want = getattr(trace, field), getattr(expected, field)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), field
    assert trace.diverged is expected.diverged
    return trace


def _scaled(n, d, seed, scale):
    base = make_dataset(n, d, seed)
    return ToyDataset(features=base.features * scale, targets=base.targets, seed=seed)


@st.composite
def _case(draw):
    # 8193, 5462 and 4097 rows give blocks of 1, 2 and 3 iterations, so the
    # first steps of a diverging run land on block edges
    n = draw(st.sampled_from([1, 7, 81, 82, 200, 4097, 5462, 8193]) | st.integers(1, 400))
    d = draw(st.integers(1, 6))
    rows = _block_rows(n)
    edges = [k for k in (1, rows - 1, rows, rows + 1, 2 * rows + 1) if 1 <= k <= _MAX_EDGE]
    iters = draw(st.sampled_from(edges) | st.integers(1, 40))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e100, 1e150, 1e200]))
    lr = draw(st.sampled_from([0.5, 1e-300, 1e10, 1e100, 1e200, 1e300, 1e308]) | st.floats(1e-3, 50.0))
    cfg = ToyTrainConfig(
        loss_kind=draw(st.sampled_from(REGRESSION_LOSSES)),
        learning_rate=lr,
        max_iters=iters,
        init=draw(st.sampled_from(INITS)),
    )
    return _scaled(n, d, draw(st.integers(0, 2**32 - 1)), scale), cfg


@settings(max_examples=200, deadline=None)
@given(_case())
def test_train_matches_oracle(case):
    _assert_same_trace(*case)


@pytest.mark.parametrize("init", INITS)
@pytest.mark.parametrize("kind", REGRESSION_LOSSES)
@pytest.mark.parametrize(
    "iters_of_block",
    [lambda b: 1, lambda b: b - 1, lambda b: b, lambda b: b + 1, lambda b: 2 * b + 1],
    ids=["1", "block-1", "block", "block+1", "2block+1"],
)
def test_block_edges_match_oracle(kind, init, iters_of_block):
    iters = iters_of_block(_block_rows(200))
    trace = _assert_same_trace(make_dataset(200, 3, seed=0), ToyTrainConfig(kind, 0.5, iters, init))
    assert len(trace) == iters


@pytest.mark.parametrize("n", [8193, 5462, 4097])
@pytest.mark.parametrize(("scale", "lr"), [(1e200, 1e200), (1e200, 1e300), (1e150, 1e100)])
@pytest.mark.parametrize("init", INITS)
def test_divergence_on_block_edges_matches_oracle(n, scale, lr, init):
    data = _scaled(n, 4, 3, scale)
    trace = _assert_same_trace(data, ToyTrainConfig("ce", lr, 3 * _block_rows(n) + 1, init))
    assert trace.diverged and np.isfinite(trace.loss).all()


def test_nan_prediction_ends_the_trace_before_its_row():
    # ToyDataset rejects inf features; a plain record reaches train's guard
    # directly: inf * 0 in x @ theta makes every prediction of step 0 NaN
    for n in (1, 8193):
        features = np.ones((n, 2))
        features[:, 1] = np.inf
        data = types.SimpleNamespace(features=features, targets=np.full(n, 0.5))
        trace = _assert_same_trace(data, ToyTrainConfig("ce", 0.5, 5, "zeros"))
        assert trace.diverged and len(trace) == 0
        assert (trace.final_theta == 0.0).all()
