"""Differential tests: ``finite_diff_check`` against the per-coordinate oracle.

A trial of the library evaluates its 2n perturbed points as one (2n, n)
stack; ``tests/gradcheck_oracle.py`` calls the public loss once per point.
Every trial's analytic and numeric gradient, and the returned error, must
match byte for byte.  The row-wise loss values behind a logit-space trial
are also held to one public call per row, on stacks with enough positives
that a regrouped row sum shows.  A non-finite gradient entry must fail the
check.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdet import losses, toytrain
from confdet.cli import main
from confdet.toytrain import GRADCHECK_LOSSES, REGRESSION_LOSSES, finite_diff_check
from gradcheck_oracle import gradcheck_oracle

_LOGIT_KINDS = tuple(k for k in GRADCHECK_LOSSES if k not in REGRESSION_LOSSES)


def _bytes(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _assert_matches_oracle(kind, trials, seed):
    with mock.patch.object(toytrain, "_rel_err", wraps=toytrain._rel_err) as spy:
        err = finite_diff_check(kind, trials=trials, seed=seed)
    want_err, want_grads = gradcheck_oracle(kind, trials, seed)
    got_grads = [c.args for c in spy.call_args_list]
    assert len(got_grads) == trials
    for t, (got, want) in enumerate(zip(got_grads, want_grads)):
        assert _bytes(got[0]) == _bytes(want[0]), (kind, seed, t, "analytic")
        assert _bytes(got[1]) == _bytes(want[1]), (kind, seed, t, "numeric")
    assert type(err) is float and err.hex() == want_err.hex()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(GRADCHECK_LOSSES), st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_gradcheck_matches_oracle(kind, seed, trials):
    _assert_matches_oracle(kind, trials, seed)


@pytest.mark.parametrize("kind", GRADCHECK_LOSSES)
def test_long_run_matches_oracle(kind):
    # l2 trials whose rows were squared as one array differ in about 1 of 125
    _assert_matches_oracle(kind, 600, seed=3)


# ---------------------------------------------------------------- row-wise values

@st.composite
def _stack(draw):
    """A (rows, n) float64 stack of logits with shared targets and labels, mostly positive."""
    n = draw(st.integers(1, 40))
    rows = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    z = rng.uniform(-8.0, 8.0, size=(rows, n)) * draw(st.sampled_from([1.0, 1e-3, 50.0]))
    pos = rng.random(n) < draw(st.sampled_from([0.5, 0.9, 1.0]))
    if not pos.any():
        pos[0] = True
    y = np.where(pos, rng.uniform(0.0, 1.0, size=n), 0.0)
    return z, y, pos, int(pos.sum())


_KINDS = [losses.ConfLossKind(name) for name in losses.CONF_LOSS_NAMES] + [
    losses.ConfLossKind("weighted_ce", w=0.25),
    losses.ConfLossKind("gfocal", beta=0.5),
    losses.ConfLossKind("smooth_l1", smooth_l1_threshold=0.1),
]


@settings(max_examples=200, deadline=None)
@given(_stack(), st.sampled_from(_KINDS))
def test_confidence_rows_match_public_loss(stack, kind):
    z, y, pos, n_pos = stack
    rows = losses._reduce(kind, z, y, pos, n_pos, grad=False)
    want = np.array([losses.confidence_loss(kind, row, y, pos, n_pos) for row in z])
    assert _bytes(rows) == _bytes(want)


@settings(max_examples=200, deadline=None)
@given(_stack(), st.sampled_from([losses.FocalParams(), losses.FocalParams(0.5, 0.0), losses.FocalParams(0.9, 1.5)]))
def test_focal_rows_match_public_loss(stack, params):
    z, _, pos, n_pos = stack
    rows = losses._focal_rows(z, pos, n_pos, params)
    want = np.array([losses.focal_loss(row, pos, n_pos, params) for row in z])
    assert _bytes(rows) == _bytes(want)


@pytest.mark.parametrize("kind", _LOGIT_KINDS)
def test_logit_space_trial_evaluates_values_once(kind):
    # _focal_rows(z, ...) and _reduce(kind, z, ..., grad=...), which the analytic call also runs
    name, z_arg = ("_focal_rows", 0) if kind == "focal" else ("_reduce", 1)
    with mock.patch.object(losses, name, wraps=getattr(losses, name)) as spy:
        finite_diff_check(kind, trials=7, seed=2)
    stacks = [c.args[z_arg] for c in spy.call_args_list if not c.kwargs.get("grad")]
    assert len(stacks) == 7
    assert all(s.shape == (16, 8) for s in stacks)


# ---------------------------------------------------------------- non-finite gradients

def _poisoned(bad_trial, index):
    """focal_loss_grad with a NaN at ``index`` (every entry if None) of trial ``bad_trial`` (every trial if None)."""
    calls = []
    real = losses.focal_loss_grad

    def grad(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(None)
        if bad_trial is None or len(calls) == bad_trial + 1:
            out[slice(None) if index is None else index] = math.nan
        return out

    return grad


@pytest.mark.parametrize(("bad_trial", "index"), [(None, None), (3, 5)], ids=["all-nan", "one-nan-in-trial-3"])
def test_nan_analytic_gradient_fails(monkeypatch, bad_trial, index):
    monkeypatch.setattr(losses, "focal_loss_grad", _poisoned(bad_trial, index))
    assert math.isnan(finite_diff_check("focal", trials=10, seed=0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_numeric_gradient_fails(monkeypatch, bad):
    real = losses._reduce

    def value(kind, z, *args, grad):
        out = real(kind, z, *args, grad=grad)
        if not grad:
            out[2] = bad
        return out

    monkeypatch.setattr(losses, "_reduce", value)
    assert math.isnan(finite_diff_check("gfocal", trials=5, seed=0))


def test_cli_nan_gradient_prints_nan_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(losses, "focal_loss_grad", _poisoned(None, None))
    assert main(["gradcheck", "--loss", "focal", "--trials", "5"]) == 1
    assert capsys.readouterr().out == "focal: max relative error nan (>= tol 1e-06)\n"
