"""The SGD-step workspace: training keeps the reference bits on both sides of
the class-fold threshold (m < 8 folds the class columns, m >= 8 uses numpy's
reduction), loss_and_grad hands out gradients that later calls never touch,
a reused workspace gives what a fresh one gives, and the once-per-epoch
finite check names the same epoch as a check after every step."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from labelshift import (
    PredictorConfig,
    init_predictor,
    loss_and_grad,
    train_predictor,
    train_predictors,
)
from labelshift import predictor
from labelshift._rng import stream

from .helpers import reference_init, reference_loss_and_grad, reference_train, tiny_dataset

CLASSES = [2, 7, 8, 10]  # features need d >= m - 1


def config(architecture, **over):
    base = dict(architecture=architecture, hidden_units=16, learning_rate=0.1, batch_size=32,
                max_epochs=6, loss_threshold=0.0, zeta=1.0, seed=5)
    return PredictorConfig(**{**base, **over})


@pytest.mark.parametrize("m", CLASSES)
@pytest.mark.parametrize("architecture", ["linear", "mlp"])
def test_single_model_matches_reference_around_the_class_fold(architecture, m):
    train = tiny_dataset(seed=m, n=300, m=m, d=9, separation=2.0)  # 300 = 9 batches + 12
    cfg = config(architecture)
    assert np.array_equal(train_predictor(train, cfg).parameters, reference_train(train, cfg))


@pytest.mark.parametrize("m", CLASSES)
@pytest.mark.parametrize("architecture", ["linear", "mlp"])
def test_zeta_twins_on_one_batch_order_match_reference(monkeypatch, architecture, m):
    train = tiny_dataset(seed=m + 20, n=300, m=m, d=9, separation=2.0)
    jobs = [(train, config(architecture)), (train, config(architecture, zeta=0.0))]
    sizes = []
    original = predictor._train_stack
    monkeypatch.setattr(predictor, "_train_stack", lambda j: sizes.append(len(j)) or original(j))
    stacked = train_predictors(jobs)
    assert sizes == [2]
    for (data, cfg), pred in zip(jobs, stacked):
        assert np.array_equal(pred.parameters, reference_train(data, cfg))


@pytest.mark.parametrize("m", CLASSES)
def test_loss_and_grad_matches_reference_around_the_class_fold(m):
    data = tiny_dataset(seed=m, n=45, m=m, d=9)
    layout = init_predictor(config("mlp"), m, 9)
    noise = np.random.default_rng(m).normal(scale=0.5, size=layout.parameters.size)
    params = layout.parameters + noise
    total, ce, grad = loss_and_grad(layout, params, data.features, data.labels, 0.7)
    ref_total, ref_ce, ref_grad = reference_loss_and_grad(layout, params, data.features,
                                                          data.labels, 0.7)
    assert (total, ce) == (ref_total, ref_ce)
    assert np.array_equal(grad, ref_grad)


def test_consecutive_loss_and_grad_calls_return_independent_gradients():
    data = tiny_dataset(seed=3, n=64, m=3, d=4)
    layout = init_predictor(config("mlp"), 3, 4)
    first = loss_and_grad(layout, layout.parameters, data.features, data.labels, 1.0)[2]
    kept = first.copy()
    second = loss_and_grad(layout, -layout.parameters, data.features[::-1], data.labels, 0.0)[2]
    assert np.array_equal(first, kept)
    assert not np.array_equal(first, second)


def test_a_reused_workspace_gives_what_fresh_calls_give():
    """One workspace across batch shapes, a moved params array and a shrunk
    stack: every call matches loss_and_grad on the same arguments."""
    data = tiny_dataset(seed=4, n=80, m=3, d=4)
    layout = init_predictor(config("mlp"), 3, 4)
    rng = np.random.default_rng(0)
    stack = layout.parameters + rng.normal(scale=0.3, size=(3, layout.parameters.size))
    zeta = np.array([1.0, 0.0, 0.4])
    step = predictor.StepWorkspace(layout)
    calls = [
        (stack, data.features[None, :64], data.labels[None, :64], zeta),
        (stack, data.features[None, 64:], data.labels[None, 64:], zeta),  # a short last batch
        (stack.copy(), data.features[None, :64], data.labels[None, :64], zeta),  # moved params
        (stack[:2].copy(), data.features[None, 16:], data.labels[None, 16:], zeta[:2]),  # shrunk
        (stack[1], data.features[:64], data.labels[:64], 0.4),  # one model
    ]
    grads = []
    for params, x, y, z in calls:
        total, ce, grad = step(params, x, y, z)
        want = loss_and_grad(layout, params, x, y, z)
        assert np.array_equal(total, want[0]) and np.array_equal(ce, want[1])
        assert np.array_equal(grad, want[2])
        grads.append(grad)
    # One gradient buffer per stack, whatever the batch shape or params array.
    assert grads[0] is grads[1] is grads[2] and grads[3] is not grads[2]


def first_nonfinite_step(train, cfg):
    """(epoch, step in epoch) of the first non-finite loss when one model trains
    on the reference step and checks the loss after every step, or None."""
    layout = SimpleNamespace(architecture=cfg.architecture, m=train.m, d=train.d,
                             hidden_units=cfg.hidden_units)
    params = reference_init(cfg, train.m, train.d)
    order_rng = stream(cfg.seed, 0x2)
    for epoch in range(cfg.max_epochs):
        order = order_rng.permutation(train.n)
        for k, start in enumerate(range(0, train.n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            total, _, grad = reference_loss_and_grad(layout, params, train.features[idx],
                                                     train.labels[idx], cfg.zeta)
            if not np.isfinite(total):
                return epoch, k
            params -= cfg.learning_rate * grad
    return None


@pytest.mark.parametrize("zeta", [0.0, 1.0])
def test_divergence_mid_epoch_names_the_epoch_of_the_first_bad_step(zeta):
    # A huge learning rate grows the two layers' weights each step until the
    # logits overflow a few epochs in, partway through an epoch.
    train = tiny_dataset(seed=17, n=200, m=2, d=2)  # 7 steps per epoch
    cfg = config("mlp", hidden_units=8, learning_rate=1e6, max_epochs=8, zeta=zeta, seed=18)
    twin = replace(cfg, seed=2, zeta=1.0 - zeta)
    with np.errstate(over="ignore", invalid="ignore"):
        epoch, step = first_nonfinite_step(train, cfg)
        assert epoch > 0 and step > 0
        with pytest.raises(RuntimeError, match=f"diverged at epoch {epoch}$"):
            train_predictor(train, cfg)
        # A stack stops at the first member that goes non-finite.
        first = min(first_nonfinite_step(train, c) or (cfg.max_epochs, 0) for c in (cfg, twin))
        assert first[0] > 0 and first[1] > 0
        with pytest.raises(RuntimeError, match=f"diverged at epoch {first[0]}$"):
            train_predictors([(train, cfg), (train, twin)])
