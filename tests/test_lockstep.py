"""Lockstep training: a stack of same-shape models gives every member the
bits it gets when trained alone, for predictors (train_predictors) and for
the shared federated model under several weightings (train_global)."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from labelshift import (
    DataSource,
    FederationConfig,
    LabeledDataset,
    NodeSpec,
    PredictorConfig,
    ServerOptimizer,
    build_federation,
    train_global,
    train_predictor,
    train_predictors,
    weight_vectors,
)
from labelshift import predictor
from labelshift.predictor import _relu_grad

from .helpers import marginal, reference_train, tiny_dataset

MLP = PredictorConfig(hidden_units=16, learning_rate=0.1, batch_size=32, max_epochs=15,
                      loss_threshold=0.0, zeta=1.0, seed=3)
DATA = tiny_dataset(seed=1, n=300, m=3, d=4, separation=2.0)  # 300 = 9 batches + 12
OTHER = tiny_dataset(seed=2, n=300, m=3, d=4, separation=1.0)


def stacks_of(monkeypatch):
    """Records the size of every stack that train_predictors trains."""
    sizes = []
    original = predictor._train_stack

    def recorded(jobs):
        sizes.append(len(jobs))
        return original(jobs)

    monkeypatch.setattr(predictor, "_train_stack", recorded)
    return sizes


def assert_lockstep_matches_one_by_one(jobs):
    stacked = train_predictors(jobs)
    assert len(stacked) == len(jobs)
    for (train, cfg), pred in zip(jobs, stacked):
        alone = train_predictor(train, cfg)
        assert np.array_equal(pred.parameters, alone.parameters)
        assert np.array_equal(pred.parameters, reference_train(train, cfg))


def epochs_run(monkeypatch, train, cfg):
    """Epochs that train_predictor runs for one job, from its SGD steps."""
    steps = []
    original = predictor.StepWorkspace.__call__
    monkeypatch.setattr(predictor.StepWorkspace, "__call__",
                        lambda *a: steps.append(1) or original(*a))
    train_predictor(train, cfg)
    monkeypatch.setattr(predictor.StepWorkspace, "__call__", original)
    return len(steps) / -(-train.n // cfg.batch_size)


@pytest.mark.parametrize("hidden_units", [0, 16], ids=["linear", "mlp"])
def test_members_that_stop_at_different_epochs(monkeypatch, hidden_units):
    base = replace(MLP, hidden_units=hidden_units, max_epochs=60)
    jobs = [(DATA, replace(base, seed=s, loss_threshold=t))
            for s, t in zip((3, 4, 5), (0.0, 0.8, 0.9))]
    epochs = [epochs_run(monkeypatch, train, cfg) for train, cfg in jobs]
    assert epochs[0] == 60 and len(set(epochs)) == 3
    sizes = stacks_of(monkeypatch)
    assert_lockstep_matches_one_by_one(jobs)
    assert sizes[0] == 3


def test_zeta_beside_its_zeta_zero_twin_on_one_batch_order(monkeypatch):
    sizes = stacks_of(monkeypatch)
    assert_lockstep_matches_one_by_one([(DATA, MLP), (DATA, replace(MLP, zeta=0.0))])
    assert sizes[0] == 2


def test_different_data_per_member(monkeypatch):
    third = tiny_dataset(seed=3, n=300, m=3, d=4, separation=3.0)
    sizes = stacks_of(monkeypatch)
    assert_lockstep_matches_one_by_one(
        [(DATA, MLP), (OTHER, replace(MLP, seed=4)), (third, replace(MLP, zeta=0.0))]
    )
    assert sizes[0] == 3


def test_jobs_that_differ_in_shape_or_schedule_fall_back_to_separate_stacks(monkeypatch):
    small = tiny_dataset(seed=4, n=200, m=3, d=4)
    wide = tiny_dataset(seed=5, n=300, m=3, d=5)
    jobs = [
        (DATA, MLP),
        (small, MLP),  # other n
        (OTHER, replace(MLP, seed=8)),
        (wide, MLP),  # other d
        (DATA, replace(MLP, batch_size=64)),
        (DATA, replace(MLP, learning_rate=0.05)),
        (small, replace(MLP, zeta=0.0)),
    ]
    sizes = stacks_of(monkeypatch)
    assert_lockstep_matches_one_by_one(jobs)
    assert sizes[:5] == [2, 2, 1, 1, 1]


def test_zero_epochs_returns_each_initialization():
    jobs = [(DATA, replace(MLP, max_epochs=0, seed=s)) for s in (1, 2)]
    stacked = train_predictors(jobs)
    for (train, cfg), pred in zip(jobs, stacked):
        assert np.array_equal(pred.parameters, predictor.init_predictor(cfg, 3, 4).parameters)


def test_a_group_indexes_a_shared_training_set_without_copying_it():
    rng = np.random.default_rng(0)
    train = LabeledDataset(rng.random((1000, 784)), rng.integers(0, 10, 1000), 10)
    cfg = PredictorConfig(hidden_units=16, batch_size=64, max_epochs=2,
                          loss_threshold=0.0, seed=1)
    tracemalloc.start()
    try:
        train_predictors([(train, cfg), (train, replace(cfg, seed=2, zeta=0.0))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < train.features.nbytes


def test_relu_grad_matches_np_where_bit_for_bit():
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-300, 2.5, -2.5])
    a, g = (x.reshape(-1, 9) for x in np.meshgrid(specials, specials))
    a = np.concatenate([a, np.random.default_rng(0).normal(size=(40, 9))])
    g = np.concatenate([g, np.random.default_rng(1).normal(size=(40, 9))])
    # 2-D and stacked (S, b, w) cases, each run twice; every shape keeps one mask buffer.
    stacked = [(a, g), (g, a), (a.reshape(3, 49, 3), g.reshape(3, 49, 3))]
    masks = {}
    for a, g in stacked + stacked:
        expected = np.where(a <= 0, 0.0, g)
        le = masks.setdefault(a.shape, np.empty(a.shape, dtype=bool))
        out = _relu_grad(a.copy(), g.copy(), le)
        assert np.array_equal(out.view(np.int64), expected.view(np.int64))
    assert len(masks) == 2


# ---------------------------------------------------------- train_global


def federation(**kw):
    nodes = (NodeSpec(marginal(0.7, 0.2, 0.1), marginal(0.1, 0.2, 0.7), 150, 90, seed=1),
             NodeSpec(marginal(0.2, 0.6, 0.2), marginal(0.1, 0.2, 0.7), 110, 70, seed=2),
             NodeSpec(marginal(0.3, 0.3, 0.4), marginal(0.1, 0.2, 0.7), 130, 60, seed=3))
    kw = {"global_model": PredictorConfig(), **kw}
    cfg = FederationConfig(nodes=nodes, rounds=12, **kw)
    return build_federation(cfg, DataSource(m=3, d=2, separation=2.0), 4), cfg


def assert_same_result(a, b):
    assert np.array_equal(a.predictor.parameters, b.predictor.parameters)
    assert a.per_node_accuracy == b.per_node_accuracy
    assert a.avg_accuracy == b.avg_accuracy
    assert np.array_equal(a.node_weights, b.node_weights)
    assert a.loss_trace == b.loss_trace
    assert a.accuracy_trace == b.accuracy_trace


@pytest.mark.parametrize(
    "options",
    [
        {},
        {"local_steps": 3},
        {"sample_nodes_per_round": 2},
        {"server_optimizer": ServerOptimizer(kind="sgd", learning_rate=0.5)},
        {"global_model": PredictorConfig(hidden_units=8), "local_steps": 2,
         "sample_nodes_per_round": 1},
    ],
    ids=["default", "local-steps", "node-sampling", "sgd", "mlp"],
)
def test_train_global_stack_matches_separate_calls(options):
    fed, cfg = federation(**options)
    weights = [np.ones((3, 3)), weight_vectors(fed, "true_ratios"),
               np.random.default_rng(5).uniform(0.0, 4.0, size=(3, 3))]
    stacked = train_global(fed, weights, cfg)
    assert len(stacked) == 3
    for w, result in zip(weights, stacked):
        (alone,) = train_global(fed, [w], cfg)
        assert_same_result(result, alone)
    assert len(set(r.loss_trace for r in stacked)) == 3


def test_train_global_keeps_its_errors_for_any_matrix_in_the_sequence():
    fed, cfg = federation()
    ok = np.ones((3, 3))
    with pytest.raises(ValueError, match=r"weights must have shape \(3, 3\)"):
        train_global(fed, [ok, np.ones((3, 2))], cfg)
    with pytest.raises(ValueError, match=r"weights must have shape \(3, 3\)"):
        train_global(fed, [ok, np.ones(3)], cfg)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        train_global(fed, [ok, np.full((3, 3), np.nan)], cfg)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        train_global(fed, [-ok], cfg)
    assert train_global(fed, [], cfg) == ()
