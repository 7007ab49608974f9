import math

import numpy as np
import pytest
from dataclasses import replace

from labelshift import (
    GaussianMixtureSpec,
    LabeledDataset,
    Predictor,
    PredictorConfig,
    entropy_penalty,
    equidistant_means,
    gen_gaussian_mixture,
    init_predictor,
    loss_and_grad,
    posterior_matrix,
    predict_labels,
    predict_proba,
    train_predictor,
    uniform_marginal,
)

from .helpers import central_diff, marginal, rel_err, tiny_dataset, tiny_mixture

LINEAR = PredictorConfig(architecture="linear", seed=0)


def mean_entropy(pred, features) -> float:
    rows = predict_proba(pred, features).rows
    return float(-(rows * np.log(rows)).sum(axis=1).mean())


# ------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError, match="unknown architecture"):
        PredictorConfig(architecture="cnn")
    with pytest.raises(ValueError, match="learning_rate"):
        PredictorConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="zeta"):
        PredictorConfig(zeta=-0.1)
    with pytest.raises(ValueError, match="batch_size"):
        PredictorConfig(batch_size=0)


def test_predictor_rejects_wrong_parameter_count():
    with pytest.raises(ValueError, match="expected 8 parameters"):
        Predictor(np.zeros(5), "linear", 0, 2, 3)


def test_init_respects_fan_in_bounds():
    pred = init_predictor(PredictorConfig(architecture="mlp", hidden_units=16, seed=1), 3, 9)
    w1 = pred.parameters[: 9 * 16]
    assert np.all(np.abs(w1) <= 1.0 / 3.0)
    again = init_predictor(PredictorConfig(architecture="mlp", hidden_units=16, seed=1), 3, 9)
    assert np.array_equal(pred.parameters, again.parameters)


# ------------------------------------------------------------------ penalty


def test_penalty_uniform_ten_classes():
    assert entropy_penalty(np.full(10, 0.1)) == pytest.approx(-math.log(10), abs=1e-9)


def test_penalty_two_point_uniform():
    assert entropy_penalty(np.array([0.5, 0.5])) == pytest.approx(-math.log(2), abs=1e-9)


def test_penalty_one_hot_is_zero():
    assert entropy_penalty(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-9)


def test_penalty_never_positive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        assert entropy_penalty(p) <= 1e-12


# --------------------------------------------------------------------- loss


@pytest.mark.parametrize("zeta", [0.0, 0.5, 1.0, 5.0])
def test_loss_is_cross_entropy_plus_zeta_times_penalty(zeta):
    # oracle from the predicted probabilities, not from the loss code
    data = tiny_dataset(seed=2)
    pred = init_predictor(replace(LINEAR, seed=3), 3, 2)
    rows = predict_proba(pred, data.features).rows
    ce = float(-np.log(rows[np.arange(data.n), data.labels]).mean())
    pen = float(np.sum(rows * np.log(rows), axis=1).mean())
    total, _, _ = loss_and_grad(pred, pred.parameters, data.features, data.labels, zeta)
    assert total == pytest.approx(ce + zeta * pen, abs=1e-9)


def test_loss_cancels_at_uniform_output():
    # zero weights -> uniform rows -> CE = log m exactly offsets the penalty
    data = tiny_dataset(seed=4)
    pred = Predictor(np.zeros(3 * 2 + 3), "linear", 0, 3, 2)
    x, y = data.features, data.labels
    assert loss_and_grad(pred, pred.parameters, x, y, 1.0)[0] == pytest.approx(0.0, abs=1e-9)
    assert loss_and_grad(pred, pred.parameters, x, y, 0.0)[0] == pytest.approx(
        math.log(3), abs=1e-9
    )


@pytest.mark.parametrize("arch,hidden", [("linear", 0), ("mlp", 6)])
@pytest.mark.parametrize("zeta", [0.0, 0.5, 1.0, 5.0])
def test_loss_gradient_matches_central_differences(arch, hidden, zeta):
    data = tiny_dataset(seed=5, n=8)
    cfg = PredictorConfig(architecture=arch, hidden_units=max(hidden, 1), seed=6)
    pred = init_predictor(cfg, 3, 2)

    def f(theta):
        return loss_and_grad(pred, theta, data.features, data.labels, zeta)[0]

    analytic = loss_and_grad(pred, pred.parameters, data.features, data.labels, zeta)[2]
    numeric = central_diff(f, pred.parameters)
    assert rel_err(analytic, numeric) < 1e-4


def test_loss_rejects_feature_dimension_mismatch():
    pred = init_predictor(LINEAR, 3, 2)
    with pytest.raises(ValueError, match="feature dimension"):
        loss_and_grad(pred, pred.parameters, np.zeros((4, 3)), np.zeros(4, dtype=int))


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float32])
def test_loss_rejects_features_that_are_not_float64(dtype):
    pred = init_predictor(LINEAR, 3, 2)
    x = np.full((4, 2), 200).astype(dtype)  # 0-255 pixels must be read as value / 255.0 first
    with pytest.raises(TypeError, match=f"features must be float64, got {np.dtype(dtype)}"):
        loss_and_grad(pred, pred.parameters, x, np.zeros(4, dtype=int))


def test_weighted_mean_loss_all_ones_identity():
    data = tiny_dataset(seed=7, n=40)
    pred = init_predictor(replace(LINEAR, seed=8), 3, 2)
    x, y = data.features, data.labels
    plain = loss_and_grad(pred, pred.parameters, x, y, 0.0)[0]
    weighted = loss_and_grad(pred, pred.parameters, x, y, 0.0, weights=np.ones(data.n))[0]
    assert weighted == plain


# ----------------------------------------------------------------- training


def test_training_fits_separable_data():
    mix = GaussianMixtureSpec(equidistant_means(2, 1, 8.0), 1.0)
    data = gen_gaussian_mixture(mix, marginal(0.5, 0.5), 400, seed=9)
    cfg = replace(LINEAR, max_epochs=200, loss_threshold=0.0, zeta=0.0, seed=10)
    pred = train_predictor(data, cfg)
    acc = float((predict_proba(pred, data.features).rows.argmax(axis=1) == data.labels).mean())
    assert acc >= 0.99


def test_stronger_penalty_raises_prediction_entropy():
    data = tiny_dataset(seed=11, n=400)
    base = replace(LINEAR, max_epochs=40, loss_threshold=0.0, seed=12)
    h0 = mean_entropy(train_predictor(data, replace(base, zeta=0.0)), data.features)
    h10 = mean_entropy(train_predictor(data, replace(base, zeta=10.0)), data.features)
    assert h10 > h0


def test_entropy_monotone_in_zeta_majority_of_seeds():
    wins = 0
    for seed in (0, 1, 2):
        data = tiny_dataset(seed=20 + seed, n=300)
        base = replace(LINEAR, max_epochs=30, loss_threshold=0.0, seed=seed)
        hs = [
            mean_entropy(train_predictor(data, replace(base, zeta=z)), data.features)
            for z in (0.0, 1.0, 10.0)
        ]
        wins += hs[0] <= hs[1] <= hs[2]
    assert wins >= 2


def test_zero_epochs_returns_initialization():
    data = tiny_dataset(seed=13)
    cfg = replace(LINEAR, max_epochs=0, seed=14)
    assert np.array_equal(train_predictor(data, cfg).parameters,
                          init_predictor(cfg, 3, 2).parameters)


def test_training_deterministic():
    data = tiny_dataset(seed=15, n=256)
    cfg = replace(LINEAR, max_epochs=12, seed=16)
    a = train_predictor(data, cfg)
    b = train_predictor(data, cfg)
    assert np.array_equal(a.parameters, b.parameters)


def test_training_reports_divergence_epoch():
    data = tiny_dataset(seed=17, n=200, m=2, d=2)
    cfg = PredictorConfig(architecture="mlp", hidden_units=8, learning_rate=1e160,
                          max_epochs=5, loss_threshold=0.0, zeta=0.0, seed=18)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="diverged at epoch 0"):
            train_predictor(data, cfg)


def test_early_stop_watches_cross_entropy_only():
    # with a lenient threshold the regularized run stops before max_epochs
    mix = GaussianMixtureSpec(equidistant_means(2, 1, 8.0), 1.0)
    data = gen_gaussian_mixture(mix, marginal(0.5, 0.5), 400, seed=30)
    stopped = train_predictor(data, replace(LINEAR, max_epochs=500, loss_threshold=0.3,
                                            zeta=1.0, seed=31))
    ran_out = train_predictor(data, replace(LINEAR, max_epochs=500, loss_threshold=0.0,
                                            zeta=1.0, seed=31))
    assert not np.array_equal(stopped.parameters, ran_out.parameters)
    ce = loss_and_grad(stopped, stopped.parameters, data.features, data.labels, 0.0)[0]
    assert ce < 0.35  # near the threshold, far from convergence


# --------------------------------------------------------------- prediction


def test_zero_weights_predict_uniform():
    pred = Predictor(np.zeros(4 * 3 + 4), "linear", 0, 4, 3)
    rows = predict_proba(pred, np.random.default_rng(0).normal(size=(6, 3))).rows
    assert np.allclose(rows, 0.25, atol=1e-12)


def test_prediction_rows_sum_to_one():
    pred = init_predictor(PredictorConfig(architecture="mlp", hidden_units=5, seed=19), 3, 4)
    rows = predict_proba(pred, np.random.default_rng(1).normal(size=(50, 4))).rows
    assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-6)


def test_prediction_rejects_dimension_mismatch():
    pred = init_predictor(LINEAR, 3, 2)
    with pytest.raises(ValueError, match="matching the predictor"):
        predict_proba(pred, np.zeros((4, 5)))


def test_predict_labels_is_the_argmax_of_the_logits():
    data = tiny_dataset(seed=4, n=200)
    pred = train_predictor(data, replace(LINEAR, max_epochs=5))
    labels = predict_labels(pred, data.features)
    assert np.array_equal(labels, predict_proba(pred, data.features).rows.argmax(axis=1))
    with pytest.raises(ValueError, match="matching the predictor"):
        predict_labels(pred, np.zeros((4, 5)))
    # near tie: the logits are [0, 1e-17], whose probabilities both round to 0.5;
    # the strictly larger logit wins
    near_tie = Predictor(np.array([0.0, 0.0, 0.0, 1e-17]), "linear", 0, 2, 1)
    x = np.zeros((1, 1))
    assert np.array_equal(predict_proba(near_tie, x).rows, [[0.5, 0.5]])
    assert predict_labels(near_tie, x).tolist() == [1]


def test_logit_shift_invariance():
    pred = init_predictor(replace(LINEAR, seed=21), 3, 2)
    shifted_params = pred.parameters.copy()
    shifted_params[2 * 3 :] += 7.5  # constant added to every class bias
    shifted = replace(pred, parameters=shifted_params)
    x = np.random.default_rng(2).normal(size=(10, 2))
    assert np.all(np.abs(predict_proba(pred, x).rows - predict_proba(shifted, x).rows) <= 1e-9)


def test_trained_predictor_tracks_true_posterior():
    mix = tiny_mixture(m=3, d=2, separation=3.0)
    train = gen_gaussian_mixture(mix, uniform_marginal(3), 20_000, seed=22)
    cfg = replace(LINEAR, max_epochs=30, loss_threshold=0.0, zeta=0.0, seed=23)
    pred = train_predictor(train, cfg)
    probe = gen_gaussian_mixture(mix, uniform_marginal(3), 2000, seed=24)
    learned = predict_proba(pred, probe.features).rows
    oracle = posterior_matrix(mix, uniform_marginal(3), probe.features)
    mean_l1 = float(np.abs(learned - oracle).sum(axis=1).mean())
    assert mean_l1 < 0.1

