import math

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from labelshift import (
    EstimatorOptions,
    PredictorConfig,
    ProbabilityMatrix,
    confusion_matrix,
    estimate_bbse,
    estimate_mlls_em,
    estimate_rlls,
    estimate_vrls,
    gen_gaussian_mixture,
    predict_proba,
    ratio_from_marginals,
    ratio_mse,
    sample_dirichlet_marginal,
    train_predictor,
    uniform_marginal,
)
from labelshift._rng import child_seed, stream
from labelshift.estimators import empirical_objective, empirical_objective_gradient

from .helpers import (
    assert_feasible,
    central_diff,
    grid_oracle_m2,
    marginal,
    random_marginal,
    random_preds,
    rel_err,
    shifted_posteriors,
    tight_em,
    tiny_mixture,
)

HALF = marginal(0.5, 0.5)
THREE_ROWS = ProbabilityMatrix(np.array([[0.8, 0.2], [0.8, 0.2], [0.2, 0.8]]))
TWO_ROWS = ProbabilityMatrix(np.array([[0.8, 0.2], [0.2, 0.8]]))

prop = settings(max_examples=30, derandomize=True, deadline=None)


def feasible_ratio(rng, tr):
    q = rng.dirichlet(np.ones(tr.m))
    return q / tr.probs


# ---------------------------------------------------------------- objective


def test_objective_zero_at_all_ones():
    # rows with exact float sums so row . 1 is exactly 1
    r = ratio_from_marginals(HALF, HALF)
    assert empirical_objective(r, TWO_ROWS) == 0.0


def test_objective_hand_values():
    val = empirical_objective(np.array([1.2, 0.8]), TWO_ROWS)
    assert val == pytest.approx((math.log(1.12) + math.log(0.88)) / 2, abs=1e-12)
    # likelihoods 0.92 and 0.68 arise from the vector (1.0, 0.6)
    val = empirical_objective(np.array([1.0, 0.6]), TWO_ROWS)
    assert val == pytest.approx((math.log(0.92) + math.log(0.68)) / 2, abs=1e-12)


def test_objective_row_permutation_invariant():
    rng = np.random.default_rng(1)
    preds = random_preds(rng, 40, m=3)
    shuffled = ProbabilityMatrix(preds.rows[rng.permutation(40)])
    r = feasible_ratio(rng, uniform_marginal(3))
    assert empirical_objective(r, preds) == pytest.approx(
        empirical_objective(r, shuffled), abs=1e-12)


@prop
@given(seed=st.integers(0, 10_000), m=st.integers(2, 5))
def test_objective_gradient_matches_central_differences(seed, m):
    rng = np.random.default_rng(seed)
    preds = random_preds(rng, 30, m=m)
    r = feasible_ratio(rng, random_marginal(rng, m))
    analytic = empirical_objective_gradient(r, preds)
    numeric = central_diff(lambda v: empirical_objective(v, preds), r)
    assert rel_err(analytic, numeric) < 1e-5


# ----------------------------------------------------------------------- em


def test_em_fixed_point_at_no_shift():
    rows = np.tile(HALF.probs, (10, 1))
    report = estimate_mlls_em(ProbabilityMatrix(rows), HALF)
    assert np.allclose(report.ratio.ratios, 1.0, atol=1e-12)
    assert report.iterations_used == 1
    assert report.converged


def test_em_matches_grid_oracle_on_asymmetric_instance():
    report = estimate_mlls_em(THREE_ROWS, HALF)
    oracle, _ = grid_oracle_m2(THREE_ROWS, HALF)
    assert np.allclose(oracle, [1.5556, 0.4444], atol=1e-3)
    assert np.max(np.abs(report.ratio.ratios - oracle)) < 1e-3


def test_em_symmetric_instance_returns_ones():
    report = estimate_mlls_em(TWO_ROWS, HALF)
    assert np.allclose(report.ratio.ratios, 1.0, atol=1e-9)


def test_em_trace_starts_at_initial_objective():
    report = estimate_mlls_em(THREE_ROWS, HALF)
    assert report.objective_trace[0] == pytest.approx(0.0, abs=1e-12)
    assert report.final_objective == report.objective_trace[-1]


@prop
@given(seed=st.integers(0, 10_000), m=st.integers(2, 5))
def test_em_objective_monotone_and_feasible(seed, m):
    rng = np.random.default_rng(seed)
    preds = random_preds(rng, 60, m=m)
    tr = random_marginal(rng, m)
    report = estimate_mlls_em(preds, tr)
    trace = np.asarray(report.objective_trace)
    assert np.all(np.diff(trace) >= -1e-12)
    assert_feasible(report.ratio, tr)
    assert report.iterations_used <= 1000


def test_em_reports_zero_ratio_for_empty_train_class():
    preds = ProbabilityMatrix.from_rows(np.array([[0.7, 0.3, 0.0], [0.4, 0.6, 0.0]]))
    tr = marginal(0.5, 0.5, 0.0)
    report = estimate_mlls_em(preds, tr)
    assert report.ratio.ratios[2] == 0.0
    assert_feasible(report.ratio, tr)


# ----------------------------------------------------------- em at the edges

EDGES = {
    "many_classes": lambda rng: shifted_posteriors(rng, int(rng.integers(20, 101)), 1000, 7.0),
    "tiny_train_mass": lambda rng: shifted_posteriors(
        rng, int(rng.integers(3, 9)), 400, 3.0, tiny=int(rng.integers(1, 3))),
    "near_one_hot": lambda rng: shifted_posteriors(rng, int(rng.integers(2, 9)), 400, 40.0),
    "near_uniform": lambda rng: shifted_posteriors(
        rng, int(rng.integers(2, 9)), 400, float(rng.uniform(0.0, 0.3)), flat_prior=True),
}

# The flat instance of test_em_matches_reference, where plain EM contracts slowly.
FLAT = (random_preds(np.random.default_rng(1), 400, m=4, conc=20.0), marginal(*[0.25] * 4))


def assert_em_invariants(report, tr, max_iters):
    assert_feasible(report.ratio, tr)  # nonnegative too
    trace = np.asarray(report.objective_trace)
    assert np.all(np.diff(trace) >= -1e-12)
    assert trace[-1] == report.final_objective
    assert 1 <= report.iterations_used <= max_iters


@prop
@given(kind=st.sampled_from(sorted(EDGES)), seed=st.integers(0, 10_000))
def test_em_invariants_hold_at_the_edges(kind, seed):
    preds, tr = EDGES[kind](np.random.default_rng(seed))
    report = estimate_mlls_em(preds, tr)
    assert_em_invariants(report, tr, 1000)
    if report.converged:
        assert np.max(np.abs(report.ratio.ratios - tight_em(preds, tr))) <= 1e-6


@pytest.mark.parametrize("seed", [3, 9, 24])
def test_em_trace_monotone_through_long_extrapolations(seed):
    # 80 classes and diffuse rows: many classes head to zero, and the
    # extrapolation steps get long enough for rounding to move sum(r t) off 1.
    rng = np.random.default_rng(seed)
    tr = marginal(*rng.dirichlet(np.full(80, 5.0)))
    report = estimate_mlls_em(random_preds(rng, 400, m=80, conc=1.5), tr)
    assert_em_invariants(report, tr, 1000)


@pytest.mark.parametrize("max_iters", range(1, 26))
@pytest.mark.parametrize("kind", sorted(EDGES))
def test_em_stops_exactly_at_every_budget(kind, max_iters):
    preds, tr = EDGES[kind](np.random.default_rng(max_iters))
    # No distance is certified below the rounding of r, so tol 1e-300 is never met.
    report = estimate_mlls_em(preds, tr, EstimatorOptions(max_iters=max_iters, tol=1e-300))
    assert report.iterations_used == max_iters
    assert report.converged is False
    assert_em_invariants(report, tr, max_iters)


@prop
@given(seed=st.integers(0, 10_000), m=st.integers(2, 8), conc=st.floats(1.0, 20.0),
       tol=st.sampled_from([1e-3, 1e-6, 1e-9]))
def test_em_converged_means_within_tol_of_the_optimum(seed, m, conc, tol):
    rng = np.random.default_rng(seed)
    preds = random_preds(rng, 200, m=m, conc=conc)
    tr = random_marginal(rng, m)
    report = estimate_mlls_em(preds, tr, EstimatorOptions(tol=tol))
    if report.converged:
        assert np.max(np.abs(report.ratio.ratios - tight_em(preds, tr))) <= tol


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
def test_em_converges_within_tol_on_flat_posteriors(tol):
    report = estimate_mlls_em(*FLAT, EstimatorOptions(tol=tol))
    assert report.converged
    assert np.max(np.abs(report.ratio.ratios - tight_em(*FLAT))) <= tol


def test_report_serializes_to_json_types():
    import json

    report = estimate_mlls_em(THREE_ROWS, HALF)
    payload = report.to_dict()
    json.dumps(payload)  # everything plain
    assert payload["converged"] is True
    assert payload["ratio"] == list(report.ratio.ratios)


# --------------------------------------------------------------------- bbse


def diagonal_instance():
    """Perfectly separable holdout plus a 30/70 test split."""
    preds_val = ProbabilityMatrix.from_rows(
        np.array([[1.0, 0.0]] * 5 + [[0.0, 1.0]] * 5))
    labels_val = np.array([0] * 5 + [1] * 5)
    preds_te = ProbabilityMatrix.from_rows(
        np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 7))
    return preds_val, labels_val, preds_te


def test_bbse_diagonal_closed_form():
    preds_val, labels_val, preds_te = diagonal_instance()
    report = estimate_bbse(confusion_matrix(preds_val, labels_val), preds_te, HALF)
    assert np.allclose(report.ratio.ratios, [0.6, 1.4], atol=1e-9)


def test_bbse_identity_when_test_matches_holdout():
    preds_val, labels_val, _ = diagonal_instance()
    preds_te = ProbabilityMatrix.from_rows(
        np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 4))
    report = estimate_bbse(confusion_matrix(preds_val, labels_val), preds_te, HALF)
    assert np.allclose(report.ratio.ratios, 1.0, atol=1e-9)


def test_bbse_rejects_never_predicted_class():
    preds_val = ProbabilityMatrix.from_rows(np.array([[1.0, 0.0]] * 6))
    labels_val = np.array([0, 0, 0, 1, 1, 1])
    _, _, preds_te = diagonal_instance()
    with pytest.raises(ValueError, match="ill-conditioned confusion matrix"):
        estimate_bbse(confusion_matrix(preds_val, labels_val), preds_te, HALF)


def test_rlls_zero_lambda_matches_bbse():
    preds_val, labels_val, preds_te = diagonal_instance()
    a = confusion_matrix(preds_val, labels_val)
    bbse = estimate_bbse(a, preds_te, HALF)
    rlls = estimate_rlls(a, preds_te, HALF, 0.0)
    assert np.max(np.abs(bbse.ratio.ratios - rlls.ratio.ratios)) < 1e-9


def test_rlls_huge_lambda_returns_ones():
    preds_val, labels_val, preds_te = diagonal_instance()
    report = estimate_rlls(confusion_matrix(preds_val, labels_val), preds_te, HALF, 1e9)
    assert np.max(np.abs(report.ratio.ratios - 1.0)) < 1e-3


@pytest.mark.parametrize("lam", [0.0, 0.5, 100.0])
def test_rlls_no_shift_any_lambda(lam):
    preds_val, labels_val, _ = diagonal_instance()
    preds_te = ProbabilityMatrix.from_rows(
        np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 4))
    report = estimate_rlls(confusion_matrix(preds_val, labels_val), preds_te, HALF, lam)
    assert np.allclose(report.ratio.ratios, 1.0, atol=1e-9)


def test_rlls_rejects_negative_lambda():
    preds_val, labels_val, preds_te = diagonal_instance()
    with pytest.raises(ValueError, match="lam must be nonnegative"):
        estimate_rlls(confusion_matrix(preds_val, labels_val), preds_te, HALF, -1.0)


THREE_COLUMNS = ProbabilityMatrix.from_rows(np.full((4, 3), 1.0 / 3.0))


@pytest.mark.parametrize(
    "call, message",
    [(lambda p, y, te: confusion_matrix(p, y[:-1]), "labels_val must be one per validation row"),
     (lambda p, y, te: confusion_matrix(p, np.where(y == 1, 2, y)), r"labels must lie in \[0, 2\)"),
     (lambda p, y, te: confusion_matrix(p, y - 1), r"labels must lie in \[0, 2\)"),
     (lambda p, y, te: estimate_bbse(confusion_matrix(p, y), THREE_COLUMNS, HALF),
      "prediction columns do not match the marginal"),
     (lambda p, y, te: estimate_rlls(confusion_matrix(p, y), THREE_COLUMNS, HALF),
      "prediction columns do not match the marginal"),
     (lambda p, y, te: estimate_bbse(np.eye(3), te, HALF), r"confusion matrix must be 2 x 2"),
     (lambda p, y, te: estimate_rlls(np.eye(2)[:1], te, HALF), r"confusion matrix must be 2 x 2")],
    ids=["label_count", "label_too_big", "label_negative", "bbse_columns", "rlls_columns",
         "bbse_shape", "rlls_shape"],
)
def test_moment_matchers_check_their_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call(*diagonal_instance())


# --------------------------------------------------------------------- vrls


MIX5 = tiny_mixture(m=3, d=2, separation=3.0)
PCFG5 = PredictorConfig(hidden_units=32, learning_rate=0.1,
                        max_epochs=120, loss_threshold=0.05, zeta=0.25,
                        seed=child_seed(5, 9))


def train_features_5():
    return gen_gaussian_mixture(MIX5, uniform_marginal(3), 8000, seed=child_seed(5, 0))


def test_vrls_recovers_dirichlet_shift():
    train = train_features_5()
    marg = sample_dirichlet_marginal(1.0, 3, seed=child_seed(5, 1))
    test = gen_gaussian_mixture(MIX5, marg, 5000, seed=child_seed(5, 2))
    report = estimate_vrls(train, test.features, PCFG5, EstimatorOptions())
    truth = ratio_from_marginals(marg, uniform_marginal(3))
    assert ratio_mse(report.ratio.ratios, truth.ratios) < 0.05


def test_vrls_near_ones_without_shift():
    train = train_features_5()
    test = gen_gaussian_mixture(MIX5, uniform_marginal(3), 5000, seed=child_seed(5, 3))
    report = estimate_vrls(train, test.features, PCFG5, EstimatorOptions())
    assert np.max(np.abs(report.ratio.ratios - 1.0)) < 0.05


def test_vrls_zeta_zero_is_plain_mlls_composition():
    train = gen_gaussian_mixture(MIX5, uniform_marginal(3), 1000, seed=child_seed(5, 4))
    test = gen_gaussian_mixture(MIX5, uniform_marginal(3), 500, seed=child_seed(5, 5))
    pcfg = replace(PCFG5, zeta=0.0, max_epochs=20)
    composed = estimate_vrls(train, test.features, pcfg, EstimatorOptions())
    manual_pred = train_predictor(train, pcfg)
    manual = estimate_mlls_em(predict_proba(manual_pred, test.features),
                              train.empirical_marginal())
    assert np.array_equal(composed.ratio.ratios, manual.ratio.ratios)


def test_options_validation():
    with pytest.raises(ValueError, match="tol"):
        EstimatorOptions(tol=0.0)
    with pytest.raises(ValueError, match="max_iters"):
        EstimatorOptions(max_iters=0)
